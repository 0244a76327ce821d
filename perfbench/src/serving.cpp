// Closed-loop socket serving workloads: `edge-closed`, `fleet-aging` and
// `pipeline-recut`. Clients are this benchmark's own (client.hpp); the
// program is driven through serve::NpuServer and net::Server only.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <random>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "client.hpp"
#include "core/requant_job.hpp"
#include "exec/plan_cache.hpp"
#include "net/server.hpp"
#include "obs/clock.hpp"
#include "quant/methods.hpp"
#include "quant/quant_executor.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace raq::perfbench {

namespace {

struct ServingWorkload {
    const char* name;
    const char* model;
    int devices;
    int shards;
    int workers;
    double initial_age_years;  ///< field age of device 0
    double age_step_years;     ///< device i enters aged initial + i × step
    double age_acceleration;
    double requant_threshold_mv;
    double guardband;
    bool full_algorithm1;
    bool reliability;   ///< reliability planner + telemetry (metrics, 1% traces)
    bool repartition;   ///< online re-partitioning of the shard pipeline
    bool mixed_classes; ///< 50/50 interactive and batch class frames
};

// Every age, acceleration and threshold is a constant of its workload,
// never derived from a probe of the code under test, so a parent and a
// change always run the same workload.
//
// fleet-aging: aging follows served requests in model time. At 9.3e9
// simulated hours per busy hour and ~48k requests per device in a 15 s
// run, each device ages ~26 years: the 2-year device crosses the 10 mV
// threshold (built at the planner's 1.6x deferral bound) at ~11 years
// of aging and the 3-year device at ~14, and neither crosses again
// before ~47. So a run makes two background full-Algorithm-1 builds at
// any throughput between about 0.55x and 1.8x of that.
//
// pipeline-recut: 724.66 years is the ΔVth (126 mV) at which the
// uncompressed MAC runs at 1.8x the fresh critical path; the 1.2
// guardband keeps both shards on the same (uncompressed) deployment.
constexpr ServingWorkload kWorkloads[] = {
    {"edge-closed", "alexnet-mini", 2, 1, 2, 2.0, 1.0, 1.0, 10.0, 0.0, true, false, false,
     false},
    {"fleet-aging", "alexnet-mini", 2, 1, 2, 2.0, 1.0, 9.3e9, 10.0, 0.0, true, true, false,
     true},
    {"pipeline-recut", "resnet50-mini", 2, 2, 1, 0.0, 724.66, 1.0, 1e9, 1.2, false, false,
     true, false},
};

constexpr int kClients = 2;
constexpr int kMaxBatch = 8;
constexpr int kExecSamples = 256;  ///< samples of the traced exec pass

const ServingWorkload* find_workload(const std::string& name) {
    for (const ServingWorkload& w : kWorkloads)
        if (name == w.name) return &w;
    return nullptr;
}

serve::ServeConfig make_config(const ServingWorkload& w, std::uint64_t seed) {
    serve::ServeConfig cfg;
    cfg.num_devices = w.devices;
    cfg.num_workers = w.workers;
    cfg.max_batch = kMaxBatch;
    cfg.num_shards = w.shards;
    cfg.initial_age_years = w.initial_age_years;
    cfg.initial_age_step_years = w.age_step_years;
    cfg.device.age_acceleration = w.age_acceleration;
    cfg.device.requant_threshold_mv = w.requant_threshold_mv;
    cfg.device.guardband_fraction = w.guardband;
    cfg.device.full_algorithm1 = w.full_algorithm1;
    if (w.reliability) {
        cfg.planner.enabled = true;
        cfg.telemetry.metrics = true;
        cfg.telemetry.trace_sample_rate = 0.01;
        cfg.telemetry.seed = seed;
    }
    if (w.repartition) {
        cfg.repartition.enabled = true;
        cfg.repartition.imbalance_ratio = 1.4;
        cfg.repartition.min_batches = 4;
        cfg.repartition.poll_ms = 1;
    }
    return cfg;
}

/// One complete set-up: dataset, model, calibration, selector, the
/// NpuServer with its initial deployments, and the listening front-end.
struct Rig {
    Rig(const ServingWorkload& w, std::uint64_t seed, Tracer& tracer)
        : fixture(model_dir(), tracer), model(fixture, w.model, tracer) {
        ctx.graph = &model.graph;
        ctx.calib = &model.calib;
        ctx.selector = fixture.selector.get();
        ctx.aging = &fixture.aging;
        ctx.eval_images = &fixture.eval_images;
        ctx.eval_labels = &fixture.eval_labels;
        if (tracer.enabled() && w.full_algorithm1) {
            // The FP32 reference each full-Algorithm-1 device computes
            // inside its RequantJob, timed on its own (traced run only).
            const ScopedSpan span(tracer, "core.fp32_ref");
            core::RequantJobConfig job;
            job.full_algorithm1 = true;
            const core::RequantJob probe(model.graph, model.calib, *fixture.selector, job,
                                         &fixture.eval_images, &fixture.eval_labels);
            (void)probe;
        }
        {
            const ScopedSpan span(tracer, "serve.start");
            npu = std::make_unique<serve::NpuServer>(ctx, make_config(w, seed));
        }
        const ScopedSpan span(tracer, "net.start");
        net::NetConfig ncfg;
        ncfg.num_loops = 1;
        front = std::make_unique<net::Server>(*npu, ncfg);
    }
    ~Rig() { stop(); }
    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;

    void stop() {
        if (front) front->stop();
        if (npu) npu->shutdown();
    }

    Fixture fixture;
    LoadedModel model;
    serve::ServeContext ctx;
    std::unique_ptr<serve::NpuServer> npu;
    std::unique_ptr<net::Server> front;
};

/// A deployment key: (device, generation).
std::uint64_t deployment_key(std::uint32_t device, std::uint64_t generation) {
    return (static_cast<std::uint64_t>(device) << 40) | generation;
}

struct Phase {
    std::vector<ClientLog> logs;
    double elapsed_s = 0.0;
    double steal = 0.0;
};

std::vector<std::uint8_t> class_sequence(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::uint8_t> classes(4096);
    for (std::uint8_t& c : classes) c = static_cast<std::uint8_t>(rng() & 1u);
    return classes;
}

/// Per-shard busy time of the pipeline, snapshot when the first re-cut
/// has landed (the stage balance after the re-cut is measured from
/// here).
struct RecutWatch {
    bool seen = false;
    std::vector<double> busy_ps;
};

void watch_recut(const Rig& rig, Clock::time_point deadline, RecutWatch& watch) {
    if (!rig.npu->sharded() || watch.seen) return;
    const serve::ShardGroup& group = rig.npu->shard_group(0);
    while (Clock::now() < deadline) {
        if (group.partition_generation() >= 2) {
            watch.seen = true;
            for (const serve::DeviceStats& d : group.stats()) watch.busy_ps.push_back(d.busy_ps);
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

/// The same closed loop in process: NpuServer::submit, then wait on the
/// result.
ClientLog run_inproc_client(Rig& rig, const std::vector<WireSample>& samples,
                            const ClientPlan& plan) {
    return run_closed_loop(
        plan, "serve.submit",
        [&](std::uint32_t sample, std::uint8_t klass, std::uint64_t, net::InferReply& reply,
            std::string& error) {
            serve::InferenceResult r;
            try {
                r = rig.npu->submit(samples[sample].reference,
                                    static_cast<serve::RequestClass>(klass))
                        .get();
            } catch (const std::exception& e) {
                error = e.what();
                return Trip::Failed;
            }
            reply.predicted_class = r.predicted_class;
            reply.device_id = static_cast<std::uint32_t>(r.device_id);
            reply.generation = r.generation;
            reply.logits = std::move(r.logits);
            return Trip::Ok;
        });
}

enum class Transport { Socket, InProcess };

/// `kClients` closed-loop clients for `seconds`, each on its own socket
/// connection or calling the NpuServer in process. The seed orders the
/// samples and classes each client sends.
Phase run_phase(Rig& rig, const std::vector<WireSample>& samples, const ServingWorkload& w,
                std::uint64_t seed, double seconds, bool trace, std::uint64_t tag_base,
                Transport transport, RecutWatch& watch) {
    std::vector<std::unique_ptr<Connection>> conns;
    std::vector<ClientPlan> plans(kClients);
    for (int c = 0; c < kClients; ++c) {
        if (transport == Transport::Socket)
            conns.push_back(std::make_unique<Connection>(rig.front->port()));
        ClientPlan& plan = plans[static_cast<std::size_t>(c)];
        plan.samples = &samples;
        plan.order = permutation(static_cast<std::uint32_t>(samples.size()),
                                 seed * 1000003u + static_cast<std::uint64_t>(c));
        if (w.mixed_classes) plan.classes = class_sequence(seed * 7919u + static_cast<std::uint64_t>(c));
        plan.class_frames = w.mixed_classes;
        plan.tag_base = tag_base + (static_cast<std::uint64_t>(c) << 32);
        plan.trace = trace;
    }
    Phase phase;
    phase.logs.resize(kClients);
    const CpuTimes cpu0 = CpuTimes::now();
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        const auto i = static_cast<std::size_t>(c);
        plans[i].deadline = deadline;
        threads.emplace_back([&, i] {
            phase.logs[i] = transport == Transport::Socket
                                ? run_client(*conns[i], plans[i])
                                : run_inproc_client(rig, samples, plans[i]);
        });
    }
    watch_recut(rig, deadline, watch);
    for (std::thread& t : threads) t.join();
    phase.elapsed_s = seconds_between(start, Clock::now());
    phase.steal = steal_pct(cpu0, CpuTimes::now());
    return phase;
}

std::uint64_t ok_ops(const Phase& phase) {
    std::uint64_t n = 0;
    for (const ClientLog& log : phase.logs) n += log.replies.size();
    return n;
}

std::vector<double> latencies_us(const Phase& phase) {
    std::vector<double> out;
    for (const ClientLog& log : phase.logs)
        for (const Reply& r : log.replies) out.push_back(r.latency_us);
    return out;
}

/// Output checks: every OK reply must be bit-identical to
/// quant::run_quantized of the deployment that served it, rebuilt here
/// from its (compression, method), and its predicted class must be the
/// argmax of its logits.
class ReplyChecker {
public:
    /// Initial deployment of each replicated device: generation,
    /// compression and method, recorded before the timed phase.
    using Initial = std::map<std::uint32_t, std::tuple<std::uint64_t, common::Compression,
                                                       quant::Method>>;

    static Initial initial_states(const Rig& rig) {
        Initial out;
        if (rig.npu->sharded()) return out;
        for (int i = 0; i < rig.npu->num_devices(); ++i) {
            const auto state = rig.npu->device(i).deployed_state();
            out[static_cast<std::uint32_t>(i)] = {state->generation, state->compression,
                                                  state->method};
        }
        return out;
    }

    ReplyChecker(const Rig& rig, const Initial& initial, const serve::FleetStats& fleet,
                 const std::vector<WireSample>& samples, Report& report)
        : rig_(rig), samples_(samples), report_(report) {
        if (rig.npu->sharded()) {
            // A pipeline serves the single-device model: both shards must
            // hold the same compression and method, and every reply must
            // equal the whole model quantized that way.
            const serve::ShardGroup& group = rig.npu->shard_group(0);
            const auto s0 = group.shard(0).deployed_state();
            for (int k = 1; k < group.num_shards(); ++k) {
                const auto sk = group.shard(k).deployed_state();
                if (sk->compression.alpha != s0->compression.alpha ||
                    sk->compression.beta != s0->compression.beta ||
                    sk->compression.padding != s0->compression.padding ||
                    sk->method != s0->method)
                    report_.mismatch("pipeline shards hold different deployments");
            }
            single_ = rebuild(s0->compression, s0->method);
            return;
        }
        for (const auto& [device, state] : initial)
            graphs_[deployment_key(device, std::get<0>(state))] =
                rebuild(std::get<1>(state), std::get<2>(state));
        for (const serve::DeviceStats& d : fleet.devices)
            for (const serve::RequantEvent& e : d.requant_events)
                graphs_[deployment_key(static_cast<std::uint32_t>(d.device_id),
                                       e.generation)] = rebuild(e.after, e.method);
    }

    /// Check every reply of `log`; mismatches go to the report.
    void check(const ClientLog& log) {
        for (std::size_t i = 0; i < log.replies.size(); ++i) {
            const Reply& r = log.replies[i];
            const quant::QuantizedGraph* graph = single_.get();
            if (!graph) {
                const auto it = graphs_.find(deployment_key(r.device, r.generation));
                if (it == graphs_.end()) {
                    report_.mismatch("reply from unknown deployment device " +
                                     std::to_string(r.device) + " generation " +
                                     std::to_string(r.generation));
                    continue;
                }
                graph = it->second.get();
            }
            const std::vector<float>& ref = reference(graph, r.sample);
            const float* got = log.logits.data() + i * log.logits_per_reply;
            if (ref.size() != log.logits_per_reply ||
                std::memcmp(ref.data(), got, ref.size() * sizeof(float)) != 0) {
                report_.mismatch("reply logits differ from run_quantized (device " +
                                 std::to_string(r.device) + ", generation " +
                                 std::to_string(r.generation) + ", sample " +
                                 std::to_string(r.sample) + ")");
                continue;
            }
            const int argmax = static_cast<int>(
                std::max_element(ref.begin(), ref.end()) - ref.begin());
            if (r.predicted != argmax)
                report_.mismatch("reply predicted class is not the logits' argmax");
        }
    }

private:
    std::shared_ptr<const quant::QuantizedGraph> rebuild(const common::Compression& comp,
                                                         quant::Method method) const {
        return std::make_shared<const quant::QuantizedGraph>(quant::quantize_graph(
            rig_.model.graph, method, quant::QuantConfig::from_compression(comp),
            rig_.model.calib));
    }

    const std::vector<float>& reference(const quant::QuantizedGraph* graph,
                                        std::uint32_t sample) {
        auto& per_graph = cache_[graph];
        auto it = per_graph.find(sample);
        if (it != per_graph.end()) return it->second;
        const tensor::Tensor out = quant::run_quantized(*graph, samples_[sample].reference);
        std::vector<float> logits(out.data(), out.data() + out.size());
        return per_graph.emplace(sample, std::move(logits)).first->second;
    }

    const Rig& rig_;
    const std::vector<WireSample>& samples_;
    Report& report_;
    std::shared_ptr<const quant::QuantizedGraph> single_;
    std::unordered_map<std::uint64_t, std::shared_ptr<const quant::QuantizedGraph>> graphs_;
    std::unordered_map<const quant::QuantizedGraph*,
                       std::unordered_map<std::uint32_t, std::vector<float>>>
        cache_;
};

}  // namespace

void run_serving(const Options& options, Report& report) {
    const ServingWorkload* found = find_workload(options.workload);
    if (!found) throw std::invalid_argument("unknown workload " + options.workload);
    const ServingWorkload& w = *found;
    Tracer tracer(options.trace);

    const auto rig = std::make_unique<Rig>(w, options.seed, tracer);
    const double setup_s = seconds_between(options.process_start, Clock::now());
    if (options.setup_only) {
        report.add("setup_s", setup_s, "s");
        return;
    }

    // Inputs and the record of the initial deployments are untimed.
    const std::vector<WireSample> samples =
        make_wire_samples(rig->fixture.cache->dataset(), w.mixed_classes);
    const ReplyChecker::Initial initial = ReplyChecker::initial_states(*rig);
    const exec::PlanCacheStats plans_before = exec::PlanCache::global().stats();

    RecutWatch watch;
    const std::int64_t phase_start_us = obs::monotonic_us();
    std::vector<Phase> phases;
    double trace_overhead_pct = 0.0;
    if (!options.trace) {
        phases.push_back(run_phase(*rig, samples, w, options.seed, options.seconds, false, 0,
                                   Transport::Socket, watch));
    } else {
        // Untraced then traced halves of one run: their throughput
        // difference is the tracing overhead. The in-process pass sends
        // the traced half's samples and classes.
        const double half = options.seconds / 2;
        phases.push_back(run_phase(*rig, samples, w, options.seed, half, false, 0,
                                   Transport::Socket, watch));
        phases.push_back(run_phase(*rig, samples, w, options.seed + 1, half, true,
                                   std::uint64_t{1} << 48, Transport::Socket, watch));
        const double untraced = static_cast<double>(ok_ops(phases[0])) / phases[0].elapsed_s;
        const double traced = static_cast<double>(ok_ops(phases[1])) / phases[1].elapsed_s;
        trace_overhead_pct = untraced > 0.0 ? 100.0 * (untraced - traced) / untraced : 0.0;
        phases.push_back(run_phase(*rig, samples, w, options.seed + 1, half, true,
                                   std::uint64_t{2} << 48, Transport::InProcess, watch));
        for (std::size_t p = 1; p < phases.size(); ++p)
            for (const ClientLog& log : phases[p].logs) tracer.merge(log.spans);
    }
    // The plan-cache and front-end counters cover the timed phases only;
    // the fleet stats are read after shutdown has adopted every pending
    // generation.
    const exec::PlanCacheStats plans_after = exec::PlanCache::global().stats();
    const net::NetStats net_stats = rig->front->stats();
    rig->front->stop();
    rig->npu->shutdown();
    const serve::FleetStats fleet = rig->npu->fleet_stats();

    // ---- output checks (untimed) -----------------------------------
    ReplyChecker checker(*rig, initial, fleet, samples, report);
    std::uint64_t ok = 0, correct_top1 = 0;
    for (const Phase& phase : phases)
        for (const ClientLog& log : phase.logs) {
            report.attempted += log.attempted;
            report.failed += log.failed;
            if (!log.error.empty())
                std::fprintf(stderr, "raqbench: client failure: %s\n", log.error.c_str());
            checker.check(log);
            for (const Reply& r : log.replies) {
                ++ok;
                correct_top1 += r.predicted == samples[r.sample].label;
            }
        }
    if (ok == 0) report.mismatch("no OK replies");
    if (w.repartition && !watch.seen) report.mismatch("the pipeline re-cut did not land");

    if (!options.trace) {
        const Phase& phase = phases.front();
        const std::vector<double> latencies = latencies_us(phase);
        report.add("setup_s", setup_s, "s");
        report.add("ops_per_s", static_cast<double>(ok_ops(phase)) / phase.elapsed_s, "1/s");
        report.add("p50_ms", 1e-3 * median(latencies), "ms");
        report.add("p90_ms", 1e-3 * quantile(latencies, 0.9), "ms");
        report.add("sim_ips", fleet.sim_throughput_ips(), "1/s");
        report.add("acc_pct", ok ? 100.0 * static_cast<double>(correct_top1) / ok : 0.0, "%");
        report.add("peak_rss_mb", peak_rss_mb(), "MiB");
        std::fprintf(stderr, "raqbench: %s: %llu ok in %.3f s, steal %.2f%%\n", w.name,
                     static_cast<unsigned long long>(ok_ops(phase)), phase.elapsed_s,
                     phase.steal);
        for (const serve::DeviceStats& d : fleet.devices) {
            std::fprintf(stderr, "raqbench:   device %d: %llu requests, dvth %.2f mV, gen %llu\n",
                         d.device_id, static_cast<unsigned long long>(d.requests), d.dvth_mv,
                         static_cast<unsigned long long>(d.generation));
            for (const serve::RequantEvent& e : d.requant_events)
                std::fprintf(stderr,
                             "raqbench:     gen %llu at %.3f s: dvth %.2f mV, build %.1f ms%s\n",
                             static_cast<unsigned long long>(e.generation),
                             1e-6 * static_cast<double>(e.t_us - phase_start_us), e.dvth_mv,
                             e.build_ms, e.recut ? " (re-cut)" : "");
        }
        return;
    }

    // ---- per-layer metrics (traced run) ----------------------------
    report.add("data.synth_ms", tracer.total_ms("data.synth"), "ms");
    report.add("nn.load_ms", tracer.total_ms("nn.load"), "ms");
    report.add("quant.calibrate_ms", tracer.total_ms("quant.calibrate"), "ms");
    report.add("core.fp32_ref_ms", tracer.total_ms("core.fp32_ref"), "ms");
    report.add("serve.start_ms", tracer.total_ms("serve.start"), "ms");
    report.add("net.start_ms", tracer.total_ms("net.start"), "ms");
    report.add("exec.plan_misses", static_cast<double>(plans_after.misses - plans_before.misses),
               "count");

    // Exec pass: each deployed graph (or pipeline stage) at batch 1 over
    // the same samples, plus the per-level table.
    std::vector<LevelRow> levels;
    std::vector<double> chain_us;
    double stage_max_us = 0.0;
    const std::vector<std::uint32_t> order =
        permutation(static_cast<std::uint32_t>(samples.size()), options.seed);
    if (rig->npu->sharded()) {
        const serve::ShardGroup& group = rig->npu->shard_group(0);
        std::vector<std::shared_ptr<const quant::QuantizedGraph>> graphs;
        std::vector<std::unique_ptr<quant::QuantRunner>> runners;
        for (int k = 0; k < group.num_shards(); ++k) {
            graphs.push_back(group.shard(k).deployed_graph());
            runners.push_back(std::make_unique<quant::QuantRunner>(graphs.back(), 1));
        }
        std::vector<std::vector<double>> stage_us(graphs.size());
        for (int i = 0; i < kExecSamples; ++i) {
            tensor::Tensor x = samples[order[static_cast<std::size_t>(i)]].reference;
            double total = 0.0;
            for (std::size_t k = 0; k < runners.size(); ++k) {
                const int id = tracer.open("exec.stage", -1, static_cast<std::uint64_t>(i));
                const std::int64_t t0 = now_ns();
                x = runners[k]->run(x);
                const double us = 1e-3 * static_cast<double>(now_ns() - t0);
                tracer.close(id);
                stage_us[k].push_back(us);
                total += us;
            }
            chain_us.push_back(total);
        }
        tensor::Tensor x = samples[order[0]].reference;
        for (std::size_t k = 0; k < graphs.size(); ++k) {
            stage_max_us = std::max(stage_max_us, median(stage_us[k]));
            const std::vector<LevelRow> rows =
                profile_levels("shard" + std::to_string(k), *graphs[k], x, 200,
                               group.shard(static_cast<int>(k)).clock_period_ps());
            levels.insert(levels.end(), rows.begin(), rows.end());
            x = runners[k]->run(x);
        }
    } else {
        for (int d = 0; d < rig->npu->num_devices(); ++d) {
            const auto graph = rig->npu->device(d).deployed_graph();
            quant::QuantRunner runner(graph, 1);
            for (int i = 0; i < kExecSamples; ++i) {
                const tensor::Tensor& x = samples[order[static_cast<std::size_t>(i)]].reference;
                const int id = tracer.open("exec.run", -1, static_cast<std::uint64_t>(i));
                const std::int64_t t0 = now_ns();
                (void)runner.run(x);
                chain_us.push_back(1e-3 * static_cast<double>(now_ns() - t0));
                tracer.close(id);
            }
            const std::vector<LevelRow> rows =
                profile_levels("device" + std::to_string(d), *graph, samples[order[0]].reference,
                               200, rig->npu->device(d).clock_period_ps());
            levels.insert(levels.end(), rows.begin(), rows.end());
        }
    }
    const double exec_b1_us = median(chain_us);
    const double socket_p50_us = median(tracer.durations_us("net.request"));
    const double inproc_p50_us = median(tracer.durations_us("serve.submit"));
    report.add("exec.b1_us", exec_b1_us, "us");
    report.add("serve.inproc_p50_us", inproc_p50_us, "us");
    report.add("net.overhead_us", socket_p50_us - inproc_p50_us, "us");
    report.add("serve.overhead_us", inproc_p50_us - exec_b1_us, "us");
    report.add("exec.stage_max_us", stage_max_us, "us");

    std::uint64_t requests = 0, batches = 0;
    std::vector<double> build_ms, swap_us;
    int requants = 0;
    for (const serve::DeviceStats& d : fleet.devices) {
        requests += d.requests;
        batches += d.batches;
        for (const serve::RequantEvent& e : d.requant_events) {
            if (e.recut) continue;
            ++requants;
            build_ms.push_back(e.build_ms);
            swap_us.push_back(e.swap_us);
        }
    }
    report.add("serve.batch_mean",
               batches ? static_cast<double>(requests) / static_cast<double>(batches) : 0.0,
               "req/batch");
    report.add("net.bytes_per_req",
               net_stats.requests
                   ? static_cast<double>(net_stats.bytes_read + net_stats.bytes_written) /
                         static_cast<double>(net_stats.requests)
                   : 0.0,
               "bytes");
    report.add("serve.requants", requants, "count");
    report.add("serve.build_ms", median(build_ms), "ms");
    report.add("serve.swap_us", median(swap_us), "us");
    if (const obs::Telemetry* telemetry = rig->npu->telemetry()) {
        for (const char* klass : {"interactive", "batch"}) {
            const obs::Histogram* h = telemetry->metrics().find_histogram(
                "raq_queue_wait_us", obs::Labels{{"class", klass}});
            report.add(std::string("serve.queue_wait_us.") + klass, h ? h->quantile(0.5) : 0.0,
                       "us");
        }
    }
    if (serve::ReliabilityPlanner* planner = rig->npu->planner())
        report.add("serve.deferred", static_cast<double>(planner->stats().builds_deferred),
                   "count");
    if (rig->npu->sharded()) {
        const serve::ShardGroup& group = rig->npu->shard_group(0);
        report.add("serve.recuts", static_cast<double>(group.repartition_stats().recuts), "count");
        if (watch.seen) {
            const std::vector<serve::DeviceStats> now = group.stats();
            double lo = 0.0, hi = 0.0;
            for (std::size_t k = 0; k < now.size() && k < watch.busy_ps.size(); ++k) {
                const double busy = now[k].busy_ps - watch.busy_ps[k];
                lo = k == 0 ? busy : std::min(lo, busy);
                hi = std::max(hi, busy);
            }
            report.add("serve.stage_imbalance", lo > 0.0 ? hi / lo : 0.0, "ratio");
        }
    }
    double steal = 0.0;
    for (const Phase& phase : phases) steal = std::max(steal, phase.steal);
    report.add("bench.steal_pct", steal, "%");
    report.add("bench.trace_overhead_pct", trace_overhead_pct, "%");

    tracer.write(options.artifact_dir + "/" + w.name + ".spans.tsv");
    write_level_table(options.artifact_dir + "/" + w.name + ".levels.tsv", levels);
}

}  // namespace raq::perfbench
