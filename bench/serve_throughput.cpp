// Serving throughput scaling + the requant-stall and sharding scenarios.
//
// Part 1 — scaling: the same request stream served by fleets of 1, 2, 4
// and 8 devices (workers == devices), reporting simulated fleet
// throughput (model cycles × MAC clock — the figure of merit for the
// modelled NPU, independent of the simulation host) alongside host
// wall-clock. Devices run concurrently in model time, so simulated
// throughput scales linearly with fleet size.
//
// Part 2 — requant stall: a single fast-aging device (high
// age_acceleration, low requant_threshold_mv, full Algorithm 1) under a
// paced request stream, served once with inline re-quantization (the
// device stalls at the batch boundary for the full PTQ method search)
// and once with the background RequantService (build off the serving
// path, double-buffered swap). Reported latency here is host wall-clock
// per request (submit → completion): the stall is host time spent not
// serving, invisible in model cycles. Acceptance: background p99 ≤ 0.5×
// inline p99 with identical final deployed generations, and zero
// ExecPlan recompiles across the second run's re-quantizations.
//
// Part 3 — sharding: resnet20-mini partitioned across 4 devices
// (shard = sub-plan, one pipeline group) against the replicated layout
// at equal device count. The pipeline's simulated throughput is bounded
// by its bottleneck shard, so the acceptance gate is pipelined ≥ 0.8×
// replicated — i.e. the systolic-cycle-balanced graph cut keeps the
// bottleneck within 1.25× of the ideal quarter.
//
// Part 4 — recut: one device of a 2-shard pipeline enters the field aged
// hard (large ΔVth), so the clock its deployment installs runs ~2× the
// fresh period and the static fresh-silicon cut leaves it the pipeline
// bottleneck. Served twice: once with the stale static partition and
// once with online re-partitioning (RepartitionMonitor → heterogeneous
// min-bottleneck re-cut → drain-and-swap). Acceptance: the aged clock is
// ≥ 1.25× the fresh one, post-re-cut simulated throughput ≥ 1.15× the
// stale cut's, outputs stay bit-identical to single-device execution
// across the swap, and per-request partition ids are monotonic.
//
// Part 5 — obs-overhead: the recut fleet (2-shard pipeline, stage-1 aged
// hard, online re-partitioning on) plus a fast-aging requant threshold,
// served twice over the same request stream: telemetry compiled in but
// disabled, then metrics on with 1% deterministic trace sampling. The
// instrumented pass must keep simulated throughput within 3% of the
// baseline, and its scrape must show live series — non-zero queue-depth
// peak, device busy time, ΔVth, requant and re-cut counters — plus at
// least one sampled trace reconstructing the full queue → batch →
// (handoff → execute) × stages → complete journey.
//
// Part 6 — net: the epoll socket front-end against in-process serving.
// Pass 1 serves a closed-loop stream (8 concurrent submitters) straight
// through NpuServer::submit — the no-network baseline. Pass 2 serves
// the same stream over localhost TCP through net::Server + net::LoadGen
// (8 connections). Pass 3 offers an open-loop Poisson stream at ~2× the
// measured socket capacity against a small admission queue. Acceptance:
// socket QPS ≥ 0.7× in-process and socket p99 ≤ 2× in-process (the
// front-end adds syscalls, not stalls); under overload the excess is
// shed with BUSY, nothing is lost or blackholed, and every accepted
// response stays bit-identical to in-process execution.
//
// Part 7 — slo: the PR 10 multi-tenant scheduling + reliability-planner
// gate. A 2-shard pipeline with one hard-aged stage and accelerated
// aging serves two phased open-loop streams over the socket front-end:
// a high-rate phase (the requant threshold crossing and the re-cut
// trigger both land here) followed by a low-rate phase. The baseline
// pass is the single-FIFO status quo: every request on one lane,
// planner off, reliability work firing reactively into peak traffic.
// The mixed pass sends 50% interactive / 50% batch through the
// class-aware scheduler with the planner on. Acceptance: interactive
// p99 in the mixed pass meets its SLO (max of the scheduler target and
// 3× the baseline's own p99 under the identical stream), batch
// throughput keeps ≥ 85% of its pro-rata share of the baseline, the
// planner defers reliability work out of the high phase and lands it
// inside a predicted low-traffic window (timeline-asserted:
// window-predicted → build-scheduled "(low window)", with ≥ 1 deferral
// and ≥ 1 re-cut), and accepted socket responses stay bit-identical to
// in-process submission on the same quiesced fleet.
//
// Usage: serve_throughput [--scenario all|scaling|requant|shard|recut|
//                          obs-overhead|net|slo] [requests] [network]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "aging/aging_model.hpp"
#include "bench/bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/compression_selector.hpp"
#include "exec/plan_cache.hpp"
#include "net/load_gen.hpp"
#include "net/server.hpp"
#include "obs/telemetry.hpp"
#include "quant/methods.hpp"
#include "serve/server.hpp"

namespace {

using namespace raq;
using Clock = std::chrono::steady_clock;


struct StallReport {
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    std::uint64_t final_generation = 0;
    int requants = 0;
    double max_build_ms = 0.0;
    double max_swap_us = 0.0;
};

/// One paced pass over the aging device; `background` toggles the
/// RequantService vs. the inline batch-boundary rebuild.
StallReport run_stall_scenario(const serve::ServeContext& ctx,
                               const std::vector<tensor::Tensor>& images, bool background,
                               double threshold_mv, double acceleration,
                               std::chrono::microseconds pace) {
    const int requests = static_cast<int>(images.size());
    serve::ServeConfig cfg;
    cfg.num_devices = 1;
    cfg.num_workers = 1;
    cfg.max_batch = 8;
    cfg.background_requant = background;
    cfg.device.requant_threshold_mv = threshold_mv;
    cfg.device.age_acceleration = acceleration;
    cfg.device.full_algorithm1 = true;
    serve::NpuServer server(ctx, cfg);

    std::vector<std::future<serve::InferenceResult>> futures(
        static_cast<std::size_t>(requests));
    std::vector<Clock::time_point> submitted(static_cast<std::size_t>(requests));
    std::vector<double> latency_ms(static_cast<std::size_t>(requests));
    std::atomic<int> ready{0};

    // Completion stamping runs concurrently with paced submission; one
    // device and one worker keep completion in FIFO order, so waiting in
    // submission order observes each future as it resolves.
    std::thread waiter([&] {
        for (int i = 0; i < requests; ++i) {
            while (ready.load(std::memory_order_acquire) <= i)
                std::this_thread::yield();
            futures[static_cast<std::size_t>(i)].wait();
            latency_ms[static_cast<std::size_t>(i)] =
                std::chrono::duration<double, std::milli>(
                    Clock::now() - submitted[static_cast<std::size_t>(i)])
                    .count();
        }
    });
    for (int i = 0; i < requests; ++i) {
        submitted[static_cast<std::size_t>(i)] = Clock::now();
        futures[static_cast<std::size_t>(i)] =
            server.submit(images[static_cast<std::size_t>(i)]);
        ready.store(i + 1, std::memory_order_release);
        std::this_thread::sleep_for(pace);
    }
    waiter.join();
    server.shutdown();

    const serve::DeviceStats stats = server.device(0).stats();
    StallReport report;
    // One quantile definition project-wide: the same common::quantile
    // interpolation serve's LatencyRecorder reports, so the bench gate
    // and the serving stats agree on what "p99" means (one sort here).
    std::sort(latency_ms.begin(), latency_ms.end());
    report.p50_ms = common::quantile_sorted(latency_ms, 0.50);
    report.p99_ms = common::quantile_sorted(latency_ms, 0.99);
    report.final_generation = stats.generation;
    report.requants = stats.requant_count;
    for (const serve::RequantEvent& e : stats.requant_events) {
        report.max_build_ms = std::max(report.max_build_ms, e.build_ms);
        report.max_swap_us = std::max(report.max_swap_us, e.swap_us);
    }
    return report;
}

/// One pass of the recut scenario: a 2-shard pipeline whose stage-1
/// device entered the field aged `aged_years`. Warm-up traffic exposes
/// the stage imbalance; with `repartition` on, the pass then waits for
/// the online re-cut before measuring.
struct RecutReport {
    double throughput_ips = 0.0;       ///< measured phase, simulated
    double clock_ratio = 0.0;          ///< aged shard clock / fresh shard clock
    std::uint64_t partition_generation = 1;
    std::uint64_t recuts = 0;
    std::uint64_t triggers = 0;
    int requants = 0;                  ///< requant events across both shards
    bool bit_identical = true;         ///< vs. single-device reference logits
    bool partitions_monotonic = true;  ///< per-request partition ids, submit order
    std::vector<std::uint64_t> shard_cycles;  ///< per-image cycles per shard, final cut
};

RecutReport run_recut_pass(const serve::ServeContext& ctx,
                           const std::vector<tensor::Tensor>& warmup,
                           const std::vector<tensor::Tensor>& measure,
                           const quant::QuantizedGraph& reference, bool repartition,
                           double aged_years, double guardband) {
    serve::ServeConfig cfg;
    cfg.num_devices = 2;
    // One worker: batches enter the single pipeline group in submit
    // order, so the reported partition ids are monotonic per submit
    // index (two pool workers could reorder entry).
    cfg.num_workers = 1;
    cfg.max_batch = 8;
    cfg.num_shards = 2;
    cfg.initial_age_step_years = aged_years;  // stage 1 enters the field aged hard
    cfg.device.guardband_fraction = guardband;
    // No threshold crossings during the pass: the slow clock is already
    // installed by the aged shard's initial deployment (what any
    // re-quantization at that ΔVth would install), so both passes serve
    // identical arithmetic and the comparison isolates the cut.
    cfg.device.requant_threshold_mv = 1e9;
    cfg.repartition.enabled = repartition;
    cfg.repartition.imbalance_ratio = 1.4;
    cfg.repartition.min_batches = 4;
    cfg.repartition.poll_ms = 1;
    serve::NpuServer server(ctx, cfg);

    RecutReport report;
    const auto wait_all = [](std::vector<std::future<serve::InferenceResult>>& futures) {
        std::vector<serve::InferenceResult> results;
        results.reserve(futures.size());
        for (auto& f : futures) results.push_back(f.get());
        return results;
    };

    // Phase 1 — warm up: enough batches per stage for the monitor's
    // window to mature and (with repartitioning on) the re-cut to land.
    std::vector<std::future<serve::InferenceResult>> futures;
    futures.reserve(warmup.size());
    for (const tensor::Tensor& image : warmup) futures.push_back(server.submit(image));
    (void)wait_all(futures);
    if (repartition) {
        const auto deadline = Clock::now() + std::chrono::seconds(30);
        while (server.shard_group(0).partition_generation() < 2 &&
               Clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // Phase 2 — measure simulated throughput over the (possibly re-cut)
    // steady state: completed requests over the bottleneck stage's busy
    // time, deltas so the warm-up era doesn't dilute the figure.
    std::vector<double> busy_before;
    for (const auto& d : server.fleet_stats().devices) busy_before.push_back(d.busy_ps);
    futures.clear();
    futures.reserve(measure.size());
    for (const tensor::Tensor& image : measure) futures.push_back(server.submit(image));
    const std::vector<serve::InferenceResult> results = wait_all(futures);
    double bottleneck_ps = 0.0;
    {
        const serve::FleetStats fleet = server.fleet_stats();
        for (std::size_t k = 0; k < fleet.devices.size(); ++k)
            bottleneck_ps =
                std::max(bottleneck_ps, fleet.devices[k].busy_ps - busy_before[k]);
    }
    report.throughput_ips = bottleneck_ps > 0.0
                                ? static_cast<double>(measure.size()) /
                                      (bottleneck_ps * 1e-12)
                                : 0.0;

    // Bit-identity across the swap: every measured-phase result must
    // match the single-device reference exactly (the re-cut moves op
    // boundaries, never arithmetic).
    std::uint64_t last_partition = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const tensor::Tensor serial = quant::run_quantized(reference, measure[i]);
        if (results[i].logits.size() != serial.size()) report.bit_identical = false;
        for (std::size_t c = 0; report.bit_identical && c < serial.size(); ++c)
            if (results[i].logits[c] != serial[c]) report.bit_identical = false;
        if (results[i].partition < last_partition) report.partitions_monotonic = false;
        last_partition = results[i].partition;
    }

    server.shutdown();
    const auto& group = server.shard_group(0);
    report.clock_ratio = group.shard(1).clock_period_ps() / group.shard(0).clock_period_ps();
    const serve::RepartitionStats rp = group.repartition_stats();
    report.partition_generation = rp.partition_generation;
    report.recuts = rp.recuts;
    report.triggers = rp.triggers;
    for (int k = 0; k < group.num_shards(); ++k) {
        report.requants += group.shard(k).requant_count();
        report.shard_cycles.push_back(group.shard(k).per_image_cycles());
    }
    return report;
}

/// The ΔVth at which the minimum-norm (uncompressed) deployment's aged
/// delay reaches `ratio` × the fresh delay — how the recut and
/// obs-overhead scenarios age a shard into the pipeline bottleneck.
double aged_dvth_for_ratio(const core::CompressionSelector& selector, double ratio) {
    const common::Compression none{};
    const double fresh_delay = selector.delay_ps(0.0, none);
    double lo = 0.0, hi = 300.0;
    while (selector.delay_ps(hi, none) < ratio * fresh_delay) hi += 50.0;
    for (int i = 0; i < 100; ++i) {
        const double mid = 0.5 * (lo + hi);
        (selector.delay_ps(mid, none) < ratio * fresh_delay ? lo : hi) = mid;
    }
    return hi;
}

/// One pass of the obs-overhead scenario. Both passes serve the same
/// stream through the same aged-pipeline fleet; `telemetry` toggles the
/// metrics registry + 1% trace sampling on the second pass.
struct ObsReport {
    double sim_ips = 0.0;   ///< measured phase (post-re-cut), simulated
    double wall_s = 0.0;    ///< measured phase host wall-clock
    std::uint64_t recuts = 0;
    int requants = 0;       ///< requant events across both shards
    // Instrumented pass only:
    bool series_ok = false;      ///< scrape shows every required live series
    bool trace_ok = false;       ///< a sampled trace covers the full journey
    std::uint64_t traces_started = 0;
    std::string trace_line;      ///< the full-journey trace, rendered
    std::string timeline_text;   ///< reliability-event timeline, rendered
};

ObsReport run_obs_pass(const serve::ServeContext& ctx,
                       const std::vector<tensor::Tensor>& warmup,
                       const std::vector<tensor::Tensor>& measure, bool telemetry,
                       double aged_years, double guardband, double acceleration) {
    serve::ServeConfig cfg;
    cfg.num_devices = 2;
    cfg.num_workers = 2;
    cfg.max_batch = 8;
    cfg.num_shards = 2;
    cfg.initial_age_step_years = aged_years;  // stage 1 enters the field aged hard
    cfg.device.guardband_fraction = guardband;
    cfg.device.requant_threshold_mv = 2.5;
    cfg.device.age_acceleration = acceleration;
    cfg.background_requant = true;
    cfg.repartition.enabled = true;
    cfg.repartition.imbalance_ratio = 1.4;
    cfg.repartition.min_batches = 4;
    cfg.repartition.poll_ms = 1;
    cfg.telemetry.metrics = telemetry;
    cfg.telemetry.trace_sample_rate = telemetry ? 0.01 : 0.0;
    cfg.telemetry.trace_reservoir = 64;
    serve::NpuServer server(ctx, cfg);

    const auto wait_all = [](std::vector<std::future<serve::InferenceResult>>& futures) {
        for (auto& f : futures) f.get();
    };

    // Phase 1 — warm up until the online re-cut lands, so the measured
    // phase runs the same steady-state cut in both passes (the re-cut's
    // host-time arrival would otherwise skew the comparison).
    std::vector<std::future<serve::InferenceResult>> futures;
    futures.reserve(warmup.size());
    for (const tensor::Tensor& image : warmup) futures.push_back(server.submit(image));
    wait_all(futures);
    {
        const auto deadline = Clock::now() + std::chrono::seconds(30);
        while (server.shard_group(0).partition_generation() < 2 &&
               Clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // Phase 2 — measure simulated throughput (completed requests over the
    // bottleneck stage's busy-time delta — model time, host-independent).
    std::vector<double> busy_before;
    for (const auto& d : server.fleet_stats().devices) busy_before.push_back(d.busy_ps);
    futures.clear();
    futures.reserve(measure.size());
    const auto t0 = Clock::now();
    for (const tensor::Tensor& image : measure) futures.push_back(server.submit(image));
    wait_all(futures);
    ObsReport report;
    report.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    double bottleneck_ps = 0.0;
    {
        const serve::FleetStats fleet = server.fleet_stats();
        for (std::size_t k = 0; k < fleet.devices.size(); ++k)
            bottleneck_ps =
                std::max(bottleneck_ps, fleet.devices[k].busy_ps - busy_before[k]);
    }
    report.sim_ips = bottleneck_ps > 0.0
                         ? static_cast<double>(measure.size()) / (bottleneck_ps * 1e-12)
                         : 0.0;

    // Scrape the live server (instrumented pass): every required series
    // must be present and non-zero, and some sampled trace must span the
    // whole sharded journey.
    if (telemetry && server.telemetry()) {
        const obs::MetricsRegistry& reg = server.telemetry()->metrics();
        double busy = 0.0, dvth = 0.0;
        for (int d = 0; d < 2; ++d) {
            const obs::Labels labels{{"device", std::to_string(d)},
                                     {"stage", std::to_string(d)}};
            if (const obs::Gauge* g = reg.find_gauge("raq_device_busy_ps", labels))
                busy = std::max(busy, g->value());
            if (const obs::Gauge* g = reg.find_gauge("raq_device_dvth_mv", labels))
                dvth = std::max(dvth, g->value());
        }
        const obs::Gauge* peak = reg.find_gauge("raq_queue_depth_peak");
        const std::string expo = server.export_metrics();
        report.series_ok = peak != nullptr && peak->value() > 0.0 && busy > 0.0 &&
                           dvth > 0.0 && reg.counter_sum("raq_requants_total") >= 1 &&
                           reg.counter_sum("raq_repartition_recuts_total") >= 1 &&
                           expo.find("raq_queue_wait_us_bucket") != std::string::npos;
        for (const obs::TraceContext& trace : server.telemetry()->traces().snapshot()) {
            bool queue = false, batch = false, handoff = false, complete = false;
            bool stage0 = false, stage1 = false;
            for (const obs::TraceSpan& span : trace.spans) {
                switch (span.kind) {
                    case obs::SpanKind::Queue: queue = true; break;
                    case obs::SpanKind::Batch: batch = true; break;
                    case obs::SpanKind::Handoff: handoff = true; break;
                    case obs::SpanKind::Execute:
                        if (span.stage == 0) stage0 = true;
                        if (span.stage == 1) stage1 = true;
                        break;
                    case obs::SpanKind::Complete: complete = true; break;
                }
            }
            if (queue && batch && handoff && stage0 && stage1 && complete) {
                report.trace_ok = true;
                report.trace_line = trace.to_string();
                break;
            }
        }
        report.traces_started = server.telemetry()->traces().started();
        report.timeline_text = server.export_timeline();
    }

    server.shutdown();
    report.recuts = server.shard_group(0).repartition_stats().recuts;
    const auto& group = server.shard_group(0);
    for (int k = 0; k < group.num_shards(); ++k)
        report.requants += group.shard(k).requant_count();
    return report;
}

}  // namespace

int main(int argc, char** argv) try {
    using namespace raq;
    int argi = 1;
    std::string scenario = "all";
    if (argc > argi && std::strncmp(argv[argi], "--scenario", 10) == 0) {
        if (const char* eq = std::strchr(argv[argi], '=')) {
            scenario = eq + 1;
            ++argi;
        } else if (argc > argi + 1) {
            scenario = argv[argi + 1];
            argi += 2;
        } else {
            std::fprintf(stderr, "serve_throughput: --scenario needs a value\n");
            return 1;
        }
    }
    if (scenario != "all" && scenario != "scaling" && scenario != "requant" &&
        scenario != "shard" && scenario != "recut" && scenario != "obs-overhead" &&
        scenario != "net" && scenario != "slo") {
        std::fprintf(stderr,
                     "serve_throughput: unknown scenario '%s' (all|scaling|requant|"
                     "shard|recut|obs-overhead|net|slo)\n",
                     scenario.c_str());
        return 1;
    }
    const bool run_scaling = scenario == "all" || scenario == "scaling";
    const bool run_requant = scenario == "all" || scenario == "requant";
    const bool run_shard = scenario == "all" || scenario == "shard";
    const bool run_recut = scenario == "all" || scenario == "recut";
    const bool run_obs = scenario == "all" || scenario == "obs-overhead";
    const bool run_net = scenario == "all" || scenario == "net";
    const bool run_slo = scenario == "all" || scenario == "slo";
    const int requests = argc > argi ? std::atoi(argv[argi]) : 256;
    const std::string model = argc > argi + 1 ? argv[argi + 1] : "alexnet-mini";

    benchutil::Workbench bench;
    auto& net = bench.cache.get(model);
    auto graph = net.export_ir();
    const auto calib = quant::calibrate(graph, bench.calib_images, bench.calib_labels);

    const netlist::Netlist mac = benchutil::paper_mac();
    const cell::Library fresh = cell::Library::finfet14();
    const core::CompressionSelector selector(mac, fresh);
    const aging::AgingModel aging_model;

    serve::ServeContext ctx;
    ctx.graph = &graph;
    ctx.calib = &calib;
    ctx.selector = &selector;
    ctx.aging = &aging_model;

    // Pre-build the request stream so submission cost is not measured.
    std::vector<tensor::Tensor> images;
    images.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i)
        images.push_back(bench.cache.dataset().test_batch(i % benchutil::kTestSamples, 1));

    bool stall_pass = true;
    bool shard_pass = true;
    bool recut_pass = true;
    bool obs_pass = true;
    bool net_pass = true;
    bool slo_pass = true;

    if (run_scaling) {
    std::printf("serve_throughput: %s, %d requests per fleet size\n\n", model.c_str(),
                requests);
    common::Table table({"devices=workers", "sim inf/s", "sim scaling", "wall inf/s",
                         "p99 [cycles]"});
    double base_sim = 0.0;
    for (const int fleet_size : {1, 2, 4, 8}) {
        serve::ServeConfig cfg;
        cfg.num_devices = fleet_size;
        cfg.num_workers = fleet_size;
        cfg.max_batch = 8;
        serve::NpuServer server(ctx, cfg);

        const auto t0 = std::chrono::steady_clock::now();
        std::vector<std::future<serve::InferenceResult>> futures;
        futures.reserve(images.size());
        for (const tensor::Tensor& image : images) futures.push_back(server.submit(image));
        for (auto& f : futures) f.get();
        const auto t1 = std::chrono::steady_clock::now();
        server.shutdown();

        const double wall_s = std::chrono::duration<double>(t1 - t0).count();
        const serve::FleetStats fleet = server.fleet_stats();
        const double sim_ips = fleet.sim_throughput_ips();
        if (fleet_size == 1) base_sim = sim_ips;
        double p99 = 0.0;
        for (const auto& dev : fleet.devices)
            p99 = std::max(p99, dev.latency.p99_cycles);
        table.add_row({std::to_string(fleet_size), common::Table::fmt(sim_ips, 0),
                       common::Table::fmt(base_sim > 0 ? sim_ips / base_sim : 0.0, 2),
                       common::Table::fmt(requests / wall_s, 0),
                       common::Table::fmt(p99, 0)});
    }
    std::printf("%s\n", table.to_string().c_str());
    std::printf("sim scaling is the acceptance metric: the modelled fleet serves\n"
                "concurrently in model time regardless of host core count.\n\n");
    }

    // ---------------------------------------------- requant-stall scenario
    if (run_requant) {
    const int stall_requests = 900;
    const double threshold_mv = 2.5;
    const double end_dvth_mv = 6.0;  // two crossings (2.5, 5.0) per pass
    const auto pace = std::chrono::microseconds(3000);

    // The full 500-image eval set, as offline Algorithm 1 uses: on a
    // small slice the method race ends after M1 scores every image, and
    // an inline build no longer stalls the device long enough to measure.
    serve::ServeContext stall_ctx = ctx;
    stall_ctx.eval_images = &bench.test_images;
    stall_ctx.eval_labels = &bench.test_labels;

    std::vector<tensor::Tensor> stall_images;
    stall_images.reserve(static_cast<std::size_t>(stall_requests));
    for (int i = 0; i < stall_requests; ++i)
        stall_images.push_back(
            bench.cache.dataset().test_batch(i % benchutil::kTestSamples, 1));

    // Scale aging so this stream ends around end_dvth_mv on one device.
    double acceleration = 0.0;
    {
        serve::ServeConfig probe_cfg;
        serve::NpuServer probe(ctx, probe_cfg);
        const double busy_hours_per_request =
            static_cast<double>(probe.device(0).per_image_cycles()) *
            probe.device(0).clock_period_ps() * 1e-12 / 3600.0;
        probe.shutdown();
        acceleration = aging_model.years_for_dvth(end_dvth_mv) * 8760.0 /
                       (stall_requests * busy_hours_per_request);
    }

    std::printf("requant-stall: %d paced requests (%.1f ms apart), threshold %.1f mV,\n"
                "full Algorithm 1 per re-quantization (eval on %d samples)\n\n",
                stall_requests, 1e-3 * static_cast<double>(pace.count()), threshold_mv,
                bench.test_images.shape().n);

    const StallReport inline_run = run_stall_scenario(
        stall_ctx, stall_images, /*background=*/false, threshold_mv, acceleration, pace);
    const exec::PlanCacheStats cache_before = exec::PlanCache::global().stats();
    const StallReport bg_run = run_stall_scenario(
        stall_ctx, stall_images, /*background=*/true, threshold_mv, acceleration, pace);
    const exec::PlanCacheStats cache_after = exec::PlanCache::global().stats();

    common::Table stall({"requant mode", "requants", "final gen", "p50 [ms]", "p99 [ms]",
                         "max build [ms]", "max swap [us]"});
    stall.add_row({"inline", std::to_string(inline_run.requants),
                   std::to_string(inline_run.final_generation),
                   common::Table::fmt(inline_run.p50_ms, 2),
                   common::Table::fmt(inline_run.p99_ms, 2),
                   common::Table::fmt(inline_run.max_build_ms, 1),
                   common::Table::fmt(inline_run.max_swap_us, 0)});
    stall.add_row({"background", std::to_string(bg_run.requants),
                   std::to_string(bg_run.final_generation),
                   common::Table::fmt(bg_run.p50_ms, 2),
                   common::Table::fmt(bg_run.p99_ms, 2),
                   common::Table::fmt(bg_run.max_build_ms, 1),
                   common::Table::fmt(bg_run.max_swap_us, 0)});
    std::printf("%s\n", stall.to_string().c_str());

    const double ratio =
        inline_run.p99_ms > 0.0 ? bg_run.p99_ms / inline_run.p99_ms : 0.0;
    std::printf("p99 ratio (background / inline): %.3f  [gate: <= 0.5]\n", ratio);
    std::printf("final generations: inline %llu vs background %llu  [gate: identical]\n",
                static_cast<unsigned long long>(inline_run.final_generation),
                static_cast<unsigned long long>(bg_run.final_generation));
    std::printf("ExecPlan recompiles during the background pass: %llu  [gate: 0 — the\n"
                "plan cache serves every re-quantization of an already-seen topology]\n",
                static_cast<unsigned long long>(cache_after.misses - cache_before.misses));
    stall_pass = ratio <= 0.5 &&
                 inline_run.final_generation == bg_run.final_generation &&
                 cache_after.misses == cache_before.misses;
    std::printf("requant-stall gate: %s\n\n", stall_pass ? "PASS" : "FAIL");
    }

    // ------------------------------------------------- sharding scenario
    if (run_shard) {
    const int shard_devices = 4;
    const int shard_requests = requests;
    auto& shard_net = bench.cache.get("resnet20-mini");
    auto shard_graph = shard_net.export_ir();
    const auto shard_calib =
        quant::calibrate(shard_graph, bench.calib_images, bench.calib_labels);
    serve::ServeContext shard_ctx;
    shard_ctx.graph = &shard_graph;
    shard_ctx.calib = &shard_calib;
    shard_ctx.selector = &selector;
    shard_ctx.aging = &aging_model;

    std::vector<tensor::Tensor> shard_images;
    shard_images.reserve(static_cast<std::size_t>(shard_requests));
    for (int i = 0; i < shard_requests; ++i)
        shard_images.push_back(
            bench.cache.dataset().test_batch(i % benchutil::kTestSamples, 1));

    const auto run_layout = [&](int num_shards, int workers) {
        serve::ServeConfig cfg;
        cfg.num_devices = shard_devices;
        cfg.num_workers = workers;
        cfg.max_batch = 8;
        cfg.num_shards = num_shards;
        serve::NpuServer server(shard_ctx, cfg);
        const auto t0 = Clock::now();
        std::vector<std::future<serve::InferenceResult>> futures;
        futures.reserve(shard_images.size());
        for (const tensor::Tensor& image : shard_images)
            futures.push_back(server.submit(image));
        for (auto& f : futures) f.get();
        const double wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
        server.shutdown();
        const serve::FleetStats fleet = server.fleet_stats();
        return std::make_pair(fleet, wall_s);
    };

    std::printf("sharding: resnet20-mini, %d requests, %d devices — replicated "
                "(4 full copies) vs pipelined (one 4-shard group)\n\n",
                shard_requests, shard_devices);
    const auto [replicated, replicated_wall] = run_layout(/*num_shards=*/1, shard_devices);
    const auto [pipelined, pipelined_wall] = run_layout(shard_devices, /*workers=*/2);

    common::Table shard_table(
        {"layout", "sim inf/s", "wall inf/s", "bottleneck busy [Mcyc]"});
    const auto busiest_mcyc = [](const serve::FleetStats& fleet) {
        std::uint64_t busiest = 0;
        for (const auto& d : fleet.devices) busiest = std::max(busiest, d.busy_cycles);
        return 1e-6 * static_cast<double>(busiest);
    };
    shard_table.add_row({"replicated x4",
                         common::Table::fmt(replicated.sim_throughput_ips(), 0),
                         common::Table::fmt(shard_requests / replicated_wall, 0),
                         common::Table::fmt(busiest_mcyc(replicated), 2)});
    shard_table.add_row({"pipelined 4 shards",
                         common::Table::fmt(pipelined.sim_throughput_ips(), 0),
                         common::Table::fmt(shard_requests / pipelined_wall, 0),
                         common::Table::fmt(busiest_mcyc(pipelined), 2)});
    std::printf("%s\n", shard_table.to_string().c_str());
    for (const auto& d : pipelined.devices)
        std::printf("  shard %d: %llu cycles/inference-pass, clk %.1f ps\n", d.device_id,
                    static_cast<unsigned long long>(
                        d.requests ? d.busy_cycles / d.requests : 0),
                    d.clock_period_ps);

    const double shard_ratio =
        replicated.sim_throughput_ips() > 0.0
            ? pipelined.sim_throughput_ips() / replicated.sim_throughput_ips()
            : 0.0;
    std::printf("pipelined / replicated simulated throughput: %.3f  [gate: >= 0.8]\n",
                shard_ratio);
    shard_pass = shard_ratio >= 0.8;
    std::printf("sharding gate: %s\n\n", shard_pass ? "PASS" : "FAIL");
    }

    // --------------------------------------------------- recut scenario
    if (run_recut) {
        // The aged shard's clock: find the ΔVth whose aged delay on the
        // minimum-norm (uncompressed) deployment is ~2× the fresh one,
        // then admit it with a guardband so compression selection keeps
        // the SAME compression on both shards — the pipeline stays
        // bit-identical to a fresh single device while one stage's clock
        // halves its speed.
        const common::Compression none{};
        const double fresh_delay = selector.delay_ps(0.0, none);
        const double dvth_aged = aged_dvth_for_ratio(selector, 2.0);
        const double aged_years = aging_model.years_for_dvth(dvth_aged);
        const double guardband = 1.2;  // admits the 2x aged clock uncompressed

        const int warmup_n = std::max(48, std::min(requests, 96));
        const int measure_n = std::max(64, requests);
        std::vector<tensor::Tensor> warmup, measure;
        warmup.reserve(static_cast<std::size_t>(warmup_n));
        measure.reserve(static_cast<std::size_t>(measure_n));
        for (int i = 0; i < warmup_n; ++i)
            warmup.push_back(
                bench.cache.dataset().test_batch(i % benchutil::kTestSamples, 1));
        for (int i = 0; i < measure_n; ++i)
            measure.push_back(
                bench.cache.dataset().test_batch(i % benchutil::kTestSamples, 1));

        // Single-device reference at the shared compression (the
        // selection both shards make under the guardband).
        const auto ref_choice = selector.select(0.0, guardband);
        const quant::QuantizedGraph reference = quant::quantize_graph(
            graph, quant::Method::M5_AciqNoBias,
            quant::QuantConfig::from_compression(ref_choice->compression), calib);

        std::printf("recut: %s, 2-shard pipeline, stage-1 device aged to ΔVth %.1f mV\n"
                    "(aged clock %.0f ps vs fresh %.0f ps), %d warm-up + %d measured "
                    "requests\n\n",
                    model.c_str(), dvth_aged, selector.delay_ps(dvth_aged, none),
                    fresh_delay, warmup_n, measure_n);

        const RecutReport stale = run_recut_pass(ctx, warmup, measure, reference,
                                                 /*repartition=*/false, aged_years,
                                                 guardband);
        const RecutReport recut = run_recut_pass(ctx, warmup, measure, reference,
                                                 /*repartition=*/true, aged_years,
                                                 guardband);

        common::Table recut_table({"partition", "sim inf/s", "partition gen", "re-cuts",
                                   "shard cycles (s0/s1)", "bit-identical"});
        const auto cycles_str = [](const RecutReport& r) {
            std::string out;
            for (std::size_t k = 0; k < r.shard_cycles.size(); ++k)
                out += (k ? "/" : "") + std::to_string(r.shard_cycles[k]);
            return out;
        };
        recut_table.add_row({"stale static", common::Table::fmt(stale.throughput_ips, 0),
                             std::to_string(stale.partition_generation),
                             std::to_string(stale.recuts), cycles_str(stale),
                             stale.bit_identical ? "yes" : "NO"});
        recut_table.add_row({"online re-cut", common::Table::fmt(recut.throughput_ips, 0),
                             std::to_string(recut.partition_generation),
                             std::to_string(recut.recuts), cycles_str(recut),
                             recut.bit_identical ? "yes" : "NO"});
        std::printf("%s\n", recut_table.to_string().c_str());

        const double recovery = stale.throughput_ips > 0.0
                                    ? recut.throughput_ips / stale.throughput_ips
                                    : 0.0;
        std::printf("aged / fresh shard clock: %.2f  [gate: >= 1.25]\n",
                    recut.clock_ratio);
        std::printf("re-cut / stale simulated throughput: %.3f  [gate: >= 1.15]\n",
                    recovery);
        std::printf("online re-cuts: %llu (triggers %llu), partition ids monotonic: %s,"
                    " outputs bit-identical: %s\n",
                    static_cast<unsigned long long>(recut.recuts),
                    static_cast<unsigned long long>(recut.triggers),
                    recut.partitions_monotonic ? "yes" : "NO",
                    (stale.bit_identical && recut.bit_identical) ? "yes" : "NO");
        recut_pass = recut.clock_ratio >= 1.25 && recovery >= 1.15 &&
                     recut.recuts >= 1 && stale.recuts == 0 && stale.bit_identical &&
                     recut.bit_identical && recut.partitions_monotonic;
        std::printf("recut gate: %s\n", recut_pass ? "PASS" : "FAIL");
    }

    // -------------------------------------------- obs-overhead scenario
    if (run_obs) {
        const double dvth_aged = aged_dvth_for_ratio(selector, 2.0);
        const double aged_years = aging_model.years_for_dvth(dvth_aged);
        const double guardband = 1.2;

        const int warmup_n = std::max(48, std::min(requests, 96));
        const int measure_n = std::max(128, requests);
        std::vector<tensor::Tensor> warmup, measure;
        warmup.reserve(static_cast<std::size_t>(warmup_n));
        measure.reserve(static_cast<std::size_t>(measure_n));
        for (int i = 0; i < warmup_n; ++i)
            warmup.push_back(
                bench.cache.dataset().test_batch(i % benchutil::kTestSamples, 1));
        for (int i = 0; i < measure_n; ++i)
            measure.push_back(
                bench.cache.dataset().test_batch(i % benchutil::kTestSamples, 1));

        // Scale aging so the pass crosses the requant threshold: target
        // ~8 mV of fresh-silicon ΔVth growth over the whole stream (a
        // shard sees about half the full-model busy time, leaving the
        // fresh stage 2-3 crossings at 2.5 mV).
        double acceleration = 0.0;
        {
            serve::ServeConfig probe_cfg;
            serve::NpuServer probe(ctx, probe_cfg);
            const double busy_hours_per_request =
                static_cast<double>(probe.device(0).per_image_cycles()) *
                probe.device(0).clock_period_ps() * 1e-12 / 3600.0;
            probe.shutdown();
            acceleration = aging_model.years_for_dvth(8.0) * 8760.0 /
                           ((warmup_n + measure_n) * busy_hours_per_request);
        }

        std::printf("obs-overhead: %s, 2-shard pipeline (stage 1 aged to ΔVth %.1f mV),\n"
                    "online re-cut + background requant, %d warm-up + %d measured "
                    "requests,\ntelemetry off vs metrics + 1%% trace sampling\n\n",
                    model.c_str(), dvth_aged, warmup_n, measure_n);

        const ObsReport base = run_obs_pass(ctx, warmup, measure, /*telemetry=*/false,
                                            aged_years, guardband, acceleration);
        const ObsReport inst = run_obs_pass(ctx, warmup, measure, /*telemetry=*/true,
                                            aged_years, guardband, acceleration);

        common::Table obs_table(
            {"telemetry", "sim inf/s", "wall inf/s", "re-cuts", "requants", "traces"});
        obs_table.add_row({"off", common::Table::fmt(base.sim_ips, 0),
                           common::Table::fmt(measure_n / base.wall_s, 0),
                           std::to_string(base.recuts), std::to_string(base.requants),
                           "-"});
        obs_table.add_row({"metrics + 1% traces", common::Table::fmt(inst.sim_ips, 0),
                           common::Table::fmt(measure_n / inst.wall_s, 0),
                           std::to_string(inst.recuts), std::to_string(inst.requants),
                           std::to_string(inst.traces_started)});
        std::printf("%s\n", obs_table.to_string().c_str());

        if (!inst.timeline_text.empty())
            std::printf("reliability timeline (instrumented pass):\n%s\n",
                        inst.timeline_text.c_str());
        if (inst.trace_ok)
            std::printf("sampled full-journey trace:\n  %s\n\n", inst.trace_line.c_str());

        const double ratio = base.sim_ips > 0.0 ? inst.sim_ips / base.sim_ips : 0.0;
        std::printf("instrumented / baseline simulated throughput: %.3f  "
                    "[gate: >= 0.97]\n", ratio);
        std::printf("scrape shows live queue/busy/ΔVth/requant/re-cut series: %s  "
                    "[gate: yes]\n", inst.series_ok ? "yes" : "NO");
        std::printf("sampled trace spans queue→batch→handoff→execute(x2)→complete: %s  "
                    "[gate: yes]\n", inst.trace_ok ? "yes" : "NO");
        obs_pass = ratio >= 0.97 && inst.series_ok && inst.trace_ok &&
                   inst.recuts >= 1 && inst.requants >= 1;
        std::printf("obs-overhead gate: %s\n", obs_pass ? "PASS" : "FAIL");
    }

    // ---------------------------------------------------- net scenario
    if (run_net) {
        const int kConns = 8;
        const int net_requests = std::max(128, requests);

        // The wire-ready sample set: each carries both the u8 payload and
        // the reconstructed reference tensor, so the in-process baseline
        // serves EXACTLY what the socket path will (same dequant output).
        std::vector<net::EncodedSample> samples;
        samples.reserve(32);
        for (int i = 0; i < 32; ++i)
            samples.push_back(net::encode_sample(
                bench.cache.dataset().test_batch(i % benchutil::kTestSamples, 1), 1));

        // Bit-identity reference: the graph a fresh device deploys.
        const auto net_choice = selector.select(0.0);
        const quant::QuantizedGraph net_reference = quant::quantize_graph(
            graph, quant::Method::M5_AciqNoBias,
            quant::QuantConfig::from_compression(net_choice->compression), calib);

        serve::ServeConfig cfg;
        cfg.num_devices = 2;
        cfg.num_workers = 2;
        cfg.max_batch = 8;

        std::printf("net: %s, %d closed-loop requests x %d concurrent clients,\n"
                    "in-process submit() vs localhost TCP through the epoll front-end\n\n",
                    model.c_str(), net_requests, kConns);

        // Pass 1 — in-process closed loop: kConns submitter threads, one
        // outstanding request each, straight into NpuServer::submit.
        double base_qps = 0.0, base_p50 = 0.0, base_p99 = 0.0;
        {
            serve::NpuServer server(ctx, cfg);
            std::vector<double> latency_ms;
            latency_ms.reserve(static_cast<std::size_t>(net_requests));
            std::mutex lat_mutex;
            const auto t0 = Clock::now();
            std::vector<std::thread> clients;
            clients.reserve(kConns);
            for (int c = 0; c < kConns; ++c)
                clients.emplace_back([&, c] {
                    const int quota = net_requests / kConns +
                                      (c < net_requests % kConns ? 1 : 0);
                    for (int i = 0; i < quota; ++i) {
                        const net::EncodedSample& sample =
                            samples[static_cast<std::size_t>(c + i * kConns) %
                                    samples.size()];
                        const auto s0 = Clock::now();
                        (void)server.submit(sample.reference).get();
                        const double ms = std::chrono::duration<double, std::milli>(
                                              Clock::now() - s0)
                                              .count();
                        const std::lock_guard<std::mutex> lock(lat_mutex);
                        latency_ms.push_back(ms);
                    }
                });
            for (std::thread& t : clients) t.join();
            const double wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
            server.shutdown();
            std::sort(latency_ms.begin(), latency_ms.end());
            base_qps = net_requests / wall_s;
            base_p50 = common::quantile_sorted(latency_ms, 0.50);
            base_p99 = common::quantile_sorted(latency_ms, 0.99);
        }

        // Pass 2 — the same closed-loop stream over localhost TCP.
        double sock_qps = 0.0, sock_p50 = 0.0, sock_p99 = 0.0;
        bool sock_lossless = false;
        {
            serve::NpuServer server(ctx, cfg);
            net::NetConfig ncfg;
            ncfg.num_loops = 2;
            net::Server front(server, ncfg);
            net::LoadGenConfig lcfg;
            lcfg.port = front.port();
            lcfg.connections = kConns;
            lcfg.model = net::TrafficModel::ClosedLoop;
            lcfg.total_requests = static_cast<std::uint64_t>(net_requests);
            const net::LoadReport report = net::run_load(lcfg, samples);
            front.stop();
            server.shutdown();
            sock_qps = report.qps();
            sock_p50 = report.p50_ms;
            sock_p99 = report.p99_ms;
            sock_lossless = report.lossless() &&
                            report.ok == static_cast<std::uint64_t>(net_requests);
        }

        common::Table net_table({"path", "qps", "p50 [ms]", "p99 [ms]"});
        net_table.add_row({"in-process", common::Table::fmt(base_qps, 0),
                           common::Table::fmt(base_p50, 3),
                           common::Table::fmt(base_p99, 3)});
        net_table.add_row({"socket", common::Table::fmt(sock_qps, 0),
                           common::Table::fmt(sock_p50, 3),
                           common::Table::fmt(sock_p99, 3)});
        std::printf("%s\n", net_table.to_string().c_str());

        // Pass 3 — overload: an open-loop Poisson stream at ~2× the
        // socket capacity against a deliberately small admission queue.
        // Offered load is a property of the trace, so the excess MUST
        // surface as BUSY sheds — never as lost requests.
        serve::ServeConfig small = cfg;
        small.queue_capacity = 32;
        serve::NpuServer server(ctx, small);
        net::NetConfig ncfg;
        ncfg.num_loops = 2;
        net::Server front(server, ncfg);
        net::LoadGenConfig over;
        over.port = front.port();
        over.connections = kConns;
        over.model = net::TrafficModel::Poisson;
        over.rate_rps = std::max(200.0, 2.0 * sock_qps);
        over.duration_s = 2.0;
        over.capture = true;
        const net::LoadReport storm = net::run_load(over, samples);
        front.stop();
        server.shutdown();

        // Every accepted (OK) response must match serial in-process
        // execution of the same reconstructed tensor bit for bit.
        bool identical = true;
        std::size_t checked = 0;
        for (const net::CapturedResult& cap : storm.captured) {
            if (checked >= 64) break;  // spot-check a bounded prefix
            ++checked;
            const tensor::Tensor serial =
                quant::run_quantized(net_reference, samples[cap.sample_index].reference);
            if (cap.logits.size() != serial.size()) identical = false;
            for (std::size_t k = 0; identical && k < serial.size(); ++k)
                if (cap.logits[k] != serial[k]) identical = false;
        }

        std::printf("overload: %s\n", storm.to_string().c_str());
        const double qps_ratio = base_qps > 0.0 ? sock_qps / base_qps : 0.0;
        const double p99_ratio = base_p99 > 0.0 ? sock_p99 / base_p99 : 0.0;
        std::printf("socket / in-process qps: %.3f  [gate: >= 0.7]\n", qps_ratio);
        std::printf("socket / in-process p99: %.3f  [gate: <= 2.0]\n", p99_ratio);
        std::printf("overload sheds BUSY: %llu, lossless: %s, accepted bit-identical:"
                    " %s (%zu checked)  [gates: > 0 / yes / yes]\n",
                    static_cast<unsigned long long>(storm.busy),
                    storm.lossless() ? "yes" : "NO", identical ? "yes" : "NO", checked);
        net_pass = sock_lossless && qps_ratio >= 0.7 && p99_ratio <= 2.0 &&
                   storm.busy > 0 && storm.lossless() && storm.errors == 0 &&
                   identical && checked > 0;
        std::printf("net gate: %s\n", net_pass ? "PASS" : "FAIL");
    }

    // ---------------------------------------------------- slo scenario
    if (run_slo) {
        const int kConns = 8;

        std::vector<net::EncodedSample> samples;
        samples.reserve(32);
        for (int i = 0; i < 32; ++i)
            samples.push_back(net::encode_sample(
                bench.cache.dataset().test_batch(i % benchutil::kTestSamples, 1), 1));

        // The reliability workload: a 2-shard pipeline whose stage-1
        // device enters the field aged to ~1.8x the fresh clock. That
        // imbalance trips the re-cut trigger (1.8 >= 1.4) but stays under
        // the planner's urgent bound (1.5 x 1.4 = 2.1), so placing the
        // re-cut is the planner's call. Guardband 1.2 keeps both shards
        // on the same compression choice across the aging spread.
        const double dvth_aged = aged_dvth_for_ratio(selector, 1.8);
        const double aged_years = aging_model.years_for_dvth(dvth_aged);

        const auto make_config = [&](bool planner_on, double acceleration) {
            serve::ServeConfig cfg;
            cfg.num_devices = 2;
            cfg.num_workers = 2;
            cfg.max_batch = 8;
            cfg.num_shards = 2;
            cfg.initial_age_step_years = aged_years;
            cfg.device.guardband_fraction = 1.2;
            cfg.device.requant_threshold_mv = 2.5;
            cfg.device.age_acceleration = acceleration;
            cfg.background_requant = true;
            cfg.repartition.enabled = true;
            cfg.repartition.imbalance_ratio = 1.4;
            cfg.repartition.min_batches = 4;
            cfg.repartition.poll_ms = 1;
            cfg.telemetry.metrics = true;
            cfg.planner.enabled = planner_on;
            return cfg;
        };

        // Socket capacity probe on the same (non-aging) topology sizes
        // the offered load so both timed passes run below saturation. It
        // takes the median of five 96-request probes, so one outlying
        // probe cannot set the load.
        double capacity_qps = 0.0;
        {
            serve::NpuServer server(ctx, make_config(false, 0.0));
            net::NetConfig ncfg;
            ncfg.num_loops = 2;
            net::Server front(server, ncfg);
            net::LoadGenConfig probe;
            probe.port = front.port();
            probe.connections = kConns;
            probe.model = net::TrafficModel::ClosedLoop;
            probe.total_requests = 96;
            std::vector<double> probe_qps;
            for (int i = 0; i < 5; ++i) probe_qps.push_back(net::run_load(probe, samples).qps());
            front.stop();
            server.shutdown();
            capacity_qps = common::quantile(probe_qps, 0.5);
        }
        const double rate_high = std::max(80.0, 0.7 * capacity_qps);
        const double rate_low = std::max(10.0, 0.02 * capacity_qps);
        const double dur_high = 2.5, dur_low = 3.0;

        // Scale aging so the requant crossing lands inside the high
        // phase: ~7 mV of full-model fresh ΔVth growth over the expected
        // stream. A shard sees about half that busy time, so the 2.5 mV
        // per-shard crossing arrives ~70% of the way through — deep in
        // the high phase — while the gap peaks near 1.4x threshold,
        // inside the planner's 1.6x deferral headroom. The build must
        // therefore wait for the predicted low window.
        double acceleration = 0.0;
        {
            serve::ServeConfig probe_cfg;
            serve::NpuServer probe(ctx, probe_cfg);
            const double busy_hours_per_request =
                static_cast<double>(probe.device(0).per_image_cycles()) *
                probe.device(0).clock_period_ps() * 1e-12 / 3600.0;
            probe.shutdown();
            const double expected_requests =
                rate_high * dur_high + rate_low * dur_low + 64.0;
            acceleration = aging_model.years_for_dvth(7.0) * 8760.0 /
                           (expected_requests * busy_hours_per_request);
        }

        std::printf("slo: %s, 2-shard pipeline (stage 1 aged to ΔVth %.1f mV),\n"
                    "phased Poisson over TCP: %.0f rps x %.1fs high, %.0f rps x %.1fs "
                    "low (capacity %.0f qps),\nsingle-FIFO reactive baseline vs "
                    "class-aware scheduler + reliability planner\n\n",
                    model.c_str(), dvth_aged, rate_high, dur_high, rate_low, dur_low,
                    capacity_qps);

        struct SloPass {
            net::LoadReport high, low;
            bool lossless = true;
            int requants = 0;
            std::uint64_t recuts = 0;
            std::uint64_t ev_predicted = 0, ev_scheduled = 0, ev_deferred = 0,
                          ev_recut = 0;
            bool scheduled_in_low_window = false;
            bool identical = true;
            std::size_t checked = 0;
            serve::SchedulerStats sched;
            std::string timeline_text;
        };

        const auto run_slo_pass = [&](bool planner_on, double frac,
                                      std::uint64_t seed) {
            SloPass out;
            serve::NpuServer server(ctx, make_config(planner_on, acceleration));
            net::NetConfig ncfg;
            ncfg.num_loops = 2;
            net::Server front(server, ncfg);

            net::LoadGenConfig phase;
            phase.port = front.port();
            phase.connections = kConns;
            phase.model = net::TrafficModel::Poisson;
            phase.interactive_frac = frac;
            phase.rate_rps = rate_high;
            phase.duration_s = dur_high;
            phase.seed = seed;
            out.high = net::run_load(phase, samples);

            phase.rate_rps = rate_low;
            phase.duration_s = dur_low;
            phase.seed = seed ^ 0x10ULL;
            out.low = net::run_load(phase, samples);

            // Quiesced bit-identity pass: closed-loop captures over the
            // socket, then the SAME live fleet serves the same tensors
            // in-process. Builds and re-cuts have landed by now and the
            // residual ΔVth gap is far from the threshold, so the model
            // generation is stable and the two paths must agree bit for
            // bit.
            net::LoadGenConfig idc;
            idc.port = front.port();
            idc.connections = 4;
            idc.model = net::TrafficModel::ClosedLoop;
            idc.total_requests = 32;
            idc.interactive_frac = frac;
            idc.capture = true;
            idc.seed = seed ^ 0x1DULL;
            const net::LoadReport id_report = net::run_load(idc, samples);
            for (const net::CapturedResult& cap : id_report.captured) {
                ++out.checked;
                const serve::InferenceResult ref =
                    server.submit(samples[cap.sample_index].reference).get();
                if (cap.logits.size() != ref.logits.size()) out.identical = false;
                for (std::size_t k = 0; out.identical && k < ref.logits.size(); ++k)
                    if (cap.logits[k] != ref.logits[k]) out.identical = false;
            }

            out.lossless = out.high.lossless() && out.low.lossless() &&
                           id_report.lossless() && out.high.errors == 0 &&
                           out.low.errors == 0 && id_report.errors == 0 &&
                           id_report.ok == idc.total_requests;
            out.sched = server.scheduler().stats();
            if (server.telemetry()) {
                const obs::EventTimeline& tl = server.telemetry()->timeline();
                out.ev_predicted = tl.count(obs::EventKind::WindowPredicted);
                out.ev_scheduled = tl.count(obs::EventKind::BuildScheduled);
                out.ev_deferred = tl.count(obs::EventKind::BuildDeferred);
                out.ev_recut = tl.count(obs::EventKind::Recut);
                // The planner's core promise, asserted off the timeline:
                // some build was scheduled into a low window AT OR AFTER
                // the first predicted low-window entry.
                std::int64_t first_low = -1;
                const std::vector<obs::ReliabilityEvent> events = tl.snapshot();
                for (const obs::ReliabilityEvent& ev : events)
                    if (ev.kind == obs::EventKind::WindowPredicted &&
                        (first_low < 0 || ev.t_us < first_low))
                        first_low = ev.t_us;
                for (const obs::ReliabilityEvent& ev : events)
                    if (ev.kind == obs::EventKind::BuildScheduled && first_low >= 0 &&
                        ev.t_us >= first_low &&
                        ev.detail.find("low window") != std::string::npos)
                        out.scheduled_in_low_window = true;
                out.timeline_text = server.export_timeline();
            }
            front.stop();
            server.shutdown();
            const auto& group = server.shard_group(0);
            out.recuts = group.repartition_stats().recuts;
            for (int k = 0; k < group.num_shards(); ++k)
                out.requants += group.shard(k).requant_count();
            return out;
        };

        const SloPass base = run_slo_pass(/*planner_on=*/false, /*frac=*/1.0,
                                          0x510ABULL);
        const SloPass mixed = run_slo_pass(/*planner_on=*/true, /*frac=*/0.5,
                                           0x510BBULL);

        common::Table slo_table({"pass", "phase", "ok", "qps", "interactive p99 [ms]",
                                 "batch p99 [ms]"});
        const auto add_phase = [&](const char* pass, const char* name,
                                   const net::LoadReport& r) {
            slo_table.add_row({pass, name, std::to_string(r.ok),
                               common::Table::fmt(r.qps(), 0),
                               common::Table::fmt(r.interactive_p99_ms, 3),
                               r.ok_batch > 0 ? common::Table::fmt(r.batch_p99_ms, 3)
                                              : "-"});
        };
        add_phase("single-FIFO", "high", base.high);
        add_phase("single-FIFO", "low", base.low);
        add_phase("scheduler+planner", "high", mixed.high);
        add_phase("scheduler+planner", "low", mixed.low);
        std::printf("%s\n", slo_table.to_string().c_str());

        if (!mixed.timeline_text.empty())
            std::printf("reliability timeline (scheduler+planner pass):\n%s\n",
                        mixed.timeline_text.c_str());

        const serve::ServeConfig defaults;
        const double slo_ms = std::max(
            static_cast<double>(defaults.scheduler.interactive_target_us) / 1000.0,
            3.0 * base.high.p99_ms);
        const double base_qps =
            static_cast<double>(base.high.ok + base.low.ok) /
            std::max(1e-9, base.high.wall_s + base.low.wall_s);
        const std::uint64_t mixed_batch_ok = mixed.high.ok_batch + mixed.low.ok_batch;
        const std::uint64_t mixed_ok = mixed.high.ok + mixed.low.ok;
        const double mixed_batch_qps =
            static_cast<double>(mixed_batch_ok) /
            std::max(1e-9, mixed.high.wall_s + mixed.low.wall_s);
        const double batch_share =
            mixed_ok > 0 ? static_cast<double>(mixed_batch_ok) /
                               static_cast<double>(mixed_ok)
                         : 0.0;
        const double batch_floor = 0.85 * base_qps * batch_share;

        std::printf("interactive p99 under load (mixed): %.3f ms  [gate: <= %.3f ms]\n",
                    mixed.high.interactive_p99_ms, slo_ms);
        std::printf("batch qps (mixed): %.0f  [gate: >= %.0f = 85%% of pro-rata "
                    "single-FIFO %.0f]\n",
                    mixed_batch_qps, batch_floor, base_qps);
        std::printf("planner: windows predicted %llu, builds scheduled %llu "
                    "(in low window after prediction: %s), deferred %llu, re-cuts "
                    "%llu  [gates: >=1 / >=1 / yes / >=1 / >=1]\n",
                    static_cast<unsigned long long>(mixed.ev_predicted),
                    static_cast<unsigned long long>(mixed.ev_scheduled),
                    mixed.scheduled_in_low_window ? "yes" : "NO",
                    static_cast<unsigned long long>(mixed.ev_deferred),
                    static_cast<unsigned long long>(mixed.ev_recut));
        std::printf("requants %d/%d, re-cuts %llu/%llu (baseline/mixed), "
                    "batch lane admitted %llu, starvation grants %llu\n",
                    base.requants, mixed.requants,
                    static_cast<unsigned long long>(base.recuts),
                    static_cast<unsigned long long>(mixed.recuts),
                    static_cast<unsigned long long>(mixed.sched.admitted[1]),
                    static_cast<unsigned long long>(mixed.sched.starvation_grants));
        std::printf("lossless: %s, accepted bit-identical to in-process: %s "
                    "(%zu + %zu checked)  [gates: yes / yes]\n",
                    (base.lossless && mixed.lossless) ? "yes" : "NO",
                    (base.identical && mixed.identical) ? "yes" : "NO", base.checked,
                    mixed.checked);

        slo_pass = base.lossless && mixed.lossless &&
                   mixed.high.interactive_p99_ms > 0.0 &&
                   mixed.high.interactive_p99_ms <= slo_ms &&
                   mixed_batch_qps >= batch_floor && mixed.ev_predicted >= 1 &&
                   mixed.ev_scheduled >= 1 && mixed.ev_deferred >= 1 &&
                   mixed.scheduled_in_low_window && mixed.ev_recut >= 1 &&
                   base.requants >= 1 && mixed.requants >= 1 && base.recuts >= 1 &&
                   mixed.recuts >= 1 && mixed.sched.admitted[1] > 0 &&
                   base.identical && mixed.identical && base.checked > 0 &&
                   mixed.checked > 0;
        std::printf("slo gate: %s\n", slo_pass ? "PASS" : "FAIL");
    }

    return (stall_pass && shard_pass && recut_pass && obs_pass && net_pass && slo_pass)
               ? 0
               : 1;
} catch (const std::exception& e) {
    std::fprintf(stderr, "serve_throughput: %s\n", e.what());
    return 1;
}
