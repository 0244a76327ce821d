// `lifetime`: the paper's Algorithm 1 itself. Serial full-Algorithm-1
// core::RequantJob::build calls (aged-STA compression selection, then
// the M1–M5 PTQ search on the 500-image eval set) over three networks
// of different families, each at two points of the 10-year ΔVth
// trajectory. It loads core, quant and exec at batch 100 and bypasses
// serve and net.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "core/requant_job.hpp"
#include "exec/plan_cache.hpp"
#include "npu/systolic.hpp"
#include "quant/evaluate.hpp"
#include "quant/methods.hpp"
#include "quant/quant_executor.hpp"
#include "workloads.hpp"

namespace raq::perfbench {

namespace {

constexpr const char* kNetworks[] = {"alexnet-mini", "resnet50-mini", "squeezenet1.1-mini"};
/// Field ages of the states built: mid-life and end of life.
constexpr double kFieldYears[] = {3.0, 10.0};
constexpr int kLevelBatch = 100;  ///< Algorithm 1 evaluates at batch 100

struct Rig {
    explicit Rig(Tracer& tracer) : fixture(model_dir(), tracer) {
        core::RequantJobConfig config;
        config.full_algorithm1 = true;
        for (const char* name : kNetworks) {
            models.push_back(std::make_unique<LoadedModel>(fixture, name, tracer));
            const ScopedSpan span(tracer, "core.fp32_ref");
            jobs.push_back(std::make_unique<core::RequantJob>(
                models.back()->graph, models.back()->calib, *fixture.selector, config,
                &fixture.eval_images, &fixture.eval_labels));
        }
    }

    Fixture fixture;
    std::vector<std::unique_ptr<LoadedModel>> models;
    std::vector<std::unique_ptr<core::RequantJob>> jobs;
};

struct State {
    std::size_t network = 0;
    double dvth_mv = 0.0;
};

/// The traced run's step-by-step replay of one build through the
/// public entry points Algorithm 1 is made of.
struct Steps {
    std::uint32_t state = 0;
    double select_us = 0.0;
    double quantize_ms = 0.0;
    double eval_ms = 0.0;
    double eval_macs = 0.0;
    quant::Method best = quant::Method::M5_AciqNoBias;
    double best_accuracy = 0.0;
};

double span_ms(std::int64_t t0) { return 1e-6 * static_cast<double>(now_ns() - t0); }

Steps replay_steps(const Rig& rig, const State& state, Tracer& tracer, int parent) {
    const LoadedModel& model = *rig.models[state.network];
    Steps steps;
    std::int64_t t0 = now_ns();
    int id = tracer.open("core.select", parent);
    const auto choice = rig.fixture.selector->select(state.dvth_mv);
    tracer.close(id);
    steps.select_us = 1e3 * span_ms(t0);
    if (!choice) return steps;
    const quant::QuantConfig config = quant::QuantConfig::from_compression(choice->compression);

    std::unique_ptr<quant::QuantRunner> runner;
    bool have_best = false;
    for (const quant::Method method : quant::all_methods()) {
        t0 = now_ns();
        id = tracer.open("quant.quantize", parent);
        auto qgraph = std::make_shared<const quant::QuantizedGraph>(
            quant::quantize_graph(model.graph, method, config, model.calib));
        tracer.close(id);
        steps.quantize_ms += span_ms(t0);

        t0 = now_ns();
        id = tracer.open("quant.eval", parent);
        if (!runner)
            runner = std::make_unique<quant::QuantRunner>(std::move(qgraph), kLevelBatch);
        else
            runner->rebind(std::move(qgraph));
        const double accuracy = quant::quantized_accuracy(*runner, rig.fixture.eval_images,
                                                          rig.fixture.eval_labels);
        tracer.close(id);
        steps.eval_ms += span_ms(t0);
        steps.eval_macs +=
            static_cast<double>(model.graph.macs_per_sample()) * kEvalSamples;
        if (!have_best || accuracy > steps.best_accuracy) {
            steps.best = method;
            steps.best_accuracy = accuracy;
            have_best = true;
        }
    }
    // Algorithm 1's last step: quantize with the selected method.
    t0 = now_ns();
    id = tracer.open("quant.quantize", parent);
    (void)quant::quantize_graph(model.graph, steps.best, config, model.calib);
    tracer.close(id);
    steps.quantize_ms += span_ms(t0);
    return steps;
}

bool same_deployment(const core::ModelState& a, const core::ModelState& b) {
    return a.compression.alpha == b.compression.alpha && a.compression.beta == b.compression.beta &&
           a.compression.padding == b.compression.padding && a.method == b.method &&
           a.aged_delay_ps == b.aged_delay_ps;
}

/// Builds of one timed pass group.
struct Builds {
    std::vector<double> ms;
    double elapsed_s = 0.0;
    double steal = 0.0;
    std::vector<Steps> steps;  ///< traced passes only
};

/// Whole passes over the states, each in a seeded order, until the
/// group has lasted `seconds` (a pass, once begun, completes).
Builds run_passes(const Rig& rig, const std::vector<State>& states, std::uint64_t seed,
                  double seconds, bool trace, Tracer& tracer,
                  std::vector<std::optional<core::ModelState>>& first, Report& report) {
    Builds builds;
    std::uint64_t generation = 1;
    const CpuTimes cpu0 = CpuTimes::now();
    const Clock::time_point start = Clock::now();
    for (std::uint64_t pass = 0; pass == 0 || seconds_between(start, Clock::now()) < seconds;
         ++pass) {
        for (const std::uint32_t s :
             permutation(static_cast<std::uint32_t>(states.size()), seed * 1000003u + pass)) {
            const State& state = states[s];
            ++report.attempted;
            const int id = trace ? tracer.open("core.build", -1, generation) : -1;
            const Clock::time_point t0 = Clock::now();
            std::optional<core::ModelState> built =
                rig.jobs[state.network]->build(state.dvth_mv, generation++);
            builds.ms.push_back(1e3 * seconds_between(t0, Clock::now()));
            tracer.close(id);
            if (!built) {
                ++report.failed;
                continue;
            }
            if (trace) {
                builds.steps.push_back(replay_steps(rig, state, tracer, id));
                builds.steps.back().state = s;
            }
            if (!first[s])
                first[s] = std::move(built);
            else if (!same_deployment(*first[s], *built))
                report.mismatch("two builds of one state deployed differently");
        }
    }
    builds.elapsed_s = seconds_between(start, Clock::now());
    builds.steal = steal_pct(cpu0, CpuTimes::now());
    return builds;
}

}  // namespace

void run_lifetime(const Options& options, Report& report) {
    Tracer tracer(options.trace);
    const auto rig = std::make_unique<Rig>(tracer);
    const double setup_s = seconds_between(options.process_start, Clock::now());
    if (options.setup_only) {
        report.add("setup_s", setup_s, "s");
        return;
    }

    std::vector<State> states;
    for (std::size_t n = 0; n < rig->models.size(); ++n)
        for (const double years : kFieldYears)
            states.push_back({n, rig->fixture.aging.dvth_mv(years)});
    std::vector<std::optional<core::ModelState>> first(states.size());

    const exec::PlanCacheStats plans_before = exec::PlanCache::global().stats();
    std::vector<Builds> groups;
    if (!options.trace) {
        groups.push_back(run_passes(*rig, states, options.seed, options.seconds, false, tracer,
                                    first, report));
    } else {
        groups.push_back(run_passes(*rig, states, options.seed, options.seconds / 2, false,
                                    tracer, first, report));
        groups.push_back(run_passes(*rig, states, options.seed + 1, options.seconds / 2, true,
                                    tracer, first, report));
    }
    const exec::PlanCacheStats plans_after = exec::PlanCache::global().stats();

    // ---- output checks (untimed) -----------------------------------
    // Each state must meet the fresh critical path at zero guardband
    // with the minimum-norm feasible compression, and its deployed graph
    // is re-evaluated on the eval set on its own runner.
    const core::CompressionSelector& selector = *rig->fixture.selector;
    std::vector<double> accuracy(states.size(), 0.0);
    double acc_sum = 0.0, loss_sum = 0.0, ips_sum = 0.0;
    for (std::size_t s = 0; s < states.size(); ++s) {
        if (!first[s]) {
            report.mismatch("state was never built");
            continue;
        }
        const core::ModelState& st = *first[s];
        const LoadedModel& model = *rig->models[states[s].network];
        if (!(st.aged_delay_ps <= selector.fresh_critical_path_ps()))
            report.mismatch(model.name + ": aged delay misses the fresh critical path");
        if (st.aged_delay_ps != selector.delay_ps(states[s].dvth_mv, st.compression))
            report.mismatch(model.name + ": aged delay differs from the STA delay");
        const auto choice = selector.select(states[s].dvth_mv);
        if (!choice || choice->compression.alpha != st.compression.alpha ||
            choice->compression.beta != st.compression.beta ||
            choice->compression.padding != st.compression.padding)
            report.mismatch(model.name + ": compression is not the minimum-norm feasible one");
        accuracy[s] = quant::quantized_accuracy(*st.qgraph, rig->fixture.eval_images,
                                                rig->fixture.eval_labels);
        acc_sum += accuracy[s];
        loss_sum += rig->jobs[states[s].network]->fp32_accuracy() - accuracy[s];
        ips_sum += npu::SystolicArrayModel().analyze(model.graph).inferences_per_second(
            st.aged_delay_ps);
    }
    const double n_states = static_cast<double>(states.size());

    if (!options.trace) {
        const Builds& b = groups.front();
        report.add("setup_s", setup_s, "s");
        report.add("ops_per_s", static_cast<double>(b.ms.size()) / b.elapsed_s, "1/s");
        report.add("p50_ms", median(b.ms), "ms");
        report.add("p90_ms", quantile(b.ms, 0.9), "ms");
        report.add("sim_ips", ips_sum / n_states, "1/s");
        report.add("acc_pct", 100.0 * acc_sum / n_states, "%");
        report.add("peak_rss_mb", peak_rss_mb(), "MiB");
        std::fprintf(stderr, "raqbench: lifetime: %zu builds in %.3f s, steal %.2f%%\n",
                     b.ms.size(), b.elapsed_s, b.steal);
        return;
    }

    // ---- per-layer metrics (traced run) ----------------------------
    const Builds& untraced = groups[0];
    const Builds& traced = groups[1];
    double select_us = 0.0, quantize_ms = 0.0, eval_ms = 0.0, eval_macs = 0.0;
    std::vector<double> select_samples;
    for (const Steps& st : traced.steps) {
        select_samples.push_back(st.select_us);
        quantize_ms += st.quantize_ms;
        eval_ms += st.eval_ms;
        eval_macs += st.eval_macs;
        select_us += st.select_us;
    }
    const double n_traced = std::max<double>(1.0, static_cast<double>(traced.steps.size()));
    double build_sum = 0.0;
    for (const double ms : traced.ms) build_sum += ms;
    const double step_ms = 1e-3 * select_us + quantize_ms + eval_ms;

    // The replayed search must agree with the build it shadows.
    for (const Steps& st : traced.steps) {
        const auto& built = first[st.state];
        if (built && (st.best != built->method || st.best_accuracy != accuracy[st.state]))
            report.mismatch("step-by-step Algorithm 1 disagrees with RequantJob::build");
    }

    report.add("data.synth_ms", tracer.total_ms("data.synth"), "ms");
    report.add("nn.load_ms", tracer.total_ms("nn.load"), "ms");
    report.add("quant.calibrate_ms", tracer.total_ms("quant.calibrate"), "ms");
    report.add("core.fp32_ref_ms", tracer.total_ms("core.fp32_ref"), "ms");
    report.add("core.build_ms", median(traced.ms), "ms");
    report.add("core.select_us", median(select_samples), "us");
    report.add("quant.quantize_ms", quantize_ms / n_traced, "ms");
    report.add("quant.eval_ms", eval_ms / n_traced, "ms");
    report.add("core.step_share_pct", build_sum > 0.0 ? 100.0 * step_ms / build_sum : 0.0, "%");
    report.add("core.acc_loss_pp", 100.0 * loss_sum / n_states, "pp");
    report.add("exec.b100_gmacs", eval_ms > 0.0 ? eval_macs / (eval_ms * 1e6) : 0.0, "GMAC/s");
    report.add("exec.plan_misses", static_cast<double>(plans_after.misses - plans_before.misses),
               "count");
    report.add("bench.steal_pct", std::max(untraced.steal, traced.steal), "%");
    const double p50_untraced = median(untraced.ms);
    report.add("bench.trace_overhead_pct",
               p50_untraced > 0.0 ? 100.0 * (median(traced.ms) - p50_untraced) / p50_untraced
                                  : 0.0,
               "%");

    std::vector<LevelRow> levels;
    const tensor::TensorView batch = rig->fixture.eval_images.batch_view(0, kLevelBatch);
    for (std::size_t s = 0; s < states.size(); ++s) {
        if (!first[s]) continue;
        char label[96];
        std::snprintf(label, sizeof(label), "%s@%.2fmV",
                      rig->models[states[s].network]->name.c_str(), states[s].dvth_mv);
        const std::vector<LevelRow> rows =
            profile_levels(label, *first[s]->qgraph, batch, 5, first[s]->aged_delay_ps);
        levels.insert(levels.end(), rows.begin(), rows.end());
    }
    tracer.write(options.artifact_dir + "/lifetime.spans.tsv");
    write_level_table(options.artifact_dir + "/lifetime.levels.tsv", levels);
}

}  // namespace raq::perfbench
