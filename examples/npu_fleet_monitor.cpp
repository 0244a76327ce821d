// Fleet monitor: live observability for a serving NPU fleet.
//
// Runs the worst-case fleet this repo models — a 2-shard pipeline whose
// stage-1 device entered the field aged hard, with accelerated aging,
// background re-quantization and online re-partitioning all active —
// with telemetry on, then renders what an operator would look at:
//
//   1. the reliability-event timeline (requant builds/swaps, re-cut
//      triggers, drain-and-swap re-cuts), one line per event
//   2. sampled per-request traces: the queue → batch → handoff →
//      execute(stage 0) → handoff → execute(stage 1) → complete journey
//      of deterministically sampled requests
//   3. a Prometheus-style metrics scrape (histogram buckets elided)
//   4. a per-level host-time profile of one quantized inference, via
//      QuantRunner's level timing hook
//
// Usage: npu_fleet_monitor [requests] [network]
#include <cstdio>
#include <cstdlib>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "aging/aging_model.hpp"
#include "cell/library.hpp"
#include "common/table.hpp"
#include "core/compression_selector.hpp"
#include "netlist/builders.hpp"
#include "nn/model_cache.hpp"
#include "quant/calibration.hpp"
#include "quant/methods.hpp"
#include "quant/quant_executor.hpp"
#include "serve/server.hpp"

int main(int argc, char** argv) try {
    using namespace raq;
    const int requests = argc > 1 ? std::atoi(argv[1]) : 320;
    const std::string model = argc > 2 ? argv[2] : "alexnet-mini";

    nn::ModelCache cache;
    auto& net = cache.get(model);
    auto graph = net.export_ir();
    const auto& ds = cache.dataset();
    const auto calib_images = ds.train_batch(0, 64);
    const std::vector<int> calib_labels(ds.train_labels().begin(),
                                        ds.train_labels().begin() + 64);
    const auto calib = quant::calibrate(graph, calib_images, calib_labels);

    const netlist::Netlist mac = netlist::build_mac_circuit();
    const cell::Library fresh = cell::Library::finfet14();
    const core::CompressionSelector selector(mac, fresh);
    const aging::AgingModel aging_model;

    serve::ServeContext ctx;
    ctx.graph = &graph;
    ctx.calib = &calib;
    ctx.selector = &selector;
    ctx.aging = &aging_model;

    // Stage 1 enters the field aged to a ~2x clock: find the ΔVth whose
    // uncompressed aged delay doubles the fresh critical path.
    const common::Compression none{};
    const double fresh_delay = selector.delay_ps(0.0, none);
    double dvth_aged = 0.0;
    {
        double lo = 0.0, hi = 300.0;
        while (selector.delay_ps(hi, none) < 2.0 * fresh_delay) hi += 50.0;
        for (int i = 0; i < 100; ++i) {
            const double mid = 0.5 * (lo + hi);
            (selector.delay_ps(mid, none) < 2.0 * fresh_delay ? lo : hi) = mid;
        }
        dvth_aged = hi;
    }

    serve::ServeConfig cfg;
    cfg.num_devices = 2;
    cfg.num_workers = 2;
    cfg.max_batch = 8;
    cfg.num_shards = 2;
    cfg.initial_age_step_years = aging_model.years_for_dvth(dvth_aged);
    cfg.device.guardband_fraction = 1.2;
    cfg.device.requant_threshold_mv = 2.5;
    cfg.background_requant = true;
    cfg.repartition.enabled = true;
    cfg.repartition.imbalance_ratio = 1.4;
    cfg.repartition.min_batches = 4;
    cfg.repartition.poll_ms = 1;
    // Telemetry on: metrics registry + 10% deterministic trace sampling.
    cfg.telemetry.metrics = true;
    cfg.telemetry.trace_sample_rate = 0.10;
    cfg.telemetry.trace_reservoir = 32;

    // Scale aging so this stream adds ~8 mV of fresh-silicon ΔVth —
    // several requant-threshold crossings while serving.
    {
        serve::ServeConfig probe_cfg;
        serve::NpuServer probe(ctx, probe_cfg);
        const double busy_hours_per_request =
            static_cast<double>(probe.device(0).per_image_cycles()) *
            probe.device(0).clock_period_ps() * 1e-12 / 3600.0;
        probe.shutdown();
        cfg.device.age_acceleration = aging_model.years_for_dvth(8.0) * 8760.0 /
                                      (requests * busy_hours_per_request);
    }

    std::printf("npu_fleet_monitor: %s, 2-shard pipeline, stage 1 aged to ΔVth "
                "%.1f mV (~2x clock),\nbackground requant + online re-cut + "
                "telemetry (10%% traces), %d requests\n\n",
                model.c_str(), dvth_aged, requests);

    serve::NpuServer server(ctx, cfg);
    std::vector<std::future<serve::InferenceResult>> futures;
    futures.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i)
        futures.push_back(server.submit(ds.test_batch(i % 200, 1)));
    for (auto& f : futures) f.get();

    // ---- 1. the reliability timeline: what happened to the fleet, when.
    std::printf("reliability timeline (steady-clock µs since server start):\n%s\n",
                server.export_timeline().c_str());

    // ---- 2. sampled request traces (deterministic: the same ids sample
    // on every run with this seed).
    std::printf("sampled request traces (%llu started, reservoir of %zu):\n%s\n",
                static_cast<unsigned long long>(server.telemetry()->traces().started()),
                server.telemetry()->traces().snapshot().size(),
                server.export_traces().c_str());

    // ---- 3. the metrics scrape, as a dashboard would pull it. Histogram
    // bucket series are elided here for brevity (the full exposition is
    // one export_metrics() away).
    {
        std::istringstream expo(server.export_metrics());
        std::string line;
        std::printf("metrics scrape (histogram buckets elided):\n");
        while (std::getline(expo, line))
            if (line.find("_bucket{") == std::string::npos)
                std::printf("  %s\n", line.c_str());
        std::printf("\n");
    }
    server.shutdown();

    // ---- 4. per-level host-time profile of one quantized inference: the
    // engine's level timing hook, fed by a standalone runner over the
    // same network at the aged shard's ΔVth.
    {
        const auto choice = selector.select(dvth_aged, cfg.device.guardband_fraction);
        const quant::QuantizedGraph qgraph = quant::quantize_graph(
            graph, quant::Method::M5_AciqNoBias,
            quant::QuantConfig::from_compression(choice->compression), calib);
        quant::QuantRunner runner(qgraph);
        std::vector<double> level_us;
        runner.set_level_hook([&](int level, double host_us) {
            if (level >= static_cast<int>(level_us.size()))
                level_us.resize(static_cast<std::size_t>(level) + 1, 0.0);
            level_us[static_cast<std::size_t>(level)] += host_us;
        });
        const tensor::Tensor image = ds.test_batch(0, 1);
        const int reps = 10;
        for (int r = 0; r < reps; ++r) (void)runner.run(image);
        double total = 0.0;
        for (const double us : level_us) total += us;
        std::printf("per-level host time, one inference at ΔVth %.1f mV "
                    "(avg of %d runs):\n", dvth_aged, reps);
        common::Table profile({"level", "host [us]", "share"});
        for (std::size_t l = 0; l < level_us.size(); ++l)
            profile.add_row({std::to_string(l),
                             common::Table::fmt(level_us[l] / reps, 1),
                             common::Table::pct(total > 0 ? level_us[l] / total : 0.0, 1)});
        std::printf("%s\n", profile.to_string().c_str());
    }
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "npu_fleet_monitor: %s\n", e.what());
    return 1;
}
