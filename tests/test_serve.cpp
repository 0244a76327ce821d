#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aging/aging_model.hpp"
#include "cell/library.hpp"
#include "core/compression_selector.hpp"
#include "data/synthetic_dataset.hpp"
#include "exec/kernels_simd.hpp"
#include "netlist/builders.hpp"
#include "nn/trainer.hpp"
#include "nn/zoo.hpp"
#include "quant/methods.hpp"
#include "quant/quant_executor.hpp"
#include "serve/batcher.hpp"
#include "serve/request_queue.hpp"
#include "serve/server.hpp"

namespace {

using namespace raq;

/// Shared deployment context: one small trained model, the paper's MAC
/// timing stack, and the aging model. Trained once for the whole file.
class Serve : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        data::DatasetConfig dc;
        dc.train_size = 600;
        dc.test_size = 200;
        dataset_ = new data::SyntheticDataset(dc);

        auto net = nn::make_network("alexnet-mini");
        nn::TrainConfig tcfg;
        tcfg.epochs = 2;
        nn::SgdTrainer trainer(tcfg);
        trainer.fit(net, *dataset_);
        graph_ = new ir::Graph(net.export_ir());

        const auto calib_images = dataset_->train_batch(0, 48);
        const std::vector<int> calib_labels(dataset_->train_labels().begin(),
                                            dataset_->train_labels().begin() + 48);
        calib_ = new quant::CalibrationData(
            quant::calibrate(*graph_, calib_images, calib_labels));

        mac_ = new netlist::Netlist(netlist::build_mac_circuit());
        library_ = new cell::Library(cell::Library::finfet14());
        selector_ = new core::CompressionSelector(*mac_, *library_);
        aging_ = new aging::AgingModel();

        eval_images_ = new tensor::Tensor(dataset_->test_batch(0, 100));
        eval_labels_ = new std::vector<int>(dataset_->test_labels().begin(),
                                            dataset_->test_labels().begin() + 100);
    }
    static void TearDownTestSuite() {
        delete eval_labels_;
        delete eval_images_;
        delete aging_;
        delete selector_;
        delete library_;
        delete mac_;
        delete calib_;
        delete graph_;
        delete dataset_;
    }

    [[nodiscard]] static serve::ServeContext context() {
        serve::ServeContext ctx;
        ctx.graph = graph_;
        ctx.calib = calib_;
        ctx.selector = selector_;
        ctx.aging = aging_;
        ctx.eval_images = eval_images_;
        ctx.eval_labels = eval_labels_;
        return ctx;
    }

    [[nodiscard]] static tensor::Tensor test_image(int index) {
        return dataset_->test_batch(index, 1);
    }

    static data::SyntheticDataset* dataset_;
    static ir::Graph* graph_;
    static quant::CalibrationData* calib_;
    static netlist::Netlist* mac_;
    static cell::Library* library_;
    static core::CompressionSelector* selector_;
    static aging::AgingModel* aging_;
    static tensor::Tensor* eval_images_;
    static std::vector<int>* eval_labels_;
};

data::SyntheticDataset* Serve::dataset_ = nullptr;
ir::Graph* Serve::graph_ = nullptr;
quant::CalibrationData* Serve::calib_ = nullptr;
netlist::Netlist* Serve::mac_ = nullptr;
cell::Library* Serve::library_ = nullptr;
core::CompressionSelector* Serve::selector_ = nullptr;
aging::AgingModel* Serve::aging_ = nullptr;
tensor::Tensor* Serve::eval_images_ = nullptr;
std::vector<int>* Serve::eval_labels_ = nullptr;

TEST_F(Serve, ConcurrentBatchedExecutionIsBitIdenticalToSerial) {
    constexpr int kRequests = 48;

    // Serial reference: the exact graph a fresh device deploys (no
    // compression at dVth = 0, M5 ACIQ), executed one sample at a time.
    const auto choice = selector_->select(0.0);
    ASSERT_TRUE(choice.has_value());
    const auto qconfig = quant::QuantConfig::from_compression(choice->compression);
    const auto reference = quant::quantize_graph(*graph_, quant::Method::M5_AciqNoBias,
                                                 qconfig, *calib_);

    serve::ServeConfig cfg;
    cfg.num_devices = 4;
    cfg.num_workers = 4;
    cfg.max_batch = 8;
    cfg.telemetry.metrics = true;
    serve::NpuServer server(context(), cfg);

    std::vector<std::future<serve::InferenceResult>> futures;
    futures.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) futures.push_back(server.submit(test_image(i)));

    for (int i = 0; i < kRequests; ++i) {
        const serve::InferenceResult result = futures[static_cast<std::size_t>(i)].get();
        const tensor::Tensor serial = quant::run_quantized(reference, test_image(i));
        ASSERT_EQ(result.logits.size(), serial.size()) << "request " << i;
        for (std::size_t c = 0; c < serial.size(); ++c)
            EXPECT_EQ(result.logits[c], serial[c]) << "request " << i << " class " << c;
        EXPECT_GE(result.device_id, 0);
        EXPECT_GT(result.latency_cycles, 0u);
    }
    server.shutdown();

    const serve::FleetStats fleet = server.fleet_stats();
    EXPECT_EQ(fleet.completed, static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(fleet.total_requants(), 0);  // nothing aged in this run

    // Execution-engine observability: the dispatch-tier gauge is always
    // exported.
    const std::string expo = server.export_metrics();
    EXPECT_NE(expo.find("raq_exec_dispatch_tier"), std::string::npos);
    EXPECT_NE(expo.find(exec::kernels_simd::tier_name(exec::kernels_simd::active_tier())),
              std::string::npos);
}

TEST_F(Serve, AgingDeviceRequantizesExactlyOnce) {
    constexpr int kRequests = 180;
    constexpr double kThresholdMv = 10.0;

    serve::ServeConfig cfg;
    cfg.num_devices = 1;
    cfg.num_workers = 1;
    cfg.max_batch = 4;
    cfg.device.requant_threshold_mv = kThresholdMv;

    // Scale aging so the run ends around 12 mV: the 10 mV threshold is
    // crossed mid-run (one re-quantization), while the next crossing
    // (20 mV) would need ~60x more stress time — unreachable here.
    {
        serve::NpuServer probe(context(), cfg);
        const auto& dev = probe.device(0);
        const double busy_hours_per_request =
            static_cast<double>(dev.per_image_cycles()) * dev.clock_period_ps() * 1e-12 /
            3600.0;
        const double target_hours = aging_->years_for_dvth(12.0) * 8760.0;
        cfg.device.age_acceleration =
            target_hours / (kRequests * busy_hours_per_request);
        probe.shutdown();
    }

    serve::NpuServer server(context(), cfg);
    std::vector<std::future<serve::InferenceResult>> futures;
    for (int i = 0; i < kRequests; ++i)
        futures.push_back(server.submit(test_image(i % 100)));
    for (auto& f : futures) f.get();
    server.shutdown();

    const serve::DeviceStats stats = server.device(0).stats();
    EXPECT_EQ(stats.requant_count, 1);
    ASSERT_EQ(stats.requant_events.size(), 1u);
    EXPECT_GE(stats.requant_events[0].dvth_mv, kThresholdMv);
    EXPECT_TRUE(stats.requant_events[0].before.is_none());
    EXPECT_FALSE(stats.requant_events[0].after.is_none());
    // The event carries a monotonic host timestamp (µs since the
    // process-wide telemetry epoch) so cross-device ordering holds.
    EXPECT_GT(stats.requant_events[0].t_us, 0);
    EXPECT_GT(stats.dvth_mv, kThresholdMv);

    // The re-deployed graph still serves sensible accuracy.
    const double acc = server.sample_accuracy(0, 100);
    EXPECT_GT(acc, 0.3);
}

TEST_F(Serve, ShutdownDrainsQueueWithoutLosingRequests) {
    constexpr int kRequests = 120;

    serve::ServeConfig cfg;
    cfg.num_devices = 2;
    cfg.num_workers = 4;  // more workers than devices: pool must arbitrate
    cfg.max_batch = 8;
    serve::NpuServer server(context(), cfg);

    std::vector<std::future<serve::InferenceResult>> futures;
    for (int i = 0; i < kRequests; ++i)
        futures.push_back(server.submit(test_image(i % 100)));

    // Shut down immediately: every accepted request must still complete.
    server.shutdown();
    for (int i = 0; i < kRequests; ++i) {
        const serve::InferenceResult result = futures[static_cast<std::size_t>(i)].get();
        EXPECT_GE(result.predicted_class, 0);
    }

    const serve::FleetStats fleet = server.fleet_stats();
    EXPECT_EQ(fleet.submitted, static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(fleet.completed, static_cast<std::uint64_t>(kRequests));
    std::uint64_t served = 0;
    for (const auto& dev : fleet.devices) served += dev.requests;
    EXPECT_EQ(served, static_cast<std::uint64_t>(kRequests));

    EXPECT_THROW((void)server.submit(test_image(0)), std::runtime_error);
}

TEST_F(Serve, FaultInjectionIsReproducibleAcrossParallelRuns) {
    constexpr int kRequests = 32;

    const auto run_once = [&] {
        serve::ServeConfig cfg;
        cfg.num_devices = 3;
        cfg.num_workers = 3;
        cfg.max_batch = 4;
        cfg.device.flip_probability = 0.02;
        cfg.device.base_seed = 0xC0FFEE;
        serve::NpuServer server(context(), cfg);
        std::vector<std::future<serve::InferenceResult>> futures;
        for (int i = 0; i < kRequests; ++i)
            futures.push_back(server.submit(test_image(i)));
        std::vector<std::vector<float>> logits;
        logits.reserve(kRequests);
        for (auto& f : futures) logits.push_back(f.get().logits);
        server.shutdown();
        std::uint64_t flips = 0;
        for (const auto& dev : server.fleet_stats().devices) flips += dev.flips;
        return std::make_pair(std::move(logits), flips);
    };

    const auto [logits_a, flips_a] = run_once();
    const auto [logits_b, flips_b] = run_once();
    // Per-request seeding makes results independent of which worker or
    // batch served a request: two parallel runs agree bit for bit.
    EXPECT_EQ(flips_a, flips_b);
    ASSERT_EQ(logits_a.size(), logits_b.size());
    for (std::size_t i = 0; i < logits_a.size(); ++i) {
        ASSERT_EQ(logits_a[i].size(), logits_b[i].size()) << i;
        for (std::size_t c = 0; c < logits_a[i].size(); ++c)
            EXPECT_EQ(logits_a[i][c], logits_b[i][c]) << i;
    }
    EXPECT_GT(flips_a, 0u);
}

TEST_F(Serve, FullAlgorithm1WithoutEvalSetFailsAtConstruction) {
    serve::ServeConfig cfg;
    cfg.device.full_algorithm1 = true;

    serve::ServeContext no_eval = context();
    no_eval.eval_images = nullptr;
    no_eval.eval_labels = nullptr;
    EXPECT_THROW((serve::NpuServer(no_eval, cfg)), std::invalid_argument);

    // A present-but-undersized eval set is just as unusable: labels must
    // cover every image. No silent fast-path fallback either way.
    serve::ServeContext short_labels_ctx = context();
    const std::vector<int> short_labels(10, 0);
    short_labels_ctx.eval_labels = &short_labels;
    EXPECT_THROW((serve::NpuServer(short_labels_ctx, cfg)), std::invalid_argument);

    // With a usable eval set the same config constructs fine.
    serve::ServeConfig small = cfg;
    small.device.requant_threshold_mv = 1e9;  // no requants in this probe
    serve::NpuServer ok(context(), small);
    ok.shutdown();
}

TEST_F(Serve, BackgroundRequantKeepsGraphsUntornAndGenerationsMonotonic) {
    constexpr int kRequests = 320;
    constexpr double kThresholdMv = 2.0;

    serve::ServeConfig cfg;
    cfg.num_devices = 2;
    cfg.num_workers = 4;  // more workers than devices: pool arbitration on
    cfg.max_batch = 4;
    cfg.requant_workers = 2;
    cfg.device.requant_threshold_mv = kThresholdMv;

    // Aggressive aging: each device (serving roughly half the stream)
    // ends around 8 mV, crossing the 2 mV re-quantization threshold
    // several times while traffic is in flight.
    {
        serve::NpuServer probe(context(), cfg);
        const auto& dev = probe.device(0);
        const double busy_hours_per_request =
            static_cast<double>(dev.per_image_cycles()) * dev.clock_period_ps() * 1e-12 /
            3600.0;
        const double target_hours = aging_->years_for_dvth(8.0) * 8760.0;
        cfg.device.age_acceleration =
            target_hours / ((kRequests / 2) * busy_hours_per_request);
        probe.shutdown();
    }

    serve::NpuServer server(context(), cfg);
    // Hammer submit() from two producer threads while the workers serve
    // and the RequantService publishes new generations underneath them.
    std::vector<std::future<serve::InferenceResult>> futures(kRequests);
    std::vector<std::thread> producers;
    for (int t = 0; t < 2; ++t)
        producers.emplace_back([&server, &futures, t] {
            for (int i = t; i < kRequests; i += 2)
                futures[static_cast<std::size_t>(i)] = server.submit(test_image(i % 100));
        });
    for (auto& p : producers) p.join();
    std::vector<serve::InferenceResult> results;
    results.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i)
        results.push_back(futures[static_cast<std::size_t>(i)].get());
    server.shutdown();

    // Per device: generations must advance by exactly one per event, the
    // deployed state must be the last event's generation, and every
    // event must come from the background service.
    std::map<int, std::map<std::uint64_t, quant::QuantizedGraph>> references;
    const auto initial_choice = selector_->select(0.0);
    ASSERT_TRUE(initial_choice.has_value());
    int total_requants = 0;
    for (int d = 0; d < server.num_devices(); ++d) {
        const serve::DeviceStats stats = server.device(d).stats();
        auto& refs = references[d];
        refs.emplace(1, quant::quantize_graph(
                            *graph_, quant::Method::M5_AciqNoBias,
                            quant::QuantConfig::from_compression(initial_choice->compression),
                            *calib_));
        std::uint64_t prev = 1;
        std::int64_t prev_t_us = 0;
        for (const serve::RequantEvent& event : stats.requant_events) {
            EXPECT_EQ(event.generation, prev + 1) << "device " << d;
            EXPECT_TRUE(event.background) << "device " << d;
            EXPECT_GT(event.build_ms, 0.0) << "device " << d;
            EXPECT_GE(event.dvth_mv, kThresholdMv) << "device " << d;
            // Swap timestamps are monotonic per device: generation k+1
            // cannot deploy before generation k on one steady clock.
            EXPECT_GT(event.t_us, 0) << "device " << d;
            EXPECT_GE(event.t_us, prev_t_us) << "device " << d;
            prev_t_us = event.t_us;
            prev = event.generation;
            refs.emplace(event.generation,
                         quant::quantize_graph(
                             *graph_, event.method,
                             quant::QuantConfig::from_compression(event.after), *calib_));
            total_requants += 1;
        }
        EXPECT_EQ(stats.generation, prev) << "device " << d;
        EXPECT_EQ(stats.requant_count, static_cast<int>(stats.requant_events.size()));
    }
    EXPECT_GE(total_requants, 2);

    // No torn graph: every result must be bit-identical to a serial run
    // on the exact generation it reports — a batch that observed half a
    // swap would match no generation.
    for (int i = 0; i < kRequests; ++i) {
        const serve::InferenceResult& result = results[static_cast<std::size_t>(i)];
        ASSERT_GE(result.generation, 1u) << "request " << i;
        const auto& refs = references.at(result.device_id);
        const auto ref = refs.find(result.generation);
        ASSERT_NE(ref, refs.end()) << "request " << i << " reports unknown generation "
                                   << result.generation;
        const tensor::Tensor serial = quant::run_quantized(ref->second, test_image(i % 100));
        ASSERT_EQ(result.logits.size(), serial.size()) << "request " << i;
        for (std::size_t c = 0; c < serial.size(); ++c)
            ASSERT_EQ(result.logits[c], serial[c])
                << "request " << i << " generation " << result.generation << " class " << c;
    }
}

TEST_F(Serve, AgedClockTracksInstalledCompression) {
    constexpr int kRequests = 180;
    constexpr double kThresholdMv = 10.0;

    serve::ServeConfig cfg;
    cfg.num_devices = 1;
    cfg.num_workers = 1;
    cfg.max_batch = 4;
    cfg.background_requant = false;  // deterministic: requant at the boundary
    cfg.device.requant_threshold_mv = kThresholdMv;

    // Cross the threshold once mid-run (same scaling as the
    // requantizes-exactly-once test).
    {
        serve::NpuServer probe(context(), cfg);
        const auto& dev = probe.device(0);
        const double busy_hours_per_request =
            static_cast<double>(dev.per_image_cycles()) * dev.clock_period_ps() * 1e-12 /
            3600.0;
        const double target_hours = aging_->years_for_dvth(12.0) * 8760.0;
        cfg.device.age_acceleration =
            target_hours / (kRequests * busy_hours_per_request);
        probe.shutdown();
    }

    serve::NpuServer server(context(), cfg);
    std::vector<std::future<serve::InferenceResult>> futures;
    for (int i = 0; i < kRequests; ++i)
        futures.push_back(server.submit(test_image(i % 100)));
    std::vector<serve::InferenceResult> results;
    results.reserve(kRequests);
    for (auto& f : futures) results.push_back(f.get());
    server.shutdown();

    const serve::DeviceStats stats = server.device(0).stats();
    ASSERT_GE(stats.requant_count, 1);
    const serve::RequantEvent& event = stats.requant_events.back();

    // Regression for the fresh-forever clock: the device clock must be
    // the installed compression's aged critical path, re-derived at the
    // install — not fresh_critical_path_ps() cached at construction.
    const double aged = selector_->delay_ps(event.dvth_mv, event.after);
    EXPECT_DOUBLE_EQ(event.aged_delay_ps, aged);
    EXPECT_DOUBLE_EQ(stats.clock_period_ps, aged);
    EXPECT_NE(stats.clock_period_ps, selector_->fresh_critical_path_ps());

    // latency_us changes across the requant generation: the per-request
    // implied clock (latency_us / latency_cycles) tracks the deployment.
    double clock_gen1 = 0.0, clock_gen2 = 0.0;
    for (const serve::InferenceResult& r : results) {
        ASSERT_GT(r.latency_cycles, 0u);
        const double implied = r.latency_us * 1e6 / static_cast<double>(r.latency_cycles);
        if (r.generation == 1)
            clock_gen1 = implied;
        else
            clock_gen2 = implied;
    }
    ASSERT_GT(clock_gen1, 0.0);  // some requests served before the swap
    ASSERT_GT(clock_gen2, 0.0);  // and some after
    EXPECT_NE(clock_gen1, clock_gen2);
    EXPECT_NEAR(clock_gen2, aged, 1e-9 * aged);

    // Simulated busy time accrued at the per-batch clock, so operating
    // hours and throughput reflect the aged clock too.
    EXPECT_GT(stats.busy_ps, 0.0);
    EXPECT_NE(stats.busy_ps,
              static_cast<double>(stats.busy_cycles) * selector_->fresh_critical_path_ps());
    EXPECT_GT(stats.sim_throughput_ips(), 0.0);
}

TEST_F(Serve, MalformedRequestFailsItsFutureWithoutKillingTheServer) {
    serve::ServeConfig cfg;
    cfg.num_devices = 1;
    cfg.num_workers = 1;
    cfg.max_batch = 1;  // the bad request fails alone, not a whole batch
    serve::NpuServer server(context(), cfg);

    // A multi-sample tensor is not a valid single request: the batcher
    // rejects it on the worker thread, which must fail this future (not
    // call std::terminate) and keep the device serving.
    const tensor::Shape sample = graph_->input_shape();
    auto bad = server.submit(tensor::Tensor({2, sample.c, sample.h, sample.w}));
    EXPECT_THROW((void)bad.get(), std::invalid_argument);

    auto good = server.submit(test_image(0));
    EXPECT_GE(good.get().predicted_class, 0);
    server.shutdown();
}

TEST_F(Serve, ThrowingBackgroundBuildKeepsTheDeviceServing) {
    // A background build that throws (here quantize_graph, on calibration
    // that no longer matches the graph) must publish like an infeasible
    // one: the device keeps serving generation 1, the in-flight gate
    // clears, shutdown's final catch-up build fails the same way, and the
    // timeline records the failure.
    constexpr int kRequests = 64;
    quant::CalibrationData calib = *calib_;  // test-owned: broken below
    serve::ServeContext ctx = context();
    ctx.calib = &calib;
    serve::ServeConfig cfg;
    cfg.num_devices = 1;
    cfg.num_workers = 1;
    cfg.background_requant = true;
    cfg.device.requant_threshold_mv = 1e-6;  // every batch boundary crosses it
    cfg.device.age_acceleration = 1e12;
    cfg.telemetry.metrics = true;
    serve::NpuServer server(ctx, cfg);
    calib.per_tensor.pop_back();  // every build from here on throws

    std::vector<std::future<serve::InferenceResult>> futures;
    futures.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) futures.push_back(server.submit(test_image(i % 100)));
    for (int i = 0; i < kRequests; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().generation, 1u) << "request " << i;
    server.shutdown();

    const serve::DeviceStats stats = server.device(0).stats();
    EXPECT_FALSE(stats.requant_in_flight);
    EXPECT_EQ(stats.generation, 1u);
    int failed_builds = 0;
    for (const obs::ReliabilityEvent& event : server.telemetry()->timeline().snapshot())
        if (event.kind == obs::EventKind::RequantBuild && event.detail.rfind("failed: ", 0) == 0)
            ++failed_builds;
    EXPECT_GE(failed_builds, 1);
}

TEST_F(Serve, SampleAccuracyRefusesAnEvalSetWithFewerLabelsThanSamples) {
    // 10 labels for 100 images. Without full_algorithm1 the server
    // accepts the short eval set; sampling past the labels must throw
    // instead of reading beyond them, on both layouts.
    const std::vector<int> short_labels(eval_labels_->begin(), eval_labels_->begin() + 10);
    serve::ServeContext ctx = context();
    ctx.eval_labels = &short_labels;
    for (const int shards : {1, 2}) {
        SCOPED_TRACE(std::to_string(shards) + " shard(s)");
        serve::ServeConfig cfg;
        cfg.num_devices = shards;
        cfg.num_shards = shards;
        serve::NpuServer server(ctx, cfg);
        EXPECT_THROW((void)server.sample_accuracy(0, 100), std::invalid_argument);
        // Within the labels the same eval set still samples.
        const double acc = server.sample_accuracy(0, 10);
        EXPECT_GE(acc, 0.0);
        EXPECT_LE(acc, 1.0);
        server.shutdown();
    }
}

TEST_F(Serve, CompletionIsCountedBeforeTheResultResolves) {
    constexpr int kTrials = 64;
    for (const int shards : {1, 2}) {
        SCOPED_TRACE(std::to_string(shards) + " shard(s)");
        serve::ServeConfig cfg;
        cfg.num_devices = shards;
        cfg.num_shards = shards;
        cfg.num_workers = 1;
        cfg.max_batch = 1;
        cfg.telemetry.metrics = true;
        cfg.telemetry.trace_sample_rate = 1.0;
        serve::NpuServer server(context(), cfg);
        const obs::MetricsRegistry& reg = server.telemetry()->metrics();
        const obs::Counter* completed =
            reg.find_counter("raq_requests_completed_total", {{"class", "interactive"}});
        ASSERT_NE(completed, nullptr);
        for (int i = 0; i < kTrials; ++i) {
            // The completion hook runs on the serving thread right after
            // the promise resolves: what it reads is what the fastest
            // possible client could observe.
            std::promise<std::pair<std::uint64_t, std::uint64_t>> at_resolve;
            serve::NpuServer::TrySubmit attempt =
                server.try_submit(test_image(i % 100), [&] {
                    at_resolve.set_value({server.fleet_stats().completed, completed->value()});
                });
            ASSERT_EQ(attempt.status, serve::NpuServer::TrySubmit::Status::Accepted);
            const serve::InferenceResult result = attempt.future.get();
            EXPECT_EQ(result.device_id, 0);
            EXPECT_EQ(result.partition, 1u);  // the unit's only cut
            // A client holding its result must find it counted, in the
            // fleet stats and in the scrape alike.
            const auto want = static_cast<std::uint64_t>(i + 1);
            const auto [stats_seen, counter_seen] = at_resolve.get_future().get();
            ASSERT_GE(stats_seen, want) << "trial " << i;
            ASSERT_GE(counter_seen, want) << "trial " << i;
            ASSERT_GE(server.fleet_stats().completed, want) << "trial " << i;
            ASSERT_GE(completed->value(), want) << "trial " << i;
        }
        if (shards == 1) {
            // A one-stage group keeps the whole-model series: per-device
            // labels without a stage, and no repartition series.
            EXPECT_NE(reg.find_counter("raq_device_requests_total", {{"device", "0"}}), nullptr);
            const std::string expo = server.export_metrics();
            EXPECT_EQ(expo.find("stage=\""), std::string::npos);
            EXPECT_EQ(expo.find("raq_repartition_checks_total"), std::string::npos);
            // ... and the whole-model span sequence: no handoff, and an
            // execute span without a stage.
            const std::vector<obs::TraceContext> traces = server.telemetry()->traces().snapshot();
            ASSERT_FALSE(traces.empty());
            for (const obs::TraceContext& trace : traces) {
                ASSERT_EQ(trace.spans.size(), 4u) << trace.to_string();
                EXPECT_EQ(trace.spans[0].kind, obs::SpanKind::Queue);
                EXPECT_EQ(trace.spans[1].kind, obs::SpanKind::Batch);
                EXPECT_EQ(trace.spans[2].kind, obs::SpanKind::Execute);
                EXPECT_EQ(trace.spans[2].device_id, 0);
                EXPECT_EQ(trace.spans[2].stage, -1);
                EXPECT_EQ(trace.spans[3].kind, obs::SpanKind::Complete);
            }
        }
        server.shutdown();
    }
}

TEST(ServeStats, LatencyReservoirBoundedWithExactAggregates) {
    constexpr std::size_t kCapacity = 64;
    constexpr std::uint64_t kSamples = 10000;
    serve::LatencyRecorder recorder(kCapacity, /*seed=*/42);
    for (std::uint64_t i = 1; i <= kSamples; ++i) recorder.record(i);

    // Memory stays bounded at the reservoir capacity...
    EXPECT_EQ(recorder.reservoir_size(), kCapacity);
    // ...while count/mean/max stay exact.
    const serve::LatencySummary s = recorder.summary();
    EXPECT_EQ(s.count, kSamples);
    EXPECT_DOUBLE_EQ(s.mean_cycles, (1.0 + static_cast<double>(kSamples)) / 2.0);
    EXPECT_EQ(s.max_cycles, kSamples);
    // The percentiles are estimates from a uniform sample of 1..10000.
    EXPECT_NEAR(s.p50_cycles, 5000.0, 2000.0);
    EXPECT_GT(s.p99_cycles, s.p50_cycles);

    // Deterministic: same seed, same stream, same reservoir.
    serve::LatencyRecorder again(kCapacity, /*seed=*/42);
    for (std::uint64_t i = 1; i <= kSamples; ++i) again.record(i);
    const serve::LatencySummary s2 = again.summary();
    EXPECT_EQ(s2.p50_cycles, s.p50_cycles);
    EXPECT_EQ(s2.p99_cycles, s.p99_cycles);
}

TEST(ServeQueue, CloseWakesBlockedProducersWithoutLosingPromises) {
    constexpr int kProducers = 3;
    serve::BoundedChannel<serve::InferenceRequest> queue(2);
    for (int i = 0; i < 2; ++i) {
        serve::InferenceRequest fill;
        fill.id = static_cast<std::uint64_t>(i);
        ASSERT_TRUE(queue.push(std::move(fill)));
    }

    // Three producers block on the full queue; close() must wake every
    // one with push == false WITHOUT consuming its request, so the
    // caller still owns the promise and can resolve it.
    std::vector<std::future<serve::InferenceResult>> futures(kProducers);
    std::atomic<int> rejected{0};
    std::vector<std::thread> producers;
    for (int t = 0; t < kProducers; ++t)
        producers.emplace_back([&queue, &futures, &rejected, t] {
            serve::InferenceRequest request;
            request.id = 100 + static_cast<std::uint64_t>(t);
            futures[static_cast<std::size_t>(t)] = request.promise.get_future();
            if (!queue.push(std::move(request))) {
                rejected.fetch_add(1);
                serve::InferenceResult result;
                result.request_id = request.id;
                result.predicted_class = -1;
                request.promise.set_value(std::move(result));
            }
        });
    // Let the producers reach the full-queue wait before closing.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(queue.size(), 2u);
    queue.close();
    for (std::thread& p : producers) p.join();

    EXPECT_EQ(rejected.load(), kProducers);
    for (auto& f : futures) {
        const serve::InferenceResult result = f.get();  // promise not lost
        EXPECT_EQ(result.predicted_class, -1);
    }
    // What was accepted before the close still drains.
    EXPECT_EQ(queue.pop_batch(10).size(), 2u);
    EXPECT_TRUE(queue.pop_batch(10).empty());
}

TEST(ServeBatcher, RejectsMalformedBatchesAndRows) {
    const std::vector<serve::InferenceRequest> empty;
    EXPECT_THROW((void)serve::stack_batch(empty), std::invalid_argument);

    std::vector<serve::InferenceRequest> mismatched(2);
    mismatched[0].image = tensor::Tensor({1, 2, 2, 2});
    mismatched[1].image = tensor::Tensor({1, 2, 3, 3});
    EXPECT_THROW((void)serve::stack_batch(mismatched), std::invalid_argument);

    std::vector<serve::InferenceRequest> multi_sample(1);
    multi_sample[0].image = tensor::Tensor({2, 2, 2, 2});  // n != 1
    EXPECT_THROW((void)serve::stack_batch(multi_sample), std::invalid_argument);

    tensor::Tensor logits({2, 4, 1, 1});
    EXPECT_THROW((void)serve::make_result(0, logits, -1), std::out_of_range);
    EXPECT_THROW((void)serve::make_result(0, logits, 2), std::out_of_range);
}

TEST(ServeQueue, BatchedPopRespectsLimitAndOrder) {
    serve::BoundedChannel<serve::InferenceRequest> queue(16);
    for (int i = 0; i < 10; ++i) {
        serve::InferenceRequest request;
        request.id = static_cast<std::uint64_t>(i);
        ASSERT_TRUE(queue.push(std::move(request)));
    }
    auto first = queue.pop_batch(4);
    ASSERT_EQ(first.size(), 4u);
    EXPECT_EQ(first[0].id, 0u);
    EXPECT_EQ(first[3].id, 3u);
    auto rest = queue.pop_batch(100);
    EXPECT_EQ(rest.size(), 6u);
    queue.close();
    EXPECT_FALSE(queue.push(serve::InferenceRequest{}));
    EXPECT_TRUE(queue.pop_batch(4).empty());
}

TEST(ServeBatcher, StackAndSplitRoundTrip) {
    std::vector<serve::InferenceRequest> batch(3);
    for (int i = 0; i < 3; ++i) {
        batch[static_cast<std::size_t>(i)].id = static_cast<std::uint64_t>(i);
        tensor::Tensor img({1, 2, 2, 2});
        for (std::size_t j = 0; j < img.size(); ++j)
            img.data()[j] = static_cast<float>(i * 100 + static_cast<int>(j));
        batch[static_cast<std::size_t>(i)].image = img;
    }
    const tensor::Tensor stacked = serve::stack_batch(batch);
    EXPECT_EQ(stacked.shape().n, 3);
    EXPECT_EQ(stacked.data()[8], 100.0f);  // row 1 starts at sample 1's data

    tensor::Tensor logits({3, 4, 1, 1});
    for (int n = 0; n < 3; ++n)
        for (int c = 0; c < 4; ++c) logits.at(n, c, 0, 0) = (c == n) ? 5.0f : 0.0f;
    for (int n = 0; n < 3; ++n) {
        const auto result = serve::make_result(batch[static_cast<std::size_t>(n)].id,
                                               logits, n);
        EXPECT_EQ(result.predicted_class, n);
        EXPECT_EQ(result.logits.size(), 4u);
    }
}

}  // namespace
