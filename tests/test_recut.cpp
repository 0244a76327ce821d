// Online re-partitioning: the heterogeneous min-bottleneck DP, the
// repartition trigger/cost-table helpers, heterogeneous-stage initial
// cuts, and the ShardGroup drain-and-swap re-cut under continuous
// concurrent traffic (bit-identity with a single-device reference,
// monotonic generation/partition ids — the TSan regression surface).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "aging/aging_model.hpp"
#include "cell/library.hpp"
#include "common/rng.hpp"
#include "core/compression_selector.hpp"
#include "data/synthetic_dataset.hpp"
#include "ir/partition.hpp"
#include "netlist/builders.hpp"
#include "nn/trainer.hpp"
#include "nn/zoo.hpp"
#include "npu/systolic.hpp"
#include "quant/methods.hpp"
#include "quant/quant_executor.hpp"
#include "serve/repartition.hpp"
#include "serve/server.hpp"
#include "serve/shard_group.hpp"

namespace {

using namespace raq;
using namespace std::chrono_literals;

/// A chain of four equal 3x3 convolutions (relu between): every op
/// boundary is a cut candidate and every conv costs the same 192 cycles
/// on the default 64x64 array, so cut positions under different stage
/// cost tables are easy to reason about exactly.
ir::Graph make_conv_chain() {
    common::Rng rng(0xC0FFEE);
    const auto conv = [&rng](int in_c, int out_c) {
        ir::Op op;
        op.kind = ir::OpKind::Conv2d;
        op.conv = {in_c, out_c, 3, 3, 1, 1};
        op.weights.resize(static_cast<std::size_t>(out_c) * in_c * 9);
        for (float& w : op.weights) w = rng.next_float() - 0.5f;
        op.bias.resize(static_cast<std::size_t>(out_c));
        for (float& b : op.bias) b = 0.1f * (rng.next_float() - 0.5f);
        return op;
    };
    ir::Graph g;
    int t = g.add_input({1, 4, 8, 8});
    for (int i = 0; i < 4; ++i) {
        ir::Op c = conv(4, 4);
        c.inputs = {t};
        c.name = "c" + std::to_string(i);
        t = g.add(std::move(c));
        if (i + 1 < 4) {
            ir::Op r;
            r.kind = ir::OpKind::Relu;
            r.inputs = {t};
            r.name = "r" + std::to_string(i);
            t = g.add(std::move(r));
        }
    }
    g.set_output(t);
    return g;
}

TEST(Repartition, StageImbalanceNeedsAMatureWindow) {
    using serve::StageWindow;
    // Immature: any stage below min_batches, or without busy time.
    EXPECT_EQ(serve::stage_imbalance({}, 1), 0.0);
    EXPECT_EQ(serve::stage_imbalance({{4, 100.0}, {1, 100.0}}, 2), 0.0);
    EXPECT_EQ(serve::stage_imbalance({{4, 100.0}, {4, 0.0}}, 2), 0.0);
    // Mature: max/min busy picoseconds.
    EXPECT_DOUBLE_EQ(serve::stage_imbalance({{4, 100.0}, {4, 100.0}}, 2), 1.0);
    EXPECT_DOUBLE_EQ(serve::stage_imbalance({{4, 300.0}, {4, 100.0}}, 2), 3.0);
    EXPECT_DOUBLE_EQ(serve::stage_imbalance({{8, 50.0}, {9, 200.0}, {10, 100.0}}, 4),
                     4.0);
}

TEST(Repartition, AgedCostTablesScaleEachStagesCyclesByItsClock) {
    const ir::Graph g = make_conv_chain();
    const npu::SystolicConfig array{};
    const std::vector<std::uint64_t> cycles = npu::op_cycle_costs(g, array);
    const auto tables = serve::aged_cost_tables(g, {array, array}, {1.0, 2.5});
    ASSERT_EQ(tables.size(), 2u);
    ASSERT_EQ(tables[0].size(), g.ops().size());
    for (std::size_t i = 0; i < cycles.size(); ++i) {
        EXPECT_EQ(tables[0][i], cycles[i]);
        EXPECT_EQ(tables[1][i], static_cast<std::uint64_t>(
                                    std::llround(2.5 * static_cast<double>(cycles[i]))));
    }
    EXPECT_THROW((void)serve::aged_cost_tables(g, {array}, {1.0, 1.0}),
                 std::invalid_argument);
    EXPECT_THROW((void)serve::aged_cost_tables(g, {array, array}, {1.0, 0.0}),
                 std::invalid_argument);
}

TEST(Partition, HeterogeneousMatchesHomogeneousOnEqualTables) {
    const ir::Graph g = make_conv_chain();
    const std::vector<std::uint64_t> cycles = npu::op_cycle_costs(g);
    const auto homo = ir::partition_graph(g, 3, cycles);
    const auto hetero = ir::partition_graph_heterogeneous(g, {cycles, cycles, cycles});
    ASSERT_EQ(homo.size(), hetero.size());
    for (std::size_t k = 0; k < homo.size(); ++k) {
        EXPECT_EQ(homo[k].first_op, hetero[k].first_op);
        EXPECT_EQ(homo[k].last_op, hetero[k].last_op);
        EXPECT_EQ(homo[k].cost, hetero[k].cost);
    }
}

TEST(Partition, SlowStageShedsWorkUnderHeterogeneousCosts) {
    const ir::Graph g = make_conv_chain();
    const std::vector<std::uint64_t> cycles = npu::op_cycle_costs(g);
    // Four equal convs: a homogeneous 2-cut splits 2/2.
    const auto homo = ir::partition_graph(g, 2, cycles);
    EXPECT_EQ(homo[0].cost, homo[1].cost);

    // Stage 1 three times slower: the DP hands it one conv and keeps
    // three on stage 0 (bottleneck 3x192 = 576 either way; any other cut
    // is worse).
    std::vector<std::uint64_t> slow(cycles);
    for (std::uint64_t& c : slow) c *= 3;
    const auto hetero = ir::partition_graph_heterogeneous(g, {cycles, slow});
    ASSERT_EQ(hetero.size(), 2u);
    EXPECT_GT(hetero[0].last_op, homo[0].last_op);
    EXPECT_EQ(hetero[0].cost, 3u * 192u);  // three convs at stage 0 rates
    EXPECT_EQ(hetero[1].cost, 3u * 192u);  // one conv at 3x rates

    // Brute force over all 2-shard cut choices confirms the DP found the
    // minimum bottleneck on the mixed tables.
    std::uint64_t best = ~0ULL;
    for (const int cut : ir::cut_candidates(g)) {
        std::uint64_t s0 = 0, s1 = 0;
        for (int i = 0; i <= cut; ++i) s0 += cycles[static_cast<std::size_t>(i)];
        for (int i = cut + 1; i < static_cast<int>(g.ops().size()); ++i)
            s1 += slow[static_cast<std::size_t>(i)];
        if (s0 == 0 || s1 == 0) continue;
        best = std::min(best, std::max(s0, s1));
    }
    EXPECT_EQ(std::max(hetero[0].cost, hetero[1].cost), best);

    EXPECT_THROW((void)ir::partition_graph_heterogeneous(g, {}), std::invalid_argument);
    EXPECT_THROW((void)ir::partition_graph_heterogeneous(
                     g, {cycles, std::vector<std::uint64_t>(3, 1)}),
                 std::invalid_argument);
}

TEST(Partition, NarrowStageArrayShiftsTheInitialCut) {
    const ir::Graph g = make_conv_chain();
    const npu::SystolicConfig wide{};              // 64x64, fill 192
    npu::SystolicConfig narrow;
    narrow.rows = 8;
    narrow.cols = 8;
    narrow.pipeline_fill = 16;
    // On the narrow array every conv needs ceil(36/8) x ceil(4/8) = 5
    // tiles of (64 + 16) cycles = 400 cycles vs 192 on the wide one.
    const serve::ShardPartition hetero =
        serve::make_shard_partition(g, std::vector<npu::SystolicConfig>{wide, narrow}, 2);
    ASSERT_EQ(hetero.specs.size(), 2u);
    const serve::ShardPartition homo =
        serve::make_shard_partition(g, std::vector<npu::SystolicConfig>{wide, wide}, 2);
    // The narrow stage gets less of the graph than an equal-array split.
    EXPECT_GT(hetero.specs[0].last_op, homo.specs[0].last_op);
    EXPECT_EQ(hetero.specs[0].cost, 3u * 192u);  // three convs, wide rates
    EXPECT_EQ(hetero.specs[1].cost, 400u);       // one conv, narrow rates
}

/// Trained-model fixture for the serving re-cut tests (same deployment
/// stack as tests/test_shard.cpp).
class Recut : public ::testing::Test {
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
    }
    static void TearDownTestSuite() {
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
        return ctx;
    }

    [[nodiscard]] static tensor::Tensor test_image(int index) {
        return dataset_->test_batch(index, 1);
    }

    /// ΔVth at which the minimum-norm (uncompressed) deployment's aged
    /// delay reaches `ratio` x the fresh critical path.
    [[nodiscard]] static double dvth_for_delay_ratio(double ratio) {
        const common::Compression none{};
        const double fresh = selector_->delay_ps(0.0, none);
        double lo = 0.0, hi = 300.0;
        while (selector_->delay_ps(hi, none) < ratio * fresh) hi += 50.0;
        for (int i = 0; i < 100; ++i) {
            const double mid = 0.5 * (lo + hi);
            (selector_->delay_ps(mid, none) < ratio * fresh ? lo : hi) = mid;
        }
        return hi;
    }

    static data::SyntheticDataset* dataset_;
    static ir::Graph* graph_;
    static quant::CalibrationData* calib_;
    static netlist::Netlist* mac_;
    static cell::Library* library_;
    static core::CompressionSelector* selector_;
    static aging::AgingModel* aging_;
};

data::SyntheticDataset* Recut::dataset_ = nullptr;
ir::Graph* Recut::graph_ = nullptr;
quant::CalibrationData* Recut::calib_ = nullptr;
netlist::Netlist* Recut::mac_ = nullptr;
cell::Library* Recut::library_ = nullptr;
core::CompressionSelector* Recut::selector_ = nullptr;
aging::AgingModel* Recut::aging_ = nullptr;

TEST_F(Recut, DrainAndSwapKeepsBitIdentityUnderContinuousTraffic) {
    constexpr int kPhase = 48;
    constexpr double kGuardband = 1.2;
    // Stage-1 device enters the field aged until its (uncompressed)
    // deployment clock runs 2x the fresh period; the guardband keeps the
    // compression selection identical on both shards, so the pipeline
    // stays bit-identical to one fresh device while its cut drifts far
    // off the real bottleneck.
    const double dvth_aged = dvth_for_delay_ratio(2.0);
    const double aged_years = aging_->years_for_dvth(dvth_aged);

    serve::ServeConfig cfg;
    cfg.num_devices = 2;
    cfg.num_shards = 2;
    // One worker: batches enter the pipeline in submit order (two pool
    // workers could hand the single group later requests first), so the
    // per-request partition ids must be monotonic in submit order.
    cfg.num_workers = 1;
    cfg.max_batch = 4;
    cfg.initial_age_step_years = aged_years;
    cfg.device.guardband_fraction = kGuardband;
    cfg.device.requant_threshold_mv = 1e9;  // isolate the re-cut from requants
    cfg.repartition.enabled = true;
    cfg.repartition.imbalance_ratio = 1.4;
    cfg.repartition.min_batches = 2;
    cfg.repartition.poll_ms = 1;
    serve::NpuServer server(context(), cfg);

    const auto choice = selector_->select(0.0, kGuardband);
    ASSERT_TRUE(choice.has_value());
    const quant::QuantizedGraph reference = quant::quantize_graph(
        *graph_, quant::Method::M5_AciqNoBias,
        quant::QuantConfig::from_compression(choice->compression), *calib_);

    // Concurrent observers while traffic and the re-cut are in flight:
    // the TSan surface this test exists for.
    std::atomic<bool> stop_observer{false};
    std::thread observer([&] {
        while (!stop_observer.load(std::memory_order_acquire)) {
            (void)server.fleet_stats();
            (void)server.shard_group(0).repartition_stats();
            std::this_thread::sleep_for(1ms);
        }
    });

    std::vector<int> image_of;
    std::vector<serve::InferenceResult> results;
    const auto submit_phase = [&] {
        std::vector<std::future<serve::InferenceResult>> futures;
        futures.reserve(kPhase);
        for (int i = 0; i < kPhase; ++i) {
            const int index = static_cast<int>(image_of.size()) % 100;
            image_of.push_back(index);
            futures.push_back(server.submit(test_image(index)));
        }
        for (auto& f : futures) results.push_back(f.get());
    };

    // Phase 1 exposes the imbalance; the monitor re-cuts while phase 2's
    // traffic keeps flowing through the swap.
    submit_phase();
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    while (server.shard_group(0).partition_generation() < 2 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(1ms);
    ASSERT_GE(server.shard_group(0).partition_generation(), 2u)
        << "online re-cut did not happen within the deadline";
    submit_phase();

    stop_observer.store(true, std::memory_order_release);
    observer.join();
    server.shutdown();

    // Every request — before, across and after the swap — must match the
    // single-device reference bit for bit, and the partition ids it
    // reports must be monotonic in submit order (no torn batches).
    std::uint64_t last_partition = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const tensor::Tensor serial =
            quant::run_quantized(reference, test_image(image_of[i]));
        ASSERT_EQ(results[i].logits.size(), serial.size()) << "request " << i;
        for (std::size_t c = 0; c < serial.size(); ++c)
            ASSERT_EQ(results[i].logits[c], serial[c])
                << "request " << i << " class " << c;
        ASSERT_GE(results[i].partition, 1u);
        ASSERT_GE(results[i].partition, last_partition)
            << "partition ids must be monotonic in submit order";
        last_partition = results[i].partition;
        EXPECT_GE(results[i].generation, 1u);
    }
    // Phase 2 ran entirely on the new partition.
    EXPECT_GE(results.back().partition, 2u);

    const auto& group = server.shard_group(0);
    const serve::RepartitionStats rp = group.repartition_stats();
    EXPECT_GE(rp.recuts, 1u);
    EXPECT_GE(rp.triggers, rp.recuts);
    EXPECT_EQ(rp.partition_generation, group.partition_generation());

    // The re-cut moved real work off the slow device: the new cut gives
    // stage 0 (fresh clock) more cycles than the fresh-silicon balance.
    const serve::ShardPartition fresh_cut = serve::make_shard_partition(
        *graph_, std::vector<npu::SystolicConfig>(2, cfg.device.systolic), cfg.max_batch);
    EXPECT_GT(group.shard_spec(0).last_op, fresh_cut.specs[0].last_op);

    // Each shard's version stream stays monotonic across the remap, and
    // the remap itself is recorded as a recut deployment.
    for (int k = 0; k < group.num_shards(); ++k) {
        const serve::DeviceStats stats = group.shard(k).stats();
        std::uint64_t prev = 1;
        int recut_events = 0;
        for (const serve::RequantEvent& event : stats.requant_events) {
            EXPECT_EQ(event.generation, prev + 1) << "shard " << k;
            recut_events += event.recut ? 1 : 0;
            prev = event.generation;
        }
        EXPECT_EQ(recut_events, 1) << "shard " << k;
        EXPECT_EQ(stats.generation, prev) << "shard " << k;
        EXPECT_EQ(stats.requests, results.size()) << "shard " << k;
    }
}

TEST_F(Recut, SwapWaitsOutInFlightBackgroundBuilds) {
    // Every batch boundary crosses the requant threshold, so the four
    // devices' background builds queue back to back on one service
    // worker while the monitors re-cut. A build still queued or
    // running when the swap remaps its device would read the sub-graph of
    // one cut with the calibration slice of the other, and the exception
    // quantize_graph throws on the service thread ends the process. Each
    // round is one chance to hit that window, so the test runs several.
    serve::ServeConfig cfg;
    cfg.num_devices = 4;
    cfg.num_shards = 2;
    cfg.num_workers = 2;
    cfg.max_batch = 1;
    cfg.initial_age_step_years = aging_->years_for_dvth(dvth_for_delay_ratio(2.0));
    cfg.device.guardband_fraction = 1.2;
    cfg.device.requant_threshold_mv = 1e-9;
    cfg.device.age_acceleration = 1e3;
    cfg.background_requant = true;
    cfg.repartition.enabled = true;
    cfg.repartition.imbalance_ratio = 1.4;
    cfg.repartition.min_batches = 2;
    cfg.repartition.poll_ms = 1;
    for (int round = 0; round < 8; ++round) {
        serve::NpuServer server(context(), cfg);
        int submitted = 0;
        const auto submit_phase = [&] {
            std::vector<std::future<serve::InferenceResult>> futures;
            for (int i = 0; i < 16; ++i)
                futures.push_back(server.submit(test_image(submitted++ % 100)));
            for (auto& f : futures) EXPECT_FALSE(f.get().logits.empty());
        };
        const auto deadline = std::chrono::steady_clock::now() + 30s;
        while (server.shard_group(0).partition_generation() < 2 &&
               std::chrono::steady_clock::now() < deadline)
            submit_phase();
        ASSERT_GE(server.shard_group(0).partition_generation(), 2u)
            << "online re-cut did not happen within the deadline";
        submit_phase();  // the new cut serves too
        server.shutdown();

        int background_builds = 0;
        for (int g = 0; g < 2; ++g)
            for (int k = 0; k < 2; ++k)
                for (const serve::RequantEvent& event :
                     server.shard_group(g).shard(k).stats().requant_events)
                    background_builds += event.background && !event.recut;
        EXPECT_GE(background_builds, 1) << "round " << round;
    }
}

TEST_F(Recut, BalancedPipelineNeverRecuts) {
    constexpr int kRequests = 40;
    serve::ServeConfig cfg;
    cfg.num_devices = 2;
    cfg.num_shards = 2;
    cfg.num_workers = 1;
    cfg.max_batch = 4;
    cfg.repartition.enabled = true;  // monitor runs, trigger never fires
    cfg.repartition.imbalance_ratio = 1.5;
    // A window long enough to amortize pipeline-fill skew: while the
    // pipeline fills, stage 0 legitimately runs several batches ahead of
    // stage 1, which would fake an imbalance over a 2-batch window.
    cfg.repartition.min_batches = 8;
    cfg.repartition.poll_ms = 1;
    serve::NpuServer server(context(), cfg);

    std::vector<std::future<serve::InferenceResult>> futures;
    futures.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) futures.push_back(server.submit(test_image(i)));
    std::vector<serve::InferenceResult> results;
    results.reserve(kRequests);
    for (auto& f : futures) results.push_back(f.get());

    // Let the monitor evaluate at least one mature window, then stop.
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (server.shard_group(0).repartition_stats().checks == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(1ms);
    server.shutdown();

    const serve::RepartitionStats rp = server.shard_group(0).repartition_stats();
    EXPECT_GE(rp.checks, 1u);
    EXPECT_EQ(rp.recuts, 0u);
    EXPECT_EQ(rp.partition_generation, 1u);
    EXPECT_GT(rp.last_imbalance, 0.0);
    EXPECT_LT(rp.last_imbalance, cfg.repartition.imbalance_ratio);
    for (const serve::InferenceResult& result : results)
        EXPECT_EQ(result.partition, 1u);
}

TEST_F(Recut, ShardingOnlyConfigIsRefusedOnAReplicatedLayout) {
    // Sharding-only features on num_shards == 1 would be silently dead
    // config; the server refuses them like every other misconfiguration.
    serve::ServeConfig cfg;
    cfg.num_devices = 2;
    cfg.num_shards = 1;
    cfg.repartition.enabled = true;
    EXPECT_THROW((serve::NpuServer(context(), cfg)), std::invalid_argument);
    cfg.repartition.enabled = false;
    cfg.shard_systolic = {npu::SystolicConfig{}};
    EXPECT_THROW((serve::NpuServer(context(), cfg)), std::invalid_argument);
}

TEST_F(Recut, HeterogeneousStageArraysServeBitIdenticallyOnAShiftedCut) {
    constexpr int kRequests = 16;
    npu::SystolicConfig narrow;
    narrow.rows = 16;
    narrow.cols = 16;
    narrow.pipeline_fill = 32;

    serve::ServeConfig cfg;
    cfg.num_devices = 2;
    cfg.num_shards = 2;
    cfg.num_workers = 2;
    cfg.max_batch = 4;
    cfg.shard_systolic = {npu::SystolicConfig{}, narrow};
    serve::NpuServer server(context(), cfg);

    // The shared partition balanced each stage on its own array: the
    // narrow stage 1 gets less of the graph than an equal-array cut.
    const serve::ShardPartition homo = serve::make_shard_partition(
        *graph_, std::vector<npu::SystolicConfig>(2, npu::SystolicConfig{}), cfg.max_batch);
    const serve::ShardPartition hetero = serve::make_shard_partition(
        *graph_, cfg.shard_systolic, cfg.max_batch);
    const auto& group = server.shard_group(0);
    EXPECT_GT(group.shard_spec(0).last_op, homo.specs[0].last_op);
    EXPECT_EQ(group.shard_spec(0).last_op, hetero.specs[0].last_op);
    EXPECT_EQ(group.shard_spec(1).last_op, hetero.specs[1].last_op);

    // Arithmetic is untouched by the cycle model: results match the
    // fresh single-device deployment bit for bit.
    const auto choice = selector_->select(0.0);
    ASSERT_TRUE(choice.has_value());
    const quant::QuantizedGraph reference = quant::quantize_graph(
        *graph_, quant::Method::M5_AciqNoBias,
        quant::QuantConfig::from_compression(choice->compression), *calib_);
    std::vector<std::future<serve::InferenceResult>> futures;
    futures.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) futures.push_back(server.submit(test_image(i)));
    for (int i = 0; i < kRequests; ++i) {
        const serve::InferenceResult result = futures[static_cast<std::size_t>(i)].get();
        const tensor::Tensor serial = quant::run_quantized(reference, test_image(i));
        ASSERT_EQ(result.logits.size(), serial.size()) << "request " << i;
        for (std::size_t c = 0; c < serial.size(); ++c)
            ASSERT_EQ(result.logits[c], serial[c]) << "request " << i << " class " << c;
    }
    server.shutdown();

    // Each stage's cycle accounting runs on its own array model.
    EXPECT_EQ(group.shard(0).per_image_cycles(),
              npu::SystolicArrayModel(npu::SystolicConfig{})
                  .analyze(group.shard_graph(0))
                  .total_cycles);
    EXPECT_EQ(group.shard(1).per_image_cycles(),
              npu::SystolicArrayModel(narrow).analyze(group.shard_graph(1)).total_cycles);
}

}  // namespace
