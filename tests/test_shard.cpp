// Cross-device model sharding: graph-cut partitioner, sub-plan
// compilation, per-shard quantization bit-identity (boundary tensors
// included) and the ShardGroup serving pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <vector>

#include "aging/aging_model.hpp"
#include "cell/library.hpp"
#include "common/rng.hpp"
#include "core/compression_selector.hpp"
#include "data/synthetic_dataset.hpp"
#include "exec/engine.hpp"
#include "exec/plan_cache.hpp"
#include "exec/subplan.hpp"
#include "ir/partition.hpp"
#include "netlist/builders.hpp"
#include "nn/trainer.hpp"
#include "npu/systolic.hpp"
#include "nn/zoo.hpp"
#include "quant/methods.hpp"
#include "quant/quant_executor.hpp"
#include "seed_interpreter_ref.hpp"
#include "serve/server.hpp"
#include "serve/shard_group.hpp"

namespace {

using namespace raq;

/// A small residual graph built by hand: conv → relu → conv → add(skip)
/// → relu → conv. The skip connection makes the interior of the block
/// uncuttable (two tensors would cross), so the partitioner must cut at
/// the block boundaries only.
ir::Graph make_residual_graph() {
    common::Rng rng(0xD15C0);
    const auto rand_conv = [&rng](int in_c, int out_c, int k, int pad) {
        ir::Op op;
        op.kind = ir::OpKind::Conv2d;
        op.conv = {in_c, out_c, k, k, 1, pad};
        op.weights.resize(static_cast<std::size_t>(out_c) * in_c * k * k);
        for (float& w : op.weights) w = rng.next_float() - 0.5f;
        op.bias.resize(static_cast<std::size_t>(out_c));
        for (float& b : op.bias) b = 0.1f * (rng.next_float() - 0.5f);
        return op;
    };
    ir::Graph g;
    const int in = g.add_input({1, 4, 8, 8});
    ir::Op c1 = rand_conv(4, 4, 3, 1);
    c1.inputs = {in};
    c1.name = "c1";
    const int t1 = g.add(std::move(c1));
    ir::Op r1;
    r1.kind = ir::OpKind::Relu;
    r1.inputs = {t1};
    r1.name = "r1";
    const int t2 = g.add(std::move(r1));
    ir::Op c2 = rand_conv(4, 4, 3, 1);
    c2.inputs = {t2};
    c2.name = "c2";
    const int t3 = g.add(std::move(c2));
    ir::Op add;
    add.kind = ir::OpKind::Add;
    add.inputs = {t3, t2};  // skip from t2: no cut between t2 and t4
    add.name = "skip";
    const int t4 = g.add(std::move(add));
    ir::Op r2;
    r2.kind = ir::OpKind::Relu;
    r2.inputs = {t4};
    r2.name = "r2";
    const int t5 = g.add(std::move(r2));
    ir::Op c3 = rand_conv(4, 6, 3, 0);
    c3.inputs = {t5};
    c3.name = "c3";
    const int t6 = g.add(std::move(c3));
    g.set_output(t6);
    return g;
}

tensor::Tensor random_batch(const tensor::Shape& sample, int n, std::uint64_t seed) {
    tensor::Tensor batch({n, sample.c, sample.h, sample.w});
    common::Rng rng(seed);
    for (std::size_t i = 0; i < batch.size(); ++i)
        batch.data()[i] = rng.next_float();
    return batch;
}

TEST(Partition, ResidualBlockAdmitsOnlyBoundaryCuts) {
    const ir::Graph g = make_residual_graph();
    // Ops: 0 c1, 1 r1, 2 c2, 3 add, 4 r2, 5 c3. Cutting after c2 would
    // strand the skip tensor: {t3, t2} both cross. Everywhere else the
    // live frontier is one tensor.
    EXPECT_EQ(ir::cut_candidates(g), (std::vector<int>{0, 1, 3, 4}));
}

TEST(Partition, BalancedCutsMinimizeTheBottleneck) {
    const ir::Graph g = make_residual_graph();
    const auto shards = ir::partition_graph(g, 2);
    ASSERT_EQ(shards.size(), 2u);
    // Contiguous cover of the op range, boundary tensors chained.
    EXPECT_EQ(shards[0].first_op, 0);
    EXPECT_EQ(shards[1].last_op, static_cast<int>(g.ops().size()) - 1);
    EXPECT_EQ(shards[0].last_op + 1, shards[1].first_op);
    EXPECT_EQ(shards[0].input_tensor, g.input_id());
    EXPECT_EQ(shards[0].output_tensor, shards[1].input_tensor);
    EXPECT_EQ(shards[1].output_tensor, g.output_id());
    EXPECT_LE(shards[0].last_level, shards[1].first_level);
    // Three convs of cost ~{4x4, 4x4, 4x6-ish}: any balanced 2-cut keeps
    // the bottleneck under the whole-graph cost.
    const std::uint64_t total = shards[0].cost + shards[1].cost;
    EXPECT_LT(std::max(shards[0].cost, shards[1].cost), total);

    EXPECT_THROW((void)ir::partition_graph(g, 0), std::invalid_argument);
    // Only 4 cut candidates exist: 6 shards are unreachable.
    EXPECT_THROW((void)ir::partition_graph(g, 6), std::invalid_argument);
    // 4 shards fit the cuts but only 3 convs carry cost: every 3-cut
    // choice strands one shard with zero MAC work, which is refused.
    EXPECT_THROW((void)ir::partition_graph(g, 4), std::invalid_argument);
}

/// Reference liveness scan (the pre-sweep O(ops × tensors) definition):
/// boundary i is a cut iff exactly one tensor crosses it and that tensor
/// is ops[i].output.
std::vector<int> cut_candidates_reference(const ir::Graph& g) {
    const auto& ops = g.ops();
    std::vector<int> last_use = ir::tensor_last_use(g);
    last_use[static_cast<std::size_t>(g.output_id())] = std::numeric_limits<int>::max();
    std::vector<int> producer(static_cast<std::size_t>(g.num_tensors()), -1);
    for (std::size_t i = 0; i < ops.size(); ++i)
        producer[static_cast<std::size_t>(ops[i].output)] = static_cast<int>(i);
    std::vector<int> cuts;
    for (int i = 0; i + 1 < static_cast<int>(ops.size()); ++i) {
        int crossing = 0;
        bool only_own = true;
        for (int t = 0; t < g.num_tensors(); ++t) {
            if (producer[static_cast<std::size_t>(t)] > i) continue;
            if (last_use[static_cast<std::size_t>(t)] <= i) continue;
            ++crossing;
            if (t != ops[static_cast<std::size_t>(i)].output) only_own = false;
        }
        if (crossing == 1 && only_own) cuts.push_back(i);
    }
    return cuts;
}

TEST(Partition, CutCandidateSweepMatchesTheFullLivenessScan) {
    // The single-sweep cut_candidates must reproduce the quadratic
    // reference exactly — on the residual graph (skip connection), on a
    // pure chain, and on a two-block residual with a dangling-relu tail.
    const ir::Graph residual = make_residual_graph();
    EXPECT_EQ(ir::cut_candidates(residual), cut_candidates_reference(residual));
    EXPECT_EQ(ir::cut_candidates(residual), (std::vector<int>{0, 1, 3, 4}));

    ir::Graph chain;
    int t = chain.add_input({1, 4, 8, 8});
    for (int i = 0; i < 5; ++i) {
        ir::Op op;
        op.kind = ir::OpKind::Relu;
        op.inputs = {t};
        op.name = "r" + std::to_string(i);
        t = chain.add(std::move(op));
    }
    chain.set_output(t);
    EXPECT_EQ(ir::cut_candidates(chain), cut_candidates_reference(chain));
    EXPECT_EQ(ir::cut_candidates(chain), (std::vector<int>{0, 1, 2, 3}));

    // Concat whose operands are both in flight: no interior cut.
    ir::Graph branchy;
    const int in = branchy.add_input({1, 2, 4, 4});
    ir::Op a;
    a.kind = ir::OpKind::Relu;
    a.inputs = {in};
    const int ta = branchy.add(std::move(a));
    ir::Op b;
    b.kind = ir::OpKind::MaxPool2d;
    b.pool = {1, 1};
    b.inputs = {in};
    const int tb = branchy.add(std::move(b));
    ir::Op cat;
    cat.kind = ir::OpKind::Concat;
    cat.inputs = {ta, tb};
    const int tc = branchy.add(std::move(cat));
    ir::Op tail;
    tail.kind = ir::OpKind::Relu;
    tail.inputs = {tc};
    const int td = branchy.add(std::move(tail));
    branchy.set_output(td);
    EXPECT_EQ(ir::cut_candidates(branchy), cut_candidates_reference(branchy));
    EXPECT_EQ(ir::cut_candidates(branchy), (std::vector<int>{2}));
}

TEST(Partition, DefaultCostModelIsSystolicCyclesNotMacs) {
    // Three convolutions whose MAC counts and systolic residency
    // disagree hard: L is pipeline-fill/positions-bound (tiny reduction
    // dim -> ~1.6% array utilization) while L2 and H stream wide
    // reductions at high utilization. A MAC-balanced cut and a
    // cycle-balanced cut land at different boundaries, and the pipeline
    // executes cycles, not MACs.
    common::Rng rng(0x5CA1E);
    const auto conv = [&rng](int in_c, int out_c, int k, int stride) {
        ir::Op op;
        op.kind = ir::OpKind::Conv2d;
        op.conv = {in_c, out_c, k, k, stride, 0};
        op.weights.resize(static_cast<std::size_t>(out_c) * in_c * k * k);
        for (float& w : op.weights) w = rng.next_float() - 0.5f;
        op.bias.resize(static_cast<std::size_t>(out_c), 0.0f);
        return op;
    };
    ir::Graph g;
    const int in = g.add_input({1, 2, 32, 32});
    ir::Op l = conv(2, 8, 1, 1);  // low utilization: reduce=2, 1024 positions
    l.inputs = {in};
    l.name = "L";
    const int t1 = g.add(std::move(l));
    ir::Op l2 = conv(8, 64, 4, 4);  // high utilization: reduce=128, 64 positions
    l2.inputs = {t1};
    l2.name = "L2";
    const int t2 = g.add(std::move(l2));
    ir::Op h = conv(64, 64, 1, 1);  // high utilization: reduce=64, 64 positions
    h.inputs = {t2};
    h.name = "H";
    const int t3 = g.add(std::move(h));
    g.set_output(t3);

    // Systolic cycles (64x64 array, fill 128): L = 1024+128 = 1152,
    // L2 = 2 row tiles x (64+128) = 384, H = 64+128 = 192.
    const std::vector<std::uint64_t> cycles = npu::op_cycle_costs(g);
    EXPECT_EQ(cycles, (std::vector<std::uint64_t>{1152, 384, 192}));
    // Raw MACs: L = 2*8*1024 = 16384, L2 = 128*64*64 = 524288,
    // H = 64*64*64 = 262144.
    const std::vector<std::uint64_t> macs{16384, 524288, 262144};

    // MAC balance puts L and L2 together (bottleneck 540672 beats
    // 786432); cycle balance isolates L (bottleneck 1152 beats 1536).
    const auto mac_cut = ir::partition_graph(g, 2, macs);
    EXPECT_EQ(mac_cut[0].last_op, 1);
    const auto default_cut = ir::partition_graph(g, 2);
    EXPECT_EQ(default_cut[0].last_op, 0);
    EXPECT_EQ(default_cut[0].cost, 1152u);
    EXPECT_EQ(default_cut[1].cost, 384u + 192u);
}

TEST(Partition, ChainedSubgraphsReproduceFullFloatExecutionAtEveryBoundary) {
    const ir::Graph g = make_residual_graph();
    const tensor::Tensor batch = random_batch(g.input_shape(), 3, 0xBA7C4);
    // Reference: every intermediate of the full graph, by tensor id.
    const std::vector<tensor::Tensor> full =
        seedref::run_float_all(g, batch.batch_view(0, 3));

    for (const int num_shards : {2, 3}) {
        const auto shards = ir::partition_graph(g, num_shards);
        tensor::Tensor acts = batch;
        for (const ir::ShardSpec& spec : shards) {
            const ir::Subgraph sub = ir::extract_subgraph(g, spec);
            EXPECT_EQ(sub.full_tensor_of.front(), spec.input_tensor);
            EXPECT_EQ(sub.full_tensor_of.back(), spec.output_tensor);
            acts = exec::FloatRunner(sub.graph, 3).run(acts.batch_view(0, 3));
            // The boundary tensor handed to the next shard must be
            // bit-identical to the full execution's intermediate.
            const tensor::Tensor& ref = full[static_cast<std::size_t>(spec.output_tensor)];
            ASSERT_EQ(acts.size(), ref.size()) << num_shards << " shards";
            for (std::size_t i = 0; i < acts.size(); ++i)
                ASSERT_EQ(acts.data()[i], ref.data()[i])
                    << num_shards << " shards, boundary t" << spec.output_tensor;
        }
    }
}

TEST(Partition, SubplansResolveThroughThePlanCachePerPartitionFingerprint) {
    const ir::Graph g = make_residual_graph();
    const auto shards = ir::partition_graph(g, 2);
    const auto before = exec::PlanCache::global().stats();
    const exec::Subplan a = exec::compile_subplan(g, shards[0], 4);
    const exec::Subplan b = exec::compile_subplan(g, shards[1], 4);
    const auto after_compile = exec::PlanCache::global().stats();
    EXPECT_EQ(after_compile.misses - before.misses, 2u);  // two distinct partitions
    // Same partition again: a cache hit returning the same plan.
    const exec::Subplan a2 = exec::compile_subplan(g, shards[0], 4);
    const exec::Subplan b2 = exec::compile_subplan(g, shards[1], 4);
    EXPECT_EQ(a2.plan.get(), a.plan.get());
    EXPECT_EQ(b2.plan.get(), b.plan.get());
    EXPECT_EQ(exec::PlanCache::global().stats().misses, after_compile.misses);
    EXPECT_NE(a.plan->serial(), b.plan->serial());
}

/// Trained-model fixture for the quantized and serving tests (same
/// deployment stack as tests/test_serve.cpp).
class Shard : public ::testing::Test {
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

    /// The deployment a fresh single device serves: minimal compression
    /// at ΔVth = 0 quantized with the fast path (M5).
    [[nodiscard]] static quant::QuantizedGraph fresh_reference() {
        const auto choice = selector_->select(0.0);
        EXPECT_TRUE(choice.has_value());
        return quant::quantize_graph(
            *graph_, quant::Method::M5_AciqNoBias,
            quant::QuantConfig::from_compression(choice->compression), *calib_);
    }

    static data::SyntheticDataset* dataset_;
    static ir::Graph* graph_;
    static quant::CalibrationData* calib_;
    static netlist::Netlist* mac_;
    static cell::Library* library_;
    static core::CompressionSelector* selector_;
    static aging::AgingModel* aging_;
};

data::SyntheticDataset* Shard::dataset_ = nullptr;
ir::Graph* Shard::graph_ = nullptr;
quant::CalibrationData* Shard::calib_ = nullptr;
netlist::Netlist* Shard::mac_ = nullptr;
cell::Library* Shard::library_ = nullptr;
core::CompressionSelector* Shard::selector_ = nullptr;
aging::AgingModel* Shard::aging_ = nullptr;

TEST_F(Shard, SlicedQuantizationIsBitIdenticalIncludingBoundaryTensors) {
    const quant::QuantizedGraph full_q = fresh_reference();
    const auto qconfig = full_q.config();

    const auto shards = ir::partition_graph(*graph_, 3);
    ASSERT_EQ(shards.size(), 3u);

    const tensor::Tensor batch = dataset_->test_batch(0, 4);
    const tensor::Tensor full_logits = quant::run_quantized(full_q, batch.batch_view(0, 4));

    tensor::Tensor acts = batch;
    for (std::size_t k = 0; k < shards.size(); ++k) {
        const exec::Subplan sub = exec::compile_subplan(*graph_, shards[k], 4);
        const quant::CalibrationData sliced =
            quant::slice_calibration(*calib_, sub.full_tensor_of);
        const quant::QuantizedGraph shard_q = quant::quantize_graph(
            *sub.graph, quant::Method::M5_AciqNoBias, qconfig, sliced);
        acts = quant::run_quantized(shard_q, acts.batch_view(0, 4));

        if (k + 1 == shards.size()) break;
        // Boundary check: the cut tensor the chain hands to shard k+1
        // must be bit-identical to a single prefix-shard [0 .. cut] of
        // the full model quantized the same way.
        ir::ShardSpec prefix;
        prefix.first_op = 0;
        prefix.last_op = shards[k].last_op;
        prefix.input_tensor = graph_->input_id();
        prefix.output_tensor = shards[k].output_tensor;
        const ir::Subgraph prefix_sub = ir::extract_subgraph(*graph_, prefix);
        const quant::QuantizedGraph prefix_q = quant::quantize_graph(
            prefix_sub.graph, quant::Method::M5_AciqNoBias, qconfig,
            quant::slice_calibration(*calib_, prefix_sub.full_tensor_of));
        const tensor::Tensor boundary =
            quant::run_quantized(prefix_q, batch.batch_view(0, 4));
        ASSERT_EQ(acts.size(), boundary.size()) << "cut after op " << shards[k].last_op;
        for (std::size_t i = 0; i < acts.size(); ++i)
            ASSERT_EQ(acts.data()[i], boundary.data()[i])
                << "boundary t" << shards[k].output_tensor << " element " << i;
    }

    ASSERT_EQ(acts.size(), full_logits.size());
    for (std::size_t i = 0; i < acts.size(); ++i)
        ASSERT_EQ(acts.data()[i], full_logits.data()[i]) << "logit " << i;
}

TEST_F(Shard, ShardGroupServingIsBitIdenticalToSingleDevice) {
    constexpr int kRequests = 32;
    const quant::QuantizedGraph reference = fresh_reference();

    serve::ServeConfig cfg;
    cfg.num_devices = 2;
    cfg.num_shards = 2;  // one pipeline group across two devices
    cfg.num_workers = 2;
    cfg.max_batch = 4;
    serve::NpuServer server(context(), cfg);
    ASSERT_TRUE(server.sharded());
    ASSERT_EQ(server.num_shard_groups(), 1);
    ASSERT_EQ(server.shard_group(0).num_shards(), 2);

    std::vector<std::future<serve::InferenceResult>> futures;
    futures.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) futures.push_back(server.submit(test_image(i)));
    std::vector<serve::InferenceResult> results;
    results.reserve(kRequests);
    for (auto& f : futures) results.push_back(f.get());
    server.shutdown();

    for (int i = 0; i < kRequests; ++i) {
        const serve::InferenceResult& result = results[static_cast<std::size_t>(i)];
        const tensor::Tensor serial = quant::run_quantized(reference, test_image(i));
        ASSERT_EQ(result.logits.size(), serial.size()) << "request " << i;
        for (std::size_t c = 0; c < serial.size(); ++c)
            ASSERT_EQ(result.logits[c], serial[c]) << "request " << i << " class " << c;
        EXPECT_EQ(result.device_id, 0);     // the group id
        EXPECT_EQ(result.generation, 1u);   // no aging: every shard on gen 1
        EXPECT_GT(result.latency_cycles, 0u);
        EXPECT_GT(result.latency_us, 0.0);
    }

    const serve::FleetStats fleet = server.fleet_stats();
    EXPECT_EQ(fleet.completed, static_cast<std::uint64_t>(kRequests));
    ASSERT_EQ(fleet.devices.size(), 2u);  // one stats row per shard
    for (const serve::DeviceStats& shard : fleet.devices) {
        // Every request flows through every shard of the pipeline.
        EXPECT_EQ(shard.requests, static_cast<std::uint64_t>(kRequests));
        EXPECT_GT(shard.busy_ps, 0.0);
        EXPECT_EQ(shard.generation, 1u);
    }
    // Pipeline latency is the sum of the shard passes: with both shards
    // on the same clock, cycles split exactly across the cut.
    const std::uint64_t chain_cycles =
        server.shard_group(0).shard(0).per_image_cycles() +
        server.shard_group(0).shard(1).per_image_cycles();
    EXPECT_EQ(results[0].latency_cycles % chain_cycles, 0u);
    EXPECT_GT(fleet.sim_throughput_ips(), 0.0);
}

TEST_F(Shard, MalformedRequestFailsInsideThePipelineWithoutKillingIt) {
    serve::ServeConfig cfg;
    cfg.num_devices = 2;
    cfg.num_shards = 2;
    cfg.num_workers = 1;
    cfg.max_batch = 1;  // the bad request fails alone, not a whole batch
    serve::NpuServer server(context(), cfg);

    // n == 1 but the wrong channel count: the batcher accepts it, so the
    // shape check fires inside stage 0 of the pipeline. The stage thread
    // must fail this future and keep the pipeline serving.
    const tensor::Shape sample = graph_->input_shape();
    auto bad =
        server.submit(tensor::Tensor({1, sample.c + 1, sample.h, sample.w}));
    EXPECT_THROW((void)bad.get(), std::invalid_argument);

    auto good = server.submit(test_image(0));
    EXPECT_GE(good.get().predicted_class, 0);
    server.shutdown();
}

TEST_F(Shard, ShardGroupRejectsUnsupportedModes) {
    serve::ServeConfig cfg;
    cfg.num_devices = 2;
    cfg.num_shards = 2;
    cfg.device.flip_probability = 0.01;  // per-request injection: whole-model only
    EXPECT_THROW((serve::NpuServer(context(), cfg)), std::invalid_argument);

    cfg.device.flip_probability = 0.0;
    cfg.device.full_algorithm1 = true;  // needs end-to-end eval
    EXPECT_THROW((serve::NpuServer(context(), cfg)), std::invalid_argument);

    cfg.device.full_algorithm1 = false;
    cfg.num_devices = 3;  // not a multiple of num_shards
    EXPECT_THROW((serve::NpuServer(context(), cfg)), std::invalid_argument);
}

TEST_F(Shard, ShardsRequantizeIndependentlyWithPerShardAgedClocks) {
    constexpr int kRequests = 240;
    constexpr double kThresholdMv = 2.0;

    serve::ServeConfig cfg;
    cfg.num_devices = 2;
    cfg.num_shards = 2;
    cfg.num_workers = 1;
    cfg.max_batch = 4;
    cfg.requant_workers = 2;
    cfg.device.requant_threshold_mv = kThresholdMv;

    // Scale acceleration so the lighter shard still ends around 8 mV —
    // both shards then cross the 2 mV threshold while traffic flows.
    {
        serve::NpuServer probe(context(), cfg);
        const auto& group = probe.shard_group(0);
        double min_busy_hours_per_request = 1e300;
        for (int k = 0; k < group.num_shards(); ++k)
            min_busy_hours_per_request = std::min(
                min_busy_hours_per_request,
                static_cast<double>(group.shard(k).per_image_cycles()) *
                    group.shard(k).clock_period_ps() * 1e-12 / 3600.0);
        cfg.device.age_acceleration = aging_->years_for_dvth(8.0) * 8760.0 /
                                      (kRequests * min_busy_hours_per_request);
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

    const auto& group = server.shard_group(0);
    int total_requants = 0;
    std::uint64_t max_generation = 0;
    for (int k = 0; k < group.num_shards(); ++k) {
        const serve::DeviceStats stats = group.shard(k).stats();
        std::uint64_t prev = 1;
        for (const serve::RequantEvent& event : stats.requant_events) {
            EXPECT_EQ(event.generation, prev + 1) << "shard " << k;
            EXPECT_TRUE(event.background) << "shard " << k;
            EXPECT_GE(event.dvth_mv, kThresholdMv) << "shard " << k;
            // The shard's clock tracks its own deployment's aged delay.
            EXPECT_DOUBLE_EQ(event.aged_delay_ps,
                             selector_->delay_ps(event.dvth_mv, event.after))
                << "shard " << k;
            prev = event.generation;
            ++total_requants;
        }
        EXPECT_EQ(stats.generation, prev) << "shard " << k;
        if (!stats.requant_events.empty()) {
            EXPECT_DOUBLE_EQ(stats.clock_period_ps,
                             stats.requant_events.back().aged_delay_ps)
                << "shard " << k;
        }
        max_generation = std::max(max_generation, stats.generation);
    }
    EXPECT_GE(total_requants, 2);
    EXPECT_GT(max_generation, 1u);

    // Results report the oldest generation in their chain — never newer
    // than any shard that served them, and every promise was fulfilled.
    for (const serve::InferenceResult& result : results) {
        EXPECT_GE(result.generation, 1u);
        EXPECT_LE(result.generation, max_generation);
        EXPECT_GE(result.predicted_class, 0);
    }
}

}  // namespace
