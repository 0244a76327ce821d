// Tests for the planned execution engine (src/exec/).
//
// The contract under test is strict bit-identity: planned execution (with
// arena reuse, cache-tiled integer GEMM, zero-copy batch views) must
// reproduce the seed interpreters to the last bit. Both references live in
// tests/seed_interpreter_ref.hpp (shared with bench/exec_throughput), so
// the library carries one executor: the FP32 oracle is
// seedref::run_float_all, the quantized one seedref::run_quantized. The
// engine's per-tensor visit, and calibration streamed off it, are checked
// against the FP32 oracle tensor by tensor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <thread>

#include "exec/engine.hpp"
#include "exec/kernels.hpp"
#include "exec/kernels_simd.hpp"
#include "exec/plan_cache.hpp"
#include "exec/quant_backend.hpp"
#include "nn/zoo.hpp"
#include "quant/calibration.hpp"
#include "quant/evaluate.hpp"
#include "quant/methods.hpp"
#include "quant/quant_executor.hpp"
#include "seed_interpreter_ref.hpp"

namespace {

using namespace raq;

// ------------------------------------------------------------- fixtures

ir::Op relu_op(int in) {
    ir::Op op;
    op.kind = ir::OpKind::Relu;
    op.inputs = {in};
    return op;
}

ir::Op pool_op(int in, int kernel, int stride) {
    ir::Op op;
    op.kind = ir::OpKind::MaxPool2d;
    op.inputs = {in};
    op.pool = {kernel, stride};
    return op;
}

ir::Op gap_op(int in) {
    ir::Op op;
    op.kind = ir::OpKind::GlobalAvgPool;
    op.inputs = {in};
    return op;
}

ir::Op conv_op(int in, int in_c, int out_c, int k, int stride, int pad, std::mt19937& rng) {
    ir::Op op;
    op.kind = ir::OpKind::Conv2d;
    op.inputs = {in};
    op.conv = {in_c, out_c, k, k, stride, pad};
    op.weights.resize(static_cast<std::size_t>(out_c * in_c * k * k));
    op.bias.resize(static_cast<std::size_t>(out_c));
    std::uniform_real_distribution<float> dist(-0.5f, 0.5f);
    for (auto& w : op.weights) w = dist(rng);
    for (auto& b : op.bias) b = 0.1f * dist(rng);
    return op;
}

/// Straight conv/relu/pool/gap chain, a lowered-FC classifier at the end.
ir::Graph chain_graph(unsigned seed = 7) {
    std::mt19937 rng(seed);
    ir::Graph g;
    const int in = g.add_input({1, 3, 8, 8});
    const int c1 = g.add(conv_op(in, 3, 8, 3, 1, 1, rng));
    const int r1 = g.add(relu_op(c1));
    const int p1 = g.add(pool_op(r1, 2, 2));
    const int c2 = g.add(conv_op(p1, 8, 12, 3, 1, 1, rng));
    const int r2 = g.add(relu_op(c2));
    const int gp = g.add(gap_op(r2));
    g.set_output(g.add(conv_op(gp, 12, 5, 1, 1, 0, rng)));
    return g;
}

/// Branching graph: a residual Add plus a fire-style Concat, so several
/// intermediates are live at once and arena aliasing is actually at risk.
ir::Graph branch_graph(unsigned seed = 11) {
    std::mt19937 rng(seed);
    ir::Graph g;
    const int in = g.add_input({1, 3, 8, 8});
    const int c0 = g.add(conv_op(in, 3, 6, 3, 1, 1, rng));
    const int r0 = g.add(relu_op(c0));
    const int sq = g.add(conv_op(r0, 6, 4, 1, 1, 0, rng));
    const int rs = g.add(relu_op(sq));
    const int a1 = g.add(conv_op(rs, 4, 8, 3, 1, 1, rng));
    const int ra = g.add(relu_op(a1));
    const int a2 = g.add(conv_op(rs, 4, 8, 1, 1, 0, rng));
    ir::Op add;
    add.kind = ir::OpKind::Add;
    add.inputs = {ra, a2};
    const int sum = g.add(add);
    const int e1 = g.add(conv_op(rs, 4, 8, 1, 1, 0, rng));
    ir::Op cat;
    cat.kind = ir::OpKind::Concat;
    cat.inputs = {sum, e1};
    const int cc = g.add(cat);
    const int c3 = g.add(conv_op(cc, 16, 4, 1, 1, 0, rng));
    const int gp = g.add(gap_op(c3));
    g.set_output(g.add(conv_op(gp, 4, 3, 1, 1, 0, rng)));
    return g;
}

tensor::Tensor random_batch(int n, unsigned seed = 3) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> dist(-1.0f, 2.0f);
    tensor::Tensor batch({n, 3, 8, 8});
    for (auto& v : batch.vec()) v = dist(rng);
    return batch;
}

quant::QuantizedGraph quantize(const ir::Graph& graph, quant::Method method,
                               const quant::QuantConfig& config) {
    const tensor::Tensor calib_images = random_batch(12, 5);
    std::vector<int> labels(12, 0);
    const auto calib = quant::calibrate(graph, calib_images, labels);
    return quant::quantize_graph(graph, method, config, calib);
}

void expect_bitwise_equal(tensor::TensorView a, const tensor::Tensor& b, const char* what) {
    ASSERT_EQ(a.shape, b.shape()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.data[i], b[i]) << what << " element " << i;
}

// ----------------------------------------------------------------- tests

TEST(ExecFloat, PlannedMatchesReferenceWalker) {
    for (const auto& graph : {chain_graph(), branch_graph()}) {
        exec::FloatRunner runner(graph, 4);
        for (const int n : {1, 2, 4}) {
            const tensor::Tensor batch = random_batch(n, 20 + static_cast<unsigned>(n));
            const auto reference = seedref::run_float_all(graph, batch);
            const tensor::Tensor planned = runner.run(batch);
            expect_bitwise_equal(
                planned, reference[static_cast<std::size_t>(graph.output_id())], "float");
        }
    }
}

TEST(ExecQuant, PlannedMatchesSeedInterpreter) {
    // Per-tensor asymmetric (zero-point corrections exercised), per-channel
    // ACIQ, and an LSB-padded low-bit config (shift path in the stats).
    const auto lsb_cfg = quant::QuantConfig::from_compression({2, 3, common::Padding::Lsb});
    const struct {
        quant::Method method;
        quant::QuantConfig config;
    } cases[] = {
        {quant::Method::M2_MinMaxAsymmetric, quant::QuantConfig{}},
        {quant::Method::M4_Aciq, quant::QuantConfig{}},
        {quant::Method::M5_AciqNoBias, lsb_cfg},
    };
    for (const auto& graph : {chain_graph(), branch_graph()}) {
        for (const auto& c : cases) {
            auto qgraph = quantize(graph, c.method, c.config);
            // Exercise the precision-scaling mask on one conv as well.
            for (std::size_t op = 0; op < qgraph.graph().ops().size(); ++op) {
                if (qgraph.graph().ops()[op].kind != ir::OpKind::Conv2d) continue;
                qgraph.conv(op).act_mask_bits = 2;
                break;
            }
            const tensor::Tensor batch = random_batch(3, 31);
            quant::QuantExecStats ref_stats, planned_stats;
            const tensor::Tensor reference =
                seedref::run_quantized(qgraph, batch, nullptr, &ref_stats);
            const tensor::Tensor planned =
                quant::run_quantized(qgraph, batch, nullptr, &planned_stats);
            expect_bitwise_equal(planned, reference, "quant");
            EXPECT_EQ(planned_stats.mac_count, ref_stats.mac_count);
            EXPECT_EQ(planned_stats.max_abs_accumulator, ref_stats.max_abs_accumulator);
            EXPECT_EQ(planned_stats.accumulator_overflows, ref_stats.accumulator_overflows);
        }
    }
}

TEST(ExecQuant, InjectionStreamMatchesSeedInterpreter) {
    const auto qgraph = quantize(branch_graph(), quant::Method::M4_Aciq, quant::QuantConfig{});
    const tensor::Tensor batch = random_batch(2, 47);
    inject::InjectionConfig cfg;
    cfg.flip_probability = 5e-3;
    cfg.seed = 99;

    inject::BitFlipInjector ref_injector(cfg);
    quant::QuantExecStats ref_stats;
    const tensor::Tensor reference =
        seedref::run_quantized(qgraph, batch, &ref_injector, &ref_stats);

    inject::BitFlipInjector planned_injector(cfg);
    quant::QuantExecStats planned_stats;
    const tensor::Tensor planned =
        quant::run_quantized(qgraph, batch, &planned_injector, &planned_stats);

    // The injector is a seeded RNG stream: bit-identical logits prove the
    // engine preserves the seed's exact per-product hook order.
    expect_bitwise_equal(planned, reference, "injected");
    EXPECT_GT(planned_injector.flips_injected(), 0u);
    EXPECT_EQ(planned_injector.flips_injected(), ref_injector.flips_injected());
    EXPECT_EQ(planned_stats.flips, ref_stats.flips);
    EXPECT_EQ(planned_stats.mac_count, ref_stats.mac_count);
}

TEST(ExecPlan, ArenaAliasesDeadIntermediatesSafely) {
    const ir::Graph graph = branch_graph();
    const exec::ExecPlan plan(graph, exec::PlanOptions{2});
    // Reuse must actually happen on a branching graph...
    EXPECT_LT(plan.arena_floats(), plan.total_tensor_floats());
    // ...without perturbing a single output bit (checked via the oracle).
    exec::FloatBackend backend;
    exec::ExecContext ctx;
    const tensor::Tensor batch = random_batch(2, 13);
    const tensor::Tensor planned = exec::run(plan, backend, ctx, batch);
    const auto reference = seedref::run_float_all(graph, batch);
    expect_bitwise_equal(planned, reference[static_cast<std::size_t>(graph.output_id())],
                         "arena");
}

TEST(ExecContext, BuffersStartOnACacheLine) {
    // The arena and every conv workspace a run touched start on a 64-byte
    // line, wherever the heap would have put a plain vector.
    const auto on_line = [](const void* p) {
        return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
    };
    const auto qgraph = quantize(branch_graph(), quant::Method::M4_Aciq, quant::QuantConfig{});
    const exec::ExecPlan qplan(qgraph.graph(), exec::PlanOptions{2});
    exec::QuantBackend qbackend(qgraph);
    exec::ExecContext qctx;
    (void)exec::run(qplan, qbackend, qctx, random_batch(2, 5));
    const exec::ConvScratch& q = qctx.scratch;
    EXPECT_TRUE(on_line(qctx.arena.data()));
    EXPECT_TRUE(on_line(q.qx.data()));
    EXPECT_TRUE(on_line(q.u8_columns.data()));
    EXPECT_TRUE(on_line(q.colsum.data()));
    EXPECT_TRUE(on_line(q.acc32.data()));
    EXPECT_TRUE(on_line(q.acc64.data()));
    if (!q.packed.empty()) {  // the packed GEMM tiers only
        EXPECT_TRUE(on_line(q.packed.data()));
        EXPECT_TRUE(on_line(q.wprep.data()));
    }

    const ir::Graph graph = branch_graph();
    const exec::ExecPlan fplan(graph, exec::PlanOptions{2});
    exec::FloatBackend fbackend;
    exec::ExecContext fctx;
    (void)exec::run(fplan, fbackend, fctx, random_batch(2, 5));
    EXPECT_TRUE(on_line(fctx.arena.data()));
    EXPECT_TRUE(on_line(fctx.scratch.columns.data()));
    EXPECT_TRUE(on_line(fctx.scratch.product.data()));
}

TEST(ExecPlan, ArenaNeverOverlapsLiveTensorsOnEveryZooTopology) {
    // The one arena rule: a tensor owns its region from its producer op
    // through its last consumer (the graph output through the end of the
    // run). Two tensors live at a common op must occupy disjoint ranges,
    // which includes an op's output against the inputs it reads.
    for (const std::string& name : nn::all_networks()) {
        const ir::Graph graph = nn::make_network(name).export_ir();  // untrained
        const auto& ops = graph.ops();
        const std::vector<int> last_use = ir::tensor_last_use(graph);
        for (const int capacity : {1, 8}) {
            const exec::ExecPlan plan(graph, exec::PlanOptions{capacity});
            const std::vector<tensor::Shape> shapes = ir::infer_shapes(graph, capacity);
            struct Live {
                int id, first_op, last_op;
                std::size_t begin, end;
            };
            std::vector<Live> live;
            for (std::size_t i = 0; i < ops.size(); ++i) {
                const int id = ops[i].output;
                const int first = static_cast<int>(i);
                const int last = id == graph.output_id()
                                     ? static_cast<int>(ops.size())
                                     : std::max(first, last_use[static_cast<std::size_t>(id)]);
                const std::size_t begin = plan.offset_of(id);
                const std::size_t end = begin + shapes[static_cast<std::size_t>(id)].size();
                ASSERT_LE(end, plan.arena_floats()) << name << " tensor " << id;
                live.push_back(Live{id, first, last, begin, end});
            }
            for (std::size_t a = 0; a < live.size(); ++a)
                for (std::size_t b = a + 1; b < live.size(); ++b) {
                    const Live& x = live[a];
                    const Live& y = live[b];
                    if (x.last_op < y.first_op || y.last_op < x.first_op) continue;
                    EXPECT_TRUE(x.end <= y.begin || y.end <= x.begin)
                        << name << " at capacity " << capacity << ": tensors " << x.id
                        << " and " << y.id << " are live together and share arena floats";
                }
        }
    }
}

TEST(ExecPlan, RejectsOversizedBatchesAndBadShapes) {
    const ir::Graph graph = chain_graph();
    const exec::ExecPlan plan(graph, exec::PlanOptions{2});
    exec::FloatBackend backend;
    exec::ExecContext ctx;
    EXPECT_THROW((void)exec::run(plan, backend, ctx, random_batch(3)),
                 std::invalid_argument);
    const tensor::Tensor wrong({1, 4, 8, 8});
    EXPECT_THROW((void)exec::run(plan, backend, ctx, wrong), std::invalid_argument);
    EXPECT_THROW(exec::ExecPlan(graph, exec::PlanOptions{0}), std::invalid_argument);
}

TEST(ExecRunner, CapacityGrowsOnDemand) {
    const ir::Graph graph = chain_graph();
    const auto qgraph = quantize(graph, quant::Method::M2_MinMaxAsymmetric, {});
    quant::QuantRunner small(qgraph, 2);
    const tensor::Tensor batch = random_batch(6, 77);
    const tensor::Tensor grown = small.run(batch);
    EXPECT_GE(small.plan().batch_capacity(), 6);
    expect_bitwise_equal(grown, seedref::run_quantized(qgraph, batch), "grown");
}

TEST(ExecRunner, RebindSwapsPayloadOnSharedPlan) {
    const ir::Graph graph = branch_graph();
    const auto qa = quantize(graph, quant::Method::M2_MinMaxAsymmetric, {});
    const auto qb = quantize(graph, quant::Method::M4_Aciq, {});
    const tensor::Tensor batch = random_batch(2, 91);

    quant::QuantRunner runner(qa, 2);
    expect_bitwise_equal(runner.run(batch), seedref::run_quantized(qa, batch), "bind a");
    runner.rebind(qb);
    expect_bitwise_equal(runner.run(batch), seedref::run_quantized(qb, batch), "rebind b");

    const auto other = quantize(chain_graph(), quant::Method::M2_MinMaxAsymmetric, {});
    EXPECT_THROW(runner.rebind(other), std::invalid_argument);
}

TEST(ExecThreading, ConcurrentContextReuseMatchesSerial) {
    // The serve worker-pool pattern: one immutable shared plan, one
    // (context, backend) pair per thread, each reused across many runs.
    const ir::Graph graph = branch_graph();
    const auto qgraph = quantize(graph, quant::Method::M2_MinMaxAsymmetric, {});
    const exec::ExecPlan plan(qgraph.graph(), exec::PlanOptions{1});
    constexpr int kThreads = 4;
    constexpr int kRunsPerThread = 8;

    const tensor::Tensor images = random_batch(kThreads * kRunsPerThread, 55);
    std::vector<tensor::Tensor> serial(static_cast<std::size_t>(images.shape().n));
    {
        exec::QuantBackend backend(qgraph);
        exec::ExecContext ctx;
        for (int i = 0; i < images.shape().n; ++i)
            serial[static_cast<std::size_t>(i)] =
                exec::run(plan, backend, ctx, images.batch_view(i, 1));
    }

    std::vector<tensor::Tensor> parallel(static_cast<std::size_t>(images.shape().n));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            exec::QuantBackend backend(qgraph);  // per-thread mutable halves
            exec::ExecContext ctx;
            for (int r = 0; r < kRunsPerThread; ++r) {
                const int i = t * kRunsPerThread + r;
                parallel[static_cast<std::size_t>(i)] =
                    exec::run(plan, backend, ctx, images.batch_view(i, 1));
            }
        });
    }
    for (auto& thread : threads) thread.join();
    for (int i = 0; i < images.shape().n; ++i)
        expect_bitwise_equal(parallel[static_cast<std::size_t>(i)],
                             serial[static_cast<std::size_t>(i)], "concurrent");
}

/// Odd-everything graph: odd spatial dims (cols = n·oh·ow never a
/// multiple of any SIMD column group), odd channel counts (row-block
/// remainders) and odd kdim (k-pair padding in the packed pipeline) —
/// every remainder path of every microkernel runs.
ir::Graph odd_graph(unsigned seed = 17) {
    std::mt19937 rng(seed);
    ir::Graph g;
    const int in = g.add_input({1, 3, 7, 7});
    const int c1 = g.add(conv_op(in, 3, 5, 3, 1, 1, rng));   // kdim 27, cols n·49
    const int r1 = g.add(relu_op(c1));
    const int c2 = g.add(conv_op(r1, 5, 7, 3, 2, 0, rng));   // kdim 45, cols n·9
    const int r2 = g.add(relu_op(c2));
    const int gp = g.add(gap_op(r2));
    g.set_output(g.add(conv_op(gp, 7, 3, 1, 1, 0, rng)));    // kdim 7, cols n
    return g;
}

TEST(ExecSimd, EveryDispatchTierMatchesScalarBitForBit) {
    // The whole SIMD contract in one sweep: every available tier (plain
    // and packed pipelines, vectorized quantize/colsum/epilogue) against
    // the scalar reference, across zero-point-heavy asymmetric quant,
    // per-channel ACIQ, an LSB-padded low-bit config with an act_mask,
    // and graphs with odd remainders in every GEMM dimension.
    const auto lsb_cfg = quant::QuantConfig::from_compression({2, 3, common::Padding::Lsb});
    const struct {
        quant::Method method;
        quant::QuantConfig config;
    } cases[] = {
        {quant::Method::M2_MinMaxAsymmetric, quant::QuantConfig{}},
        {quant::Method::M4_Aciq, quant::QuantConfig{}},
        {quant::Method::M5_AciqNoBias, lsb_cfg},
    };
    const auto shaped_batch = [](const ir::Graph& g, int n, unsigned seed) {
        std::mt19937 rng(seed);
        std::uniform_real_distribution<float> dist(-1.0f, 2.0f);
        tensor::Tensor batch(
            {n, g.input_shape().c, g.input_shape().h, g.input_shape().w});
        for (auto& v : batch.vec()) v = dist(rng);
        return batch;
    };
    for (const auto& graph : {chain_graph(), branch_graph(), odd_graph()}) {
        for (const auto& c : cases) {
            const tensor::Tensor calib_images = shaped_batch(graph, 12, 5);
            const std::vector<int> labels(12, 0);
            auto qgraph = quant::quantize_graph(
                graph, c.method, c.config,
                quant::calibrate(graph, calib_images, labels));
            for (std::size_t op = 0; op < qgraph.graph().ops().size(); ++op) {
                if (qgraph.graph().ops()[op].kind != ir::OpKind::Conv2d) continue;
                qgraph.conv(op).act_mask_bits = 2;
                break;
            }
            const tensor::Tensor batch = shaped_batch(graph, 3, 131);
            quant::QuantRunner scalar_runner(qgraph, 3);
            scalar_runner.set_kernel_tier(exec::kernels_simd::KernelTier::Scalar);
            const tensor::Tensor reference = scalar_runner.run(batch);
            for (const auto tier : exec::kernels_simd::available_tiers()) {
                if (tier == exec::kernels_simd::KernelTier::Scalar) continue;
                quant::QuantRunner runner(qgraph, 3);
                runner.set_kernel_tier(tier);
                EXPECT_EQ(runner.kernel_tier(), tier);
                expect_bitwise_equal(runner.run(batch), reference,
                                     exec::kernels_simd::tier_name(tier));
            }
        }
    }
}

TEST(ExecSimd, KernelFamiliesMatchScalarOnOddShapes) {
    // Direct microkernel-level check, below the conv plumbing: unpacked
    // and packed GEMMs of every tier against the scalar kernel, with the
    // packed weights prepared by each tier's own prep. The shapes leave
    // row tails of 3/2/1 (compile-time row tiles), every kdim residue mod 4
    // (k-pair and k-quad padding) and n % 16 != 0 (column-group tails).
    // Codes 0, 127, 128 and 255 are forced into both operands — the edges
    // of the s8 fold w ^ 0x80 — along with an all-255 and an all-0 weight
    // row and an all-255 activation column (the extreme accumulators).
    const struct {
        std::size_t rows, kdim, n;
    } shapes[] = {{5, 7, 33},  {7, 27, 100}, {13, 61, 257}, {4, 64, 96},
                  {6, 30, 47}, {2, 2, 31},   {3, 1, 16},    {9, 45, 40}};
    constexpr std::uint8_t kEdges[] = {0, 127, 128, 255};
    std::mt19937 rng(271);
    std::uniform_int_distribution<int> byte(0, 255);
    const auto fill = [&](std::vector<std::uint8_t>& v) {
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = i % 3 == 0 ? kEdges[(i / 3) % 4] : static_cast<std::uint8_t>(byte(rng));
    };
    const auto scalar = exec::kernels_simd::gemm_u8_kernel(
        exec::kernels_simd::KernelTier::Scalar);
    ASSERT_NE(scalar, nullptr);
    for (const auto& s : shapes) {
        std::vector<std::uint8_t> w(s.rows * s.kdim), cols(s.kdim * s.n);
        fill(w);
        fill(cols);
        std::fill(w.begin(), w.begin() + static_cast<std::ptrdiff_t>(s.kdim), 255);
        if (s.rows > 1)
            std::fill(w.begin() + static_cast<std::ptrdiff_t>(s.kdim),
                      w.begin() + static_cast<std::ptrdiff_t>(2 * s.kdim), 0);
        for (std::size_t k = 0; k < s.kdim; ++k) cols[k * s.n] = 255;
        std::vector<std::int32_t> ref(s.rows * s.n), acc(s.rows * s.n), colsum(s.n, 0);
        scalar(w.data(), s.kdim, s.rows, cols.data(), s.n, s.kdim, s.n, ref.data(), s.n);
        for (std::size_t k = 0; k < s.kdim; ++k)
            for (std::size_t j = 0; j < s.n; ++j) colsum[j] += cols[k * s.n + j];
        for (const auto tier : exec::kernels_simd::available_tiers()) {
            if (tier == exec::kernels_simd::KernelTier::Scalar) continue;
            const char* name = exec::kernels_simd::tier_name(tier);
            if (const auto kernel = exec::kernels_simd::gemm_u8_kernel(tier)) {
                std::fill(acc.begin(), acc.end(), -1);
                kernel(w.data(), s.kdim, s.rows, cols.data(), s.n, s.kdim, s.n, acc.data(),
                       s.n);
                EXPECT_EQ(acc, ref) << "unpacked " << name;
            }

            const auto pk = exec::kernels_simd::packed_kernels(tier);
            if (pk.gemm == nullptr) continue;
            const std::size_t jv = s.n - s.n % pk.col_group;  // full column groups
            if (jv == 0) continue;
            std::vector<std::uint8_t> prepped(s.rows * pk.weight_row_bytes(s.kdim));
            pk.prep(w.data(), s.rows, s.kdim, prepped.data());
            std::vector<std::uint8_t> panel(pk.panel_bytes(s.kdim, jv));
            pk.pack(cols.data(), s.n, s.kdim, jv, panel.data());
            std::fill(acc.begin(), acc.end(), -1);
            pk.gemm(prepped.data(), s.rows, panel.data(), s.kdim, jv, acc.data(), s.n);
            // The packed GEMM sums (w − w_offset)·a; the epilogue adds the
            // offset back through colsum.
            for (std::size_t r = 0; r < s.rows; ++r)
                for (std::size_t j = 0; j < jv; ++j)
                    ASSERT_EQ(std::int64_t{acc[r * s.n + j]} +
                                  std::int64_t{pk.w_offset} * colsum[j],
                              ref[r * s.n + j])
                        << "packed " << name << " rows=" << s.rows << " kdim=" << s.kdim
                        << " r=" << r << " j=" << j;
        }
    }
}

TEST(ExecSimd, ExtremeZeroPointsMatchScalarAtConvLevel) {
    // The weight-offset fold through the whole conv path (prep, pack,
    // GEMM, scalar column tail, epilogue), on one-conv graphs so every
    // accumulator reaches the output. Per-channel weight zero-points
    // alternate 0 and 255, weight codes include 0/127/128/255, and most
    // activation codes sit at qmax or 0. kdim takes every residue mod 4,
    // out_c leaves 2/3/1-row tails, and 3·81 = 243 columns leave a
    // column-group tail.
    const struct {
        int in_c, out_c, k, pad;
    } convs[] = {{2, 6, 1, 0}, {3, 7, 3, 1}, {5, 5, 1, 0}, {4, 8, 3, 1}};
    constexpr std::uint8_t kEdges[] = {0, 127, 128, 255};
    std::mt19937 rng(29);
    for (const auto& c : convs) {
        ir::Graph graph;
        const int in = graph.add_input({1, c.in_c, 9, 9});
        graph.set_output(graph.add(conv_op(in, c.in_c, c.out_c, c.k, 1, c.pad, rng)));
        tensor::Tensor batch({3, c.in_c, 9, 9});
        std::uniform_real_distribution<float> dist(-0.5f, 3.0f);
        for (auto& v : batch.vec()) v = dist(rng);
        auto qgraph = quant::quantize_graph(graph, quant::Method::M2_MinMaxAsymmetric,
                                            quant::QuantConfig{},
                                            quant::calibrate(graph, batch, {0, 0, 0}));
        quant::QConv& qc = qgraph.conv(0);  // the graph's only op
        std::vector<quant::QuantParams> wq(static_cast<std::size_t>(c.out_c), qc.wq(0));
        for (std::size_t oc = 0; oc < wq.size(); ++oc) wq[oc].zero_point = oc % 2 == 0 ? 0 : 255;
        qc.weight_q = wq;
        for (std::size_t i = 0; i < qc.qweights.size(); i += 3)
            qc.qweights[i] = kEdges[(i / 3) % 4];
        qc.act.scale = 2.0f / 255.0f;  // inputs above 2 quantize to qmax
        quant::QuantRunner scalar_runner(qgraph, 3);
        scalar_runner.set_kernel_tier(exec::kernels_simd::KernelTier::Scalar);
        const tensor::Tensor reference = scalar_runner.run(batch);
        for (const auto tier : exec::kernels_simd::available_tiers()) {
            if (tier == exec::kernels_simd::KernelTier::Scalar) continue;
            quant::QuantRunner runner(qgraph, 3);
            runner.set_kernel_tier(tier);
            expect_bitwise_equal(runner.run(batch), reference,
                                 exec::kernels_simd::tier_name(tier));
        }
    }
}

/// im2col against a per-element walk of the column matrix. The output
/// starts as `poison`, and zero_first is set only when pad > 0 (as
/// ExecPlan does), so a slot the kernel leaves unwritten fails.
template <typename T, typename Im2col>
void expect_im2col_matches_reference(Im2col im2col, const std::vector<T>& in,
                                     const tensor::Shape& s, int kh, int kw, int stride,
                                     int pad, T poison) {
    const int oh = (s.h + 2 * pad - kh) / stride + 1;
    const int ow = (s.w + 2 * pad - kw) / stride + 1;
    const std::size_t cols = static_cast<std::size_t>(s.n * oh * ow);
    std::vector<T> got(static_cast<std::size_t>(s.c * kh * kw) * cols, poison);
    im2col(in.data(), s, kh, kw, stride, pad, got.data(), oh, ow, pad > 0);
    std::size_t slot = 0;
    for (int c = 0; c < s.c; ++c)
        for (int ky = 0; ky < kh; ++ky)
            for (int kx = 0; kx < kw; ++kx)
                for (int n = 0; n < s.n; ++n)
                    for (int oy = 0; oy < oh; ++oy)
                        for (int ox = 0; ox < ow; ++ox, ++slot) {
                            const int iy = oy * stride - pad + ky;
                            const int ix = ox * stride - pad + kx;
                            const bool inside = iy >= 0 && iy < s.h && ix >= 0 && ix < s.w;
                            const T want =
                                inside ? in[static_cast<std::size_t>(
                                             ((n * s.c + c) * s.h + iy) * s.w + ix)]
                                       : T{0};
                            ASSERT_EQ(got[slot], want)
                                << "n=" << s.n << " c=" << s.c << " plane " << s.h << "x"
                                << s.w << " kernel " << kh << "x" << kw << " stride "
                                << stride << " pad " << pad << " at c=" << c
                                << " ky=" << ky << " kx=" << kx << " n=" << n
                                << " oy=" << oy << " ox=" << ox;
                        }
}

TEST(ExecKernels, Im2colMatchesPerElementReferenceOverGeometries) {
    const int kernels[][2] = {{1, 1}, {1, 3}, {3, 1}, {2, 2}, {3, 3}};
    const int planes[][2] = {{1, 1}, {2, 2}, {4, 4}, {5, 7}, {16, 16}};
    std::mt19937 rng(97);
    std::uniform_int_distribution<int> code(1, 255);
    std::uniform_real_distribution<float> real(-4.0f, 4.0f);
    for (const auto& k : kernels)
        for (const auto& p : planes)
            for (const int n : {1, 3})
                for (const int c : {1, 3})
                    for (const int stride : {1, 2})
                        for (int pad = 0; pad <= 2; ++pad) {
                            if (p[0] + 2 * pad < k[0] || p[1] + 2 * pad < k[1]) continue;
                            const tensor::Shape s{n, c, p[0], p[1]};
                            std::vector<std::uint8_t> qx(s.size());
                            for (auto& v : qx) v = static_cast<std::uint8_t>(code(rng));
                            ASSERT_NO_FATAL_FAILURE(expect_im2col_matches_reference(
                                exec::kernels::im2col_u8, qx, s, k[0], k[1], stride, pad,
                                std::uint8_t{0xA5}));
                            std::vector<float> x(s.size());
                            for (auto& v : x) v = real(rng);
                            ASSERT_NO_FATAL_FAILURE(expect_im2col_matches_reference(
                                exec::kernels::im2col, x, s, k[0], k[1], stride, pad,
                                -99.0f));
                        }
}

TEST(ExecVisit, VisitsEveryTensorOnceInScheduleOrderWithOracleValues) {
    // The input first, then each op output in schedule order, each with
    // the oracle's value at visit time — before any later op reuses its
    // arena region. A fresh context per run keeps a previous run's values
    // out of the arena.
    unsigned seed = 300;
    for (const auto& graph : {chain_graph(), branch_graph()}) {
        const exec::ExecPlan plan(graph, exec::PlanOptions{4});
        std::vector<int> expected_order{graph.input_id()};
        for (const exec::OpStep& step : plan.schedule())
            expected_order.push_back(graph.ops()[static_cast<std::size_t>(step.op_index)].output);
        for (const int n : {1, 2, 4}) {
            const tensor::Tensor batch = random_batch(n, ++seed);
            const auto reference = seedref::run_float_all(graph, batch);
            std::vector<int> order;
            exec::FloatBackend backend;
            exec::ExecContext ctx;
            exec::RunOptions options;
            options.visit = [&](int id, tensor::TensorView t) {
                order.push_back(id);
                expect_bitwise_equal(t, reference[static_cast<std::size_t>(id)], "visit");
            };
            const tensor::Tensor out = exec::run(plan, backend, ctx, batch, options);
            EXPECT_EQ(order, expected_order) << "n=" << n;
            expect_bitwise_equal(out, reference[static_cast<std::size_t>(graph.output_id())],
                                 "visited run output");
        }
    }
}

TEST(ExecVisit, CalibrationStatsMatchOracleOnEveryZooTopology) {
    // quant::calibrate streams its statistics off the engine's visit; they
    // must be byte-identical to compute_stats over every oracle tensor.
    for (const std::string& name : nn::all_networks()) {
        const ir::Graph graph = nn::make_network(name).export_ir();  // untrained
        const tensor::Shape in = graph.input_shape();
        tensor::Tensor images({8, in.c, in.h, in.w});
        std::mt19937 rng(17);
        std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
        for (auto& v : images.vec()) v = dist(rng);
        const quant::CalibrationData calib =
            quant::calibrate(graph, images, std::vector<int>(8, 0));
        const auto reference = seedref::run_float_all(graph, images);
        ASSERT_EQ(calib.per_tensor.size(), reference.size()) << name;
        for (std::size_t id = 0; id < reference.size(); ++id) {
            const quant::TensorStats expected =
                quant::compute_stats(reference[id].data(), reference[id].size());
            EXPECT_EQ(std::memcmp(&calib.per_tensor[id], &expected, sizeof expected), 0)
                << name << " tensor " << id;
        }
    }
}

TEST(TensorView, BatchViewIsZeroCopyAndEquivalent) {
    const tensor::Tensor images = random_batch(6, 42);
    const tensor::TensorView view = images.batch_view(2, 3);
    EXPECT_EQ(view.data, images.data() + 2 * images.size() / 6);  // aliases, no copy
    EXPECT_EQ(view.shape.n, 3);
    EXPECT_THROW((void)images.batch_view(4, 3), std::out_of_range);
    EXPECT_THROW((void)images.batch_view(-1, 2), std::out_of_range);

    // Running a view is identical to running a materialised copy.
    const ir::Graph graph = chain_graph();
    tensor::Tensor copy({3, 3, 8, 8});
    std::copy(view.data, view.data + view.size(), copy.data());
    exec::FloatRunner runner(graph, 3);
    expect_bitwise_equal(runner.run(view), runner.run(copy), "view");
}

TEST(IrGraph, TopologyEqualityIgnoresWeightsOnly) {
    const ir::Graph a = chain_graph(1);
    const ir::Graph b = chain_graph(2);  // same wiring, different weights
    EXPECT_TRUE(ir::topology_equals(a, b));
    EXPECT_FALSE(ir::topology_equals(a, branch_graph()));
}

TEST(IrGraph, TopologyFingerprintFollowsEquality) {
    const ir::Graph a = chain_graph(1);
    const ir::Graph b = chain_graph(2);  // same wiring, different weights
    EXPECT_EQ(ir::topology_fingerprint(a), ir::topology_fingerprint(b));
    EXPECT_NE(ir::topology_fingerprint(a), ir::topology_fingerprint(branch_graph()));
}

TEST(ExecPlanCache, SharesOnePlanPerTopologyAndCapacity) {
    exec::PlanCache cache(8);
    const ir::Graph a = chain_graph(1);
    const ir::Graph b = chain_graph(2);  // structurally identical
    const auto plan_a = cache.get(a, 4);
    const auto plan_b = cache.get(b, 4);
    EXPECT_EQ(plan_a.get(), plan_b.get());  // one compiled plan for both
    const auto plan_a8 = cache.get(a, 8);   // capacity is part of the key
    EXPECT_NE(plan_a.get(), plan_a8.get());
    const auto plan_branch = cache.get(branch_graph(), 4);
    EXPECT_NE(plan_a.get(), plan_branch.get());

    const exec::PlanCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(stats.entries, 3u);
    EXPECT_EQ(stats.evictions, 0u);
}

TEST(ExecPlanCache, EvictsLeastRecentlyUsed) {
    exec::PlanCache cache(2);
    const ir::Graph chain = chain_graph();
    (void)cache.get(chain, 1);
    (void)cache.get(chain, 2);
    (void)cache.get(chain, 1);  // touch capacity-1: capacity-2 becomes LRU
    (void)cache.get(chain, 3);  // evicts capacity-2
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);
    (void)cache.get(chain, 1);  // survived the eviction: still a hit
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().hits, 2u);
    (void)cache.get(chain, 2);  // was evicted: recompiles
    EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(ExecPlanCache, RepeatedRequantizationsRecompileZeroPlans) {
    // The wrapper path (run_quantized) and every QuantRunner resolve
    // plans through the global cache: after the first compilation of a
    // (topology, capacity), successive re-quantizations of the same
    // model compile nothing.
    const ir::Graph graph = chain_graph();
    const tensor::Tensor batch = random_batch(2, 55);
    tensor::Tensor first;
    const auto before = exec::PlanCache::global().stats();
    for (int requant = 0; requant < 4; ++requant) {
        // Fresh payload each round — what online re-quantization produces.
        const auto qgraph = quantize(graph, quant::Method::M5_AciqNoBias, {});
        const tensor::Tensor out = quant::run_quantized(qgraph, batch);
        if (requant == 0)
            first = out;
        else
            expect_bitwise_equal(first, out, "requant round");
    }
    const auto after = exec::PlanCache::global().stats();
    // At most one compilation (zero when an earlier test already warmed
    // this topology/capacity in the process-wide cache)...
    EXPECT_LE(after.misses, before.misses + 1);
    // ...and every re-quantization after the first resolves from cache.
    EXPECT_GE(after.hits, before.hits + 3);
}

}  // namespace
