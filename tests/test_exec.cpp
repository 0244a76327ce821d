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
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
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
    // The arena and every buffer a run touched start on a 64-byte line,
    // wherever the heap would have put a plain vector. At capacity 2 the
    // buffers are small heap blocks; at capacity 100 the arena and the
    // column matrices pass 128 KiB and come from mmap.
    const auto on_line = [](const void* p) {
        return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
    };
    const auto expect_on_line = [&](const exec::ExecContext& ctx, int n) {
        EXPECT_TRUE(on_line(ctx.arena.data())) << n;
        if (n > 1) {
            EXPECT_TRUE(on_line(ctx.input.data())) << n;
        }
        const exec::ConvScratch& q = ctx.scratch;
        for (const void* p : {static_cast<const void*>(q.columns.data()),
                              static_cast<const void*>(q.phases.data()),
                              static_cast<const void*>(q.qx.data()),
                              static_cast<const void*>(q.u8_columns.data()),
                              static_cast<const void*>(q.u8_phases.data()),
                              static_cast<const void*>(q.colsum.data()),
                              static_cast<const void*>(q.packed.data()),
                              static_cast<const void*>(q.wprep.data()),
                              static_cast<const void*>(q.acc32.data()),
                              static_cast<const void*>(q.acc64.data())})
            if (p != nullptr) {  // null: a buffer the run left unused
                EXPECT_TRUE(on_line(p)) << n;
            }
    };
    const ir::Graph graph = branch_graph();
    const auto qgraph = quantize(graph, quant::Method::M4_Aciq, quant::QuantConfig{});
    for (const int n : {2, 100}) {
        const tensor::Tensor batch = random_batch(n, 5);
        const exec::ExecPlan qplan(qgraph.graph(), exec::PlanOptions{n});
        exec::QuantBackend qbackend(qgraph);
        exec::ExecContext qctx;
        (void)exec::run(qplan, qbackend, qctx, batch);
        EXPECT_FALSE(qctx.scratch.u8_columns.empty());
        expect_on_line(qctx, n);

        const exec::ExecPlan fplan(graph, exec::PlanOptions{n});
        exec::FloatBackend fbackend;
        exec::ExecContext fctx;
        (void)exec::run(fplan, fbackend, fctx, batch);
        EXPECT_FALSE(fctx.scratch.columns.empty());
        expect_on_line(fctx, n);
    }
}

TEST(ExecPlan, ArenaNeverOverlapsLiveTensorsOnEveryZooTopology) {
    // The one arena rule: a tensor owns its region from its producer op
    // through its last consumer (the graph output through the end of the
    // run). Two tensors live at a common op must occupy disjoint ranges,
    // which includes an op's output against the inputs it reads. The one
    // exception is an in-place pair: a ReLU that is the only reader of its
    // (non-input, non-output) input takes the input's region over, so the
    // two must share exactly that region.
    for (const std::string& name : nn::all_networks()) {
        const ir::Graph graph = nn::make_network(name).export_ir();  // untrained
        const auto& ops = graph.ops();
        const std::vector<int> last_use = ir::tensor_last_use(graph);
        std::vector<int> readers(static_cast<std::size_t>(graph.num_tensors()), 0);
        for (const ir::Op& op : ops)
            for (const int in : op.inputs) ++readers[static_cast<std::size_t>(in)];
        std::vector<int> joined_to(readers.size(), -1);  // ReLU output -> its input
        for (const ir::Op& op : ops) {
            const int in = op.inputs.at(0);
            if (op.kind == ir::OpKind::Relu && readers[static_cast<std::size_t>(in)] == 1 &&
                in != graph.input_id() && in != graph.output_id())
                joined_to[static_cast<std::size_t>(op.output)] = in;
        }
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
                    if (joined_to[static_cast<std::size_t>(y.id)] == x.id) {
                        EXPECT_EQ(x.begin, y.begin) << name << ": ReLU " << y.id
                                                    << " does not run in place over " << x.id;
                        continue;
                    }
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

/// im2col against a per-element walk of the column matrix, on a
/// channel-major input ([C][N][H][W]). The columns start as `poison`, so
/// a slot the kernel leaves unwritten fails; a 1×1 stride-1 unpadded conv
/// must hand back the input itself.
template <typename T, typename Im2col>
void expect_im2col_matches_reference(Im2col im2col, const std::vector<T>& in,
                                     const tensor::Shape& s, int kh, int kw, int stride,
                                     int pad, T poison) {
    const ir::ConvAttrs conv{s.c, 1, kh, kw, stride, pad};
    const exec::ConvGeom g = exec::make_conv_geom(conv, s);
    const int oh = g.oh, ow = g.ow;
    const std::size_t cols = static_cast<std::size_t>(s.n * oh * ow);
    std::vector<T> columns(static_cast<std::size_t>(s.c * kh * kw) * cols, poison);
    std::vector<T> phases(g.phase_elems(cols), poison);
    const T* got = im2col(in.data(), s, conv, g, columns.data(), phases.data());
    const bool direct = kh == 1 && kw == 1 && stride == 1 && pad == 0;
    ASSERT_EQ(got, direct ? in.data() : columns.data());
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
                                             ((c * s.n + n) * s.h + iy) * s.w + ix)]
                                       : T{0};
                            ASSERT_EQ(std::memcmp(&got[slot], &want, sizeof(T)), 0)
                                << "n=" << s.n << " c=" << s.c << " plane " << s.h << "x"
                                << s.w << " kernel " << kh << "x" << kw << " stride "
                                << stride << " pad " << pad << " at c=" << c
                                << " ky=" << ky << " kx=" << kx << " n=" << n
                                << " oy=" << oy << " ox=" << ox;
                        }
}

TEST(ExecKernels, Im2colMatchesPerElementReferenceOverGeometries) {
    // Every im2col path: direct (1×1), shift (stride-1 "same"), phase
    // (strided) and gather (the rest), on planes down to 1×1, where most
    // taps of a "same" kernel read nothing.
    const int kernels[][2] = {{1, 1}, {1, 3}, {3, 1}, {2, 2}, {3, 3}, {5, 5}};
    const int planes[][2] = {{1, 1}, {2, 2}, {4, 4}, {5, 7}, {16, 16}};
    std::mt19937 rng(97);
    std::uniform_int_distribution<int> code(1, 255);
    std::uniform_real_distribution<float> real(-4.0f, 4.0f);
    for (const auto& k : kernels)
        for (const auto& p : planes)
            for (const int n : {1, 3, 7})
                for (const int c : {1, 3})
                    for (const int stride : {1, 2, 3})
                        for (int pad = 0; pad <= 2; ++pad) {
                            if (p[0] + 2 * pad < k[0] || p[1] + 2 * pad < k[1]) continue;
                            const tensor::Shape s{n, c, p[0], p[1]};
                            std::vector<std::uint8_t> qx(s.size());
                            for (auto& v : qx) v = static_cast<std::uint8_t>(code(rng));
                            ASSERT_NO_FATAL_FAILURE(expect_im2col_matches_reference(
                                exec::kernels::im2col_u8, qx, s, k[0], k[1], stride, pad,
                                std::uint8_t{0xA5}));
                            // Negative zeros, NaN and infinities must come
                            // through a copy unchanged and leave a masked
                            // slot +0.0.
                            std::vector<float> x(s.size());
                            for (std::size_t i = 0; i < x.size(); ++i) {
                                constexpr float kSpecial[] = {
                                    -0.0f, std::numeric_limits<float>::quiet_NaN(),
                                    std::numeric_limits<float>::infinity(),
                                    -std::numeric_limits<float>::infinity()};
                                x[i] = i % 5 == 0 ? kSpecial[(i / 5) % 4] : real(rng);
                            }
                            ASSERT_NO_FATAL_FAILURE(expect_im2col_matches_reference(
                                exec::kernels::im2col, x, s, k[0], k[1], stride, pad,
                                -99.0f));
                        }
}

TEST(ExecKernels, MaxPoolFoldsEveryWindowInTheOraclesOrder) {
    // The 2×2 stride-2 fast path (and the general path beside it) against
    // a per-window std::max fold from −inf, ky-major then kx-minor, as
    // the oracle folds. std::max keeps its first argument on a tie or an
    // unordered pair, so with −0.0, +0.0, NaN and ±inf among the inputs
    // the fold order decides which zero and whether a NaN survives.
    constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
    constexpr float kInf = std::numeric_limits<float>::infinity();
    constexpr float kValues[] = {-0.0f, 0.0f, kNaN, kInf, -kInf, 1.5f, -2.0f};
    const int pools[][2] = {{2, 2}, {3, 2}, {2, 1}};  // {kernel, stride}
    const int planes[][2] = {{2, 2}, {4, 4}, {16, 16}, {5, 7}, {7, 5}, {3, 3}, {1, 1}};
    std::mt19937 rng(41);
    std::uniform_int_distribution<std::size_t> pick(0, std::size(kValues) - 1);
    for (const auto& pool : pools)
        for (const auto& p : planes)
            for (const int n : {1, 3}) {
                const tensor::Shape s{n, 2, p[0], p[1]};
                if ((s.h - pool[0]) / pool[1] < 0 || (s.w - pool[0]) / pool[1] < 0) continue;
                const int oh = tensor::conv_out_dim(s.h, pool[0], pool[1], 0);
                const int ow = tensor::conv_out_dim(s.w, pool[0], pool[1], 0);
                std::vector<float> x(s.size());
                for (auto& v : x) v = kValues[pick(rng)];
                const std::size_t planes_n = static_cast<std::size_t>(s.n * s.c);
                std::vector<float> got(planes_n * static_cast<std::size_t>(oh * ow), 7.0f);
                exec::kernels::maxpool(x.data(), s, pool[0], pool[1], got.data(), oh, ow);
                for (std::size_t plane = 0; plane < planes_n; ++plane)
                    for (int oy = 0; oy < oh; ++oy)
                        for (int ox = 0; ox < ow; ++ox) {
                            float want = -kInf;
                            for (int ky = 0; ky < pool[0]; ++ky)
                                for (int kx = 0; kx < pool[0]; ++kx) {
                                    const int iy = oy * pool[1] + ky;
                                    const int ix = ox * pool[1] + kx;
                                    if (iy < s.h && ix < s.w)
                                        want = std::max(
                                            want, x[plane * static_cast<std::size_t>(s.h * s.w) +
                                                    static_cast<std::size_t>(iy * s.w + ix)]);
                                }
                            const float have =
                                got[plane * static_cast<std::size_t>(oh * ow) +
                                    static_cast<std::size_t>(oy * ow + ox)];
                            ASSERT_EQ(std::memcmp(&have, &want, sizeof want), 0)
                                << "pool " << pool[0] << "/" << pool[1] << " plane " << s.h
                                << "x" << s.w << " n=" << n << " at plane " << plane
                                << " oy=" << oy << " ox=" << ox << ": " << have << " vs "
                                << want;
                        }
            }
}

TEST(ExecLayout, BatchOfFiveEqualsFiveSingleRunsAndVisitsNchw) {
    // Inside a run every tensor is channel-major; at n = 1 that is NCHW,
    // at n = 5 it is not. The batched run must return, sample for sample,
    // the bits of five single runs, and its visit must see NCHW tensors
    // equal to the oracle's.
    for (const auto& graph : {chain_graph(), branch_graph()}) {
        const tensor::Tensor batch = random_batch(5, 61);
        const auto qgraph = quantize(graph, quant::Method::M4_Aciq, quant::QuantConfig{});
        const exec::ExecPlan qplan(qgraph.graph(), exec::PlanOptions{5});
        exec::QuantBackend qbackend(qgraph);
        exec::ExecContext qctx;
        const tensor::Tensor q5 = exec::run(qplan, qbackend, qctx, batch);

        const exec::ExecPlan fplan(graph, exec::PlanOptions{5});
        exec::FloatBackend fbackend;
        exec::ExecContext fctx;
        const auto reference = seedref::run_float_all(graph, batch);
        exec::RunOptions options;
        int visits = 0;
        options.visit = [&](int id, tensor::TensorView t) {
            ++visits;
            expect_bitwise_equal(t, reference[static_cast<std::size_t>(id)], "n=5 visit");
        };
        const tensor::Tensor f5 = exec::run(fplan, fbackend, fctx, batch, options);
        EXPECT_EQ(visits, 1 + static_cast<int>(graph.ops().size()));

        const std::size_t per_sample = q5.size() / 5;
        for (int i = 0; i < 5; ++i) {
            const tensor::Tensor q1 = exec::run(qplan, qbackend, qctx, batch.batch_view(i, 1));
            const tensor::Tensor f1 = exec::run(fplan, fbackend, fctx, batch.batch_view(i, 1));
            expect_bitwise_equal(
                tensor::TensorView(q5.data() + static_cast<std::size_t>(i) * per_sample,
                                   q1.shape()),
                q1, "quant sample");
            expect_bitwise_equal(
                tensor::TensorView(f5.data() + static_cast<std::size_t>(i) * per_sample,
                                   f1.shape()),
                f1, "float sample");
        }
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

// ------------------------------------------------------ integer handoff

/// One quantized run of `plan` on `tier`; with a (no-op) visit, which
/// keeps every tensor float, it is the float-handoff reference of the
/// same plan, payload and tier.
tensor::Tensor run_on_tier(const quant::QuantizedGraph& qgraph, const exec::ExecPlan& plan,
                           exec::kernels_simd::KernelTier tier, tensor::TensorView batch,
                           bool visited, quant::QuantExecStats* stats = nullptr) {
    exec::QuantBackend backend(qgraph);
    backend.set_kernel_tier(tier);
    backend.set_fault_hooks(nullptr, stats);
    exec::ExecContext ctx;
    exec::RunOptions options;
    if (visited) options.visit = [](int, tensor::TensorView) {};
    return exec::run(plan, backend, ctx, batch, options);
}

/// Number of tensors the backend bound to `qgraph` hands off as codes.
std::size_t code_tensors(const quant::QuantizedGraph& qgraph) {
    const exec::QuantBackend backend(qgraph);
    std::size_t count = 0;
    for (const auto& c : backend.handoff()->codes) count += c ? 1 : 0;
    return count;
}

TEST(ExecHandoff, ZooRunsEqualVisitedRunsAndTheOracleUnderEveryMethod) {
    // Codes or floats between convs, the logits are the same bits. On all
    // 13 zoo topologies (untrained, 16 random calibration images) under
    // M1–M5, a plain run equals the same run with a no-op visit, which
    // keeps every tensor float: at n = 1 and 5 on every available tier,
    // where both also equal the seed oracle, and at n = 100 on the active
    // tier (CI reruns this suite pinned to avx2 and to scalar).
    const exec::kernels_simd::KernelTier active = exec::kernels_simd::active_tier();
    for (const std::string& name : nn::all_networks()) {
        const ir::Graph graph = nn::make_network(name).export_ir();  // untrained
        const tensor::Shape in = graph.input_shape();
        std::mt19937 rng(23);
        std::uniform_real_distribution<float> dist(-1.0f, 2.0f);
        const auto images = [&](int n) {
            tensor::Tensor t({n, in.c, in.h, in.w});
            for (auto& v : t.vec()) v = dist(rng);
            return t;
        };
        const quant::CalibrationData calib =
            quant::calibrate(graph, images(16), std::vector<int>(16, 0));
        const tensor::Tensor batches[] = {images(1), images(5)};
        const tensor::Tensor batch100 = images(100);
        const exec::ExecPlan plan5(graph, exec::PlanOptions{5});
        const exec::ExecPlan plan100(graph, exec::PlanOptions{100});
        std::size_t handed_off = 0;
        for (const quant::Method method : quant::all_methods()) {
            const auto qgraph =
                quant::quantize_graph(graph, method, quant::QuantConfig{}, calib);
            const std::string what = name + " " + quant::method_name(method);
            handed_off += code_tensors(qgraph);
            for (const tensor::Tensor& batch : batches) {
                const tensor::Tensor oracle = seedref::run_quantized(qgraph, batch);
                for (const auto tier : exec::kernels_simd::available_tiers()) {
                    const std::string at = what + " n=" + std::to_string(batch.shape().n) +
                                           " " + exec::kernels_simd::tier_name(tier);
                    ASSERT_NO_FATAL_FAILURE(expect_bitwise_equal(
                        run_on_tier(qgraph, plan5, tier, batch, false), oracle, at.c_str()));
                    ASSERT_NO_FATAL_FAILURE(expect_bitwise_equal(
                        run_on_tier(qgraph, plan5, tier, batch, true), oracle,
                        (at + " visited").c_str()));
                }
            }
            ASSERT_NO_FATAL_FAILURE(expect_bitwise_equal(
                run_on_tier(qgraph, plan100, active, batch100, false),
                run_on_tier(qgraph, plan100, active, batch100, true),
                (what + " n=100").c_str()));
        }
        EXPECT_GT(handed_off, 0u) << name << ": no tensor travels as codes";
    }
}

/// Hand-set activation parameters of a conv's input: scale, bits and the
/// LSB-truncation mask.
void set_act(quant::QConv& qc, float scale, int bits, int mask_bits = 0) {
    qc.act.scale = scale;
    qc.act.bits = bits;
    qc.act_mask_bits = mask_bits;
}

TEST(ExecHandoff, EdgeChainMatchesTheOracleOnTiesClampsMasksAndDisagreement) {
    // Every way a code is made, on a small graph whose scales are powers
    // of two: the producers' float outputs divided by the readers' scales
    // land on exact .5 ties (nearbyint rounds them to even) and past qmax
    // (few-bit readers clamp).
    //   c0 -> r0 -> p0 -> {c1, c2}  epilogue codes, ReLU over codes, a pool
    //                               on codes, both readers masked (2 LSBs)
    //   {c1, c2} -> cat -> {c3, c4} a concat of two code tensors
    //   c3 + c4 -> r1 -> {c5, c6}   a ReLU over a float input feeding two
    //                               convs: the tensor's single quantize
    //   c5 -> r2 -> {c7, c8}        readers that disagree on scale: r2 and
    //                               c5 stay float
    std::mt19937 rng(71);
    ir::Graph g;
    const int in = g.add_input({1, 3, 6, 6});
    const int c0 = g.add(conv_op(in, 3, 4, 3, 1, 1, rng));
    const int r0 = g.add(relu_op(c0));
    const int p0 = g.add(pool_op(r0, 2, 2));
    const int c1 = g.add(conv_op(p0, 4, 3, 1, 1, 0, rng));
    const int c2 = g.add(conv_op(p0, 4, 3, 3, 1, 1, rng));
    ir::Op cat;
    cat.kind = ir::OpKind::Concat;
    cat.inputs = {c1, c2};
    const int cc = g.add(cat);
    const int c3 = g.add(conv_op(cc, 6, 4, 1, 1, 0, rng));
    const int c4 = g.add(conv_op(cc, 6, 4, 3, 1, 1, rng));
    ir::Op add;
    add.kind = ir::OpKind::Add;
    add.inputs = {c3, c4};
    const int sum = g.add(add);
    const int r1 = g.add(relu_op(sum));
    const int c5 = g.add(conv_op(r1, 4, 4, 1, 1, 0, rng));
    const int c6 = g.add(conv_op(r1, 4, 4, 1, 1, 0, rng));
    const int r2 = g.add(relu_op(c5));
    const int c7 = g.add(conv_op(r2, 4, 4, 1, 1, 0, rng));
    const int c8 = g.add(conv_op(r2, 4, 4, 1, 1, 0, rng));
    add.inputs = {c7, c8};
    const int sum2 = g.add(add);
    add.inputs = {sum2, c6};
    const int sum3 = g.add(add);
    const int gp = g.add(gap_op(sum3));
    g.set_output(g.add(conv_op(gp, 4, 3, 1, 1, 0, rng)));

    tensor::Tensor batch({5, 3, 6, 6});
    std::uniform_real_distribution<float> dist(-1.0f, 2.0f);
    for (auto& v : batch.vec()) v = dist(rng);
    auto qgraph = quant::quantize_graph(g, quant::Method::M2_MinMaxAsymmetric,
                                        quant::QuantConfig{},
                                        quant::calibrate(g, batch, std::vector<int>(5, 0)));
    // A hand-set payload with power-of-two scales: weight codes 0..3 at
    // zero-point 1 and scale 1/2, small biases, and every activation scale
    // 1/4 (c8's 1/2). A conv's float output is then corrected·(1/8), and
    // its readers divide it by 1/4: an odd `corrected` is an exact .5 tie.
    // Few-bit readers clamp the larger values. The op at index i writes
    // tensor i + 1 (the input is tensor 0).
    std::uniform_int_distribution<int> small(0, 3);
    for (std::size_t op = 0; op < qgraph.graph().ops().size(); ++op) {
        if (qgraph.graph().ops()[op].kind != ir::OpKind::Conv2d) continue;
        quant::QConv& q = qgraph.conv(op);
        for (auto& w : q.qweights) w = static_cast<std::uint8_t>(small(rng));
        for (auto& wq : q.weight_q) wq = quant::QuantParams{0.5f, 1, 8};
        for (auto& b : q.qbias) b = small(rng) - 2;
        set_act(q, 0.25f, 8);
    }
    const auto qc = [&](int tensor) -> quant::QConv& {
        return qgraph.conv(static_cast<std::size_t>(tensor - 1));
    };
    set_act(qc(c0), 0.25f, 3);     // the graph input: float, quantized by c0
    set_act(qc(c1), 0.25f, 4, 2);  // p0's readers agree, masked
    set_act(qc(c2), 0.25f, 4, 2);
    set_act(qc(c3), 0.25f, 4);     // cat's readers agree
    set_act(qc(c4), 0.25f, 4);
    set_act(qc(c5), 0.25f, 5);     // r1's readers agree
    set_act(qc(c6), 0.25f, 5);
    set_act(qc(c7), 0.25f, 6);     // r2's readers disagree on scale
    set_act(qc(c8), 0.5f, 6);

    const exec::QuantBackend backend(qgraph);
    const exec::Handoff& h = *backend.handoff();
    for (const int t : {c0, r0, p0, c1, c2, cc, r1})
        EXPECT_NE(h.code(t), nullptr) << "tensor " << t << " should travel as codes";
    for (const int t : {in, c3, c4, sum, c5, r2, c6, c7, c8, sum2, sum3, gp})
        EXPECT_EQ(h.code(t), nullptr) << "tensor " << t << " should stay float";
    EXPECT_EQ(h.code(p0)->mask, 0xFC);

    // The oracle's float tensors, divided by their readers' scales, cover
    // exact ties and values past qmax on every code tensor a conv or a
    // ReLU writes.
    const auto all = seedref::walk(
        qgraph.graph(), batch, [&](std::size_t i, const ir::Op& o, const tensor::Tensor& x) {
            return seedref::conv_quantized(o, qgraph.conv(i), qgraph.config().padding, x,
                                           nullptr, nullptr);
        });
    for (const int t : {c0, c1, c2, r1}) {
        const exec::kernels_simd::CodeParams& q = *h.code(t);
        int ties = 0, clamped = 0;
        for (const float x : all[static_cast<std::size_t>(t)].vec()) {
            const float r = x / q.scale;
            ties += r > 0 && r < static_cast<float>(q.qmax) && r - std::floor(r) == 0.5f;
            clamped += r > static_cast<float>(q.qmax) + 0.5f;
        }
        EXPECT_GT(ties, 0) << "tensor " << t;
        EXPECT_GT(clamped, 0) << "tensor " << t;
    }

    const tensor::Tensor oracle = seedref::run_quantized(qgraph, batch);
    const exec::ExecPlan plan(qgraph.graph(), exec::PlanOptions{5});
    for (const auto tier : exec::kernels_simd::available_tiers()) {
        const char* name = exec::kernels_simd::tier_name(tier);
        expect_bitwise_equal(run_on_tier(qgraph, plan, tier, batch, false), oracle, name);
        for (int i = 0; i < 5; ++i) {
            const tensor::TensorView one = batch.batch_view(i, 1);
            expect_bitwise_equal(
                run_on_tier(qgraph, plan, tier, one, false),
                seedref::run_quantized(
                    qgraph, tensor::Tensor(one.shape, std::vector<float>(
                                                          one.data, one.data + one.size()))),
                name);
        }
        quant::QuantExecStats stats, ref_stats;
        expect_bitwise_equal(run_on_tier(qgraph, plan, tier, batch, false, &stats),
                             seedref::run_quantized(qgraph, batch, nullptr, &ref_stats), name);
        EXPECT_EQ(stats.max_abs_accumulator, ref_stats.max_abs_accumulator) << name;
    }
}

TEST(ExecHandoff, WideAccumulatorWritesCodesOnEveryTier) {
    // kdim 33,026 passes the int32 bound (kdim·255² > INT32_MAX), so the
    // first conv runs conv_rows<int64_t>; its ReLU feeds a second conv, so
    // that path writes codes. With stats attached it takes the scalar
    // epilogue instead.
    constexpr int kChannels = 33026;
    std::mt19937 rng(5);
    ir::Graph g;
    const int in = g.add_input({1, kChannels, 1, 1});
    const int c0 = g.add(conv_op(in, kChannels, 4, 1, 1, 0, rng));
    const int r0 = g.add(relu_op(c0));
    g.set_output(g.add(conv_op(r0, 4, 3, 1, 1, 0, rng)));
    tensor::Tensor batch({3, kChannels, 1, 1});
    std::uniform_real_distribution<float> dist(-1.0f, 2.0f);
    for (auto& v : batch.vec()) v = dist(rng);
    const auto qgraph = quant::quantize_graph(g, quant::Method::M2_MinMaxAsymmetric,
                                              quant::QuantConfig{},
                                              quant::calibrate(g, batch, {0, 0, 0}));
    const exec::ExecPlan plan(qgraph.graph(), exec::PlanOptions{3});
    ASSERT_FALSE(plan.conv_geom(0)->acc32_safe);
    const exec::QuantBackend backend(qgraph);
    EXPECT_NE(backend.handoff()->code(c0), nullptr);
    quant::QuantExecStats ref_stats;
    const tensor::Tensor oracle = seedref::run_quantized(qgraph, batch, nullptr, &ref_stats);
    for (const auto tier : exec::kernels_simd::available_tiers()) {
        const char* name = exec::kernels_simd::tier_name(tier);
        expect_bitwise_equal(run_on_tier(qgraph, plan, tier, batch, false), oracle, name);
        quant::QuantExecStats stats;
        expect_bitwise_equal(run_on_tier(qgraph, plan, tier, batch, false, &stats), oracle,
                             name);
        EXPECT_EQ(stats.max_abs_accumulator, ref_stats.max_abs_accumulator) << name;
        EXPECT_EQ(stats.accumulator_overflows, ref_stats.accumulator_overflows) << name;
    }
}

TEST(ExecSimd, QuantizeKernelsMatchTheScalarExpressionOnEdgeValues) {
    // Every tier's quantize_u8 and fused epilogue-to-codes kernel against
    // the scalar expressions (quant::QuantParams::quantize, the masked
    // code of the scalar epilogue's float) on NaN, ±inf, −0.0, exact .5
    // ties and values past qmax·scale, at several bit widths and masks.
    constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
    constexpr float kInf = std::numeric_limits<float>::infinity();
    constexpr float kScale = 0.25f;
    std::vector<float> x;
    for (const float v : {kNaN, -kNaN, kInf, -kInf, -0.0f, 0.0f, 1e30f, -1e30f})
        x.push_back(v);
    for (int k = -8; k <= 300; ++k) x.push_back(kScale * (static_cast<float>(k) + 0.5f));
    std::mt19937 rng(19);
    std::uniform_real_distribution<float> dist(-10.0f, 80.0f);
    while (x.size() % 64 != 37) x.push_back(dist(rng));  // every vector loop and a tail
    // Epilogue operands: corrected = acc − zw·colsum + qb over the
    // integers around each tie and past qmax at scale 1/8, read at 1/4.
    std::vector<std::int32_t> acc(x.size()), colsum(x.size());
    std::uniform_int_distribution<std::int32_t> small(0, 40);
    for (std::size_t j = 0; j < acc.size(); ++j) {
        colsum[j] = small(rng);
        acc[j] = static_cast<std::int32_t>(j) * 3 - 300 + 2 * colsum[j];
    }
    for (const int bits : {8, 6, 4})
        for (const int mask_bits : {0, 2}) {
            const quant::QuantParams qp{kScale, 0, bits};
            const exec::kernels_simd::CodeParams q{
                kScale, qp.qmax(), static_cast<std::uint8_t>(0xFFu << mask_bits)};
            std::vector<std::uint8_t> want(x.size()), want_epi(x.size());
            for (std::size_t i = 0; i < x.size(); ++i) {
                want[i] = static_cast<std::uint8_t>(qp.quantize(x[i])) & q.mask;
                const std::int64_t corrected =
                    std::int64_t{acc[i]} - std::int64_t{2} * colsum[i] + 1;
                want_epi[i] =
                    static_cast<std::uint8_t>(qp.quantize(static_cast<float>(corrected) * 0.125f)) &
                    q.mask;
            }
            for (const auto tier : exec::kernels_simd::available_tiers()) {
                const std::string at = std::string(exec::kernels_simd::tier_name(tier)) +
                                       " bits " + std::to_string(bits) + " mask " +
                                       std::to_string(mask_bits);
                std::vector<std::uint8_t> got(x.size(), 0xA5);
                exec::kernels_simd::quantize_u8_kernel(tier)(x.data(), x.size(), q, got.data());
                EXPECT_EQ(got, want) << at;
                if (const auto epi = exec::kernels_simd::epilogue_codes_kernel(tier)) {
                    std::fill(got.begin(), got.end(), 0xA5);
                    epi(acc.data(), colsum.data(), acc.size(), 2, 1, 0.125f, q, got.data());
                    EXPECT_EQ(got, want_epi) << at << " epilogue";
                }
            }
        }
}

TEST(ExecKernels, ByteMaxPoolEqualsPoolingFloatsThenQuantizing) {
    // max(q(a), q(b)) == q(max(a, b)): each tier's byte pool, and the
    // scalar fold, against pooling the floats and then quantizing, on
    // widths that reach every step of the vector kernel (16, 8 and 4
    // outputs and the byte tail; 8- and 16-wide planes several row pairs
    // a step, with a remainder of single pairs), odd planes, and the
    // general path.
    const exec::kernels_simd::CodeParams q{0.5f, 15, 0xFE};
    const int pools[][2] = {{2, 2}, {3, 2}, {2, 1}};
    const int planes[][2] = {{2, 2},  {8, 8},   {16, 16}, {6, 8},   {2, 16},
                             {10, 16}, {10, 10}, {5, 7},   {34, 66}, {1, 1}};
    std::mt19937 rng(43);
    std::uniform_real_distribution<float> dist(-2.0f, 10.0f);
    for (const auto& pool : pools)
        for (const auto& p : planes) {
            const tensor::Shape s{3, 1, p[0], p[1]};
            if (s.h < pool[0] || s.w < pool[0]) continue;
            const int oh = tensor::conv_out_dim(s.h, pool[0], pool[1], 0);
            const int ow = tensor::conv_out_dim(s.w, pool[0], pool[1], 0);
            std::vector<float> x(s.size());
            for (auto& v : x) v = dist(rng);
            const std::size_t out_size = static_cast<std::size_t>(s.n * s.c * oh * ow);
            std::vector<float> pooled(out_size);
            exec::kernels::maxpool(x.data(), s, pool[0], pool[1], pooled.data(), oh, ow);
            std::vector<std::uint8_t> codes(x.size()), want(out_size);
            for (std::size_t i = 0; i < x.size(); ++i)
                codes[i] = exec::kernels_simd::quantize_code(x[i], q);
            for (std::size_t i = 0; i < out_size; ++i)
                want[i] = exec::kernels_simd::quantize_code(pooled[i], q);
            std::vector<exec::kernels_simd::MaxPoolU8Fn> kernels{nullptr};
            for (const auto tier : exec::kernels_simd::available_tiers())
                if (const auto k = exec::kernels_simd::maxpool_u8_kernel(tier)) kernels.push_back(k);
            for (const auto kernel : kernels) {
                std::vector<std::uint8_t> got(out_size, 0xA5);
                exec::kernels::maxpool_u8(codes.data(), s, pool[0], pool[1], got.data(), oh, ow,
                                          kernel);
                EXPECT_EQ(got, want) << "pool " << pool[0] << "/" << pool[1] << " plane "
                                     << s.h << "x" << s.w
                                     << (kernel != nullptr ? " vector" : " scalar");
            }
        }
}

}  // namespace
