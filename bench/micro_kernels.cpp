// google-benchmark microbenchmarks of the library's hot kernels: STA
// analysis, event-driven simulation, the integer-GEMM microkernel family
// (every available SIMD dispatch tier, unpacked and packed), the conv's
// column sums, epilogues (to floats and to codes) and quantize per tier,
// max-pool on floats and on codes, im2col, float GEMM variants, and
// end-to-end float/quantized inference.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cell/library.hpp"
#include "common/rng.hpp"
#include "data/synthetic_dataset.hpp"
#include "exec/kernels.hpp"
#include "exec/kernels_simd.hpp"
#include "ir/float_executor.hpp"
#include "netlist/builders.hpp"
#include "nn/zoo.hpp"
#include "quant/evaluate.hpp"
#include "quant/quant_executor.hpp"
#include "quant/methods.hpp"
#include "sim/event_sim.hpp"
#include "sta/sta.hpp"
#include "tensor/gemm.hpp"

namespace {

using namespace raq;

void BM_StaMacAnalysis(benchmark::State& state) {
    const netlist::Netlist mac = netlist::build_mac_circuit();
    const cell::Library lib = cell::Library::finfet14();
    const sta::Sta sta(mac, lib);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sta.run(lib));
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(mac.num_gates()));
}
BENCHMARK(BM_StaMacAnalysis);

void BM_StaCaseAnalysisSweep(benchmark::State& state) {
    const netlist::Netlist mac = netlist::build_mac_circuit();
    const cell::Library lib = cell::Library::finfet14();
    const sta::Sta sta(mac, lib);
    for (auto _ : state) {
        double total = 0.0;
        for (int a = 0; a <= 4; ++a)
            for (int b = 0; b <= 4; ++b)
                total += sta.critical_path_ps(
                    lib, sta::compression_case(mac, {a, b, common::Padding::Lsb}));
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_StaCaseAnalysisSweep);

void BM_EventSimMacCycle(benchmark::State& state) {
    const netlist::Netlist mac = netlist::build_mac_circuit();
    const cell::Library lib = cell::Library::finfet14();
    const sta::Sta sta(mac, lib);
    const double period = sta.critical_path_ps(lib) * 1.01;
    sim::EventSimulator simulator(mac, lib);
    std::vector<bool> pi(mac.primary_inputs().size(), false);
    common::Rng rng(3);
    for (auto _ : state) {
        for (std::size_t i = 0; i < pi.size(); ++i) pi[i] = rng.next_bool(0.5);
        simulator.step(pi, period);
        benchmark::DoNotOptimize(simulator.read_bus("S"));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventSimMacCycle);

void BM_NetlistFunctionalEval64(benchmark::State& state) {
    const netlist::Netlist mac = netlist::build_mac_circuit();
    std::vector<std::uint64_t> words(mac.primary_inputs().size());
    common::Rng rng(5);
    for (auto _ : state) {
        for (auto& w : words) w = rng.next_u64();
        benchmark::DoNotOptimize(mac.eval_words(words));
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_NetlistFunctionalEval64);

// ---- integer-GEMM microkernel family -------------------------------------
//
// One representative mid-network conv tile: 64 output channels over a
// kdim = 64·3·3 reduction and a 1024-column (batch·hw) panel — the shape
// class the packed pipeline was tuned on. Registered once per available
// dispatch tier so a single run shows the scalar → sse41 → avx2 → avxvnni
// ladder (the unpacked bench only for tiers with an unpacked kernel).

constexpr std::size_t kGemmRows = 64;
constexpr std::size_t kGemmKdim = 64 * 3 * 3;
constexpr std::size_t kGemmCols = 1024;

struct GemmU8Fixture {
    std::vector<std::uint8_t> w;     // [rows, kdim]
    std::vector<std::uint8_t> cols;  // [kdim, cols]
    std::vector<std::int32_t> acc;   // [rows, cols]

    GemmU8Fixture() : w(kGemmRows * kGemmKdim), cols(kGemmKdim * kGemmCols),
                      acc(kGemmRows * kGemmCols) {
        common::Rng rng(7);
        for (auto& v : w) v = static_cast<std::uint8_t>(rng.next_u64());
        for (auto& v : cols) v = static_cast<std::uint8_t>(rng.next_u64());
    }
};

void gemm_counters(benchmark::State& state) {
    const std::int64_t macs = static_cast<std::int64_t>(kGemmRows * kGemmKdim * kGemmCols);
    const std::int64_t bytes =
        static_cast<std::int64_t>(kGemmRows * kGemmKdim + kGemmKdim * kGemmCols +
                                  kGemmRows * kGemmCols * sizeof(std::int32_t));
    state.SetItemsProcessed(state.iterations() * macs);    // items = MAC products
    state.SetBytesProcessed(state.iterations() * bytes);   // one full operand sweep
}

void BM_GemmU8Unpacked(benchmark::State& state, exec::kernels_simd::KernelTier tier) {
    static GemmU8Fixture fx;
    const auto kernel = exec::kernels_simd::gemm_u8_kernel(tier);
    for (auto _ : state) {
        kernel(fx.w.data(), kGemmKdim, kGemmRows, fx.cols.data(), kGemmCols, kGemmKdim,
               kGemmCols, fx.acc.data(), kGemmCols);
        benchmark::DoNotOptimize(fx.acc.data());
    }
    gemm_counters(state);
}

void BM_GemmU8Packed(benchmark::State& state, exec::kernels_simd::KernelTier tier) {
    static GemmU8Fixture fx;
    const auto pk = exec::kernels_simd::packed_kernels(tier);
    if (pk.gemm == nullptr) {
        state.SkipWithError("tier has no packed pipeline");
        return;
    }
    // Weights are prepped once per conv call in QuantBackend (amortized
    // over every column tile), so the prep stays outside the loop; the
    // per-tile pack is what each iteration pays, so it stays inside.
    std::vector<std::uint8_t> prepped(kGemmRows * pk.weight_row_bytes(kGemmKdim));
    pk.prep(fx.w.data(), kGemmRows, kGemmKdim, prepped.data());
    std::vector<std::uint8_t> panel(pk.panel_bytes(kGemmKdim, kGemmCols));
    for (auto _ : state) {
        pk.pack(fx.cols.data(), kGemmCols, kGemmKdim, kGemmCols, panel.data());
        pk.gemm(prepped.data(), kGemmRows, panel.data(), kGemmKdim, kGemmCols,
                fx.acc.data(), kGemmCols);
        benchmark::DoNotOptimize(fx.acc.data());
    }
    gemm_counters(state);
}

void BM_Im2colU8(benchmark::State& state) {
    // 3×3, pad-1 (shift path) channel-major input of shape [n, c, hw, hw]
    // (Args below).
    const int hw = static_cast<int>(state.range(2));
    const tensor::Shape s{static_cast<int>(state.range(0)), static_cast<int>(state.range(1)),
                          hw, hw};
    const ir::ConvAttrs conv{s.c, 1, 3, 3, 1, 1};
    const exec::ConvGeom geom = exec::make_conv_geom(conv, s);
    const std::size_t rows = static_cast<std::size_t>(s.c) * 3 * 3;
    const std::size_t cols = static_cast<std::size_t>(s.n) * static_cast<std::size_t>(hw * hw);
    std::vector<std::uint8_t> qx(s.size());
    std::vector<std::uint8_t> columns(rows * cols);
    common::Rng rng(11);
    for (auto& v : qx) v = static_cast<std::uint8_t>(rng.next_u64());
    for (auto _ : state) {
        exec::kernels::im2col_u8(qx.data(), s, conv, geom, columns.data(), nullptr);
        benchmark::DoNotOptimize(columns.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(rows * cols));
    state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(rows * cols));
}

template <void (*Gemm)(const float*, const float*, float*, std::size_t, std::size_t,
                       std::size_t, bool)>
void BM_FloatGemm(benchmark::State& state) {
    static GemmU8Fixture fx;  // reuse the integer shapes for the operand data
    std::vector<float> a(kGemmRows * kGemmKdim), b(kGemmKdim * kGemmCols);
    std::vector<float> c(kGemmRows * kGemmCols);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>(fx.w[i]) / 255.0f;
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<float>(fx.cols[i]) / 255.0f;
    for (auto _ : state) {
        Gemm(a.data(), b.data(), c.data(), kGemmRows, kGemmKdim, kGemmCols, false);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kGemmRows * kGemmKdim * kGemmCols));
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<std::int64_t>((a.size() + b.size() + c.size()) * sizeof(float)));
}

// ---- the kernels around the GEMM, on alexnet-mini's batch-100 shapes ------
//
// c2 (16 -> 32 channels, 3x3, on 8x8 planes): a 32 x 6400 output, whose
// epilogue runs row by row over 6400 accumulators, and a kdim 144 column
// matrix for the column sums. Its output, quantized whole, is the
// quantize bench. The pools are pool1 (16 channels of 16x16) and pool2
// (32 channels of 8x8), 100 samples each.

constexpr std::size_t kEpiRows = 32;
constexpr std::size_t kEpiCols = 6400;
constexpr std::size_t kColSumKdim = 16 * 3 * 3;

struct EpilogueFixture {
    std::vector<std::int32_t> acc, colsum;
    std::vector<float> out;
    std::vector<std::uint8_t> codes;
    std::vector<std::uint8_t> columns;  // [kColSumKdim, kEpiCols]

    EpilogueFixture()
        : acc(kEpiRows * kEpiCols), colsum(kEpiCols), out(kEpiRows * kEpiCols),
          codes(kEpiRows * kEpiCols), columns(kColSumKdim * kEpiCols) {
        common::Rng rng(13);
        for (auto& v : columns) v = static_cast<std::uint8_t>(rng.next_u64() % 64);
        for (auto& v : acc) v = static_cast<std::int32_t>(rng.next_u64() % 200000) - 50000;
        for (auto& v : colsum) v = static_cast<std::int32_t>(rng.next_u64() % 9000);
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = static_cast<float>(acc[i]) * 1.5e-5f;
    }
};

constexpr exec::kernels_simd::CodeParams kBenchCodes{0.02f, 255, 0xFF};

void BM_Epilogue(benchmark::State& state, exec::kernels_simd::KernelTier tier) {
    static EpilogueFixture fx;
    const auto epi = exec::kernels_simd::epilogue_kernel(tier);
    for (auto _ : state) {
        for (std::size_t r = 0; r < kEpiRows; ++r)
            epi(fx.acc.data() + r * kEpiCols, fx.colsum.data(), kEpiCols, 131, 77, 1.5e-5f,
                fx.out.data() + r * kEpiCols);
        benchmark::DoNotOptimize(fx.out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kEpiRows * kEpiCols));
}

void BM_EpilogueCodes(benchmark::State& state, exec::kernels_simd::KernelTier tier) {
    static EpilogueFixture fx;
    const auto epi = exec::kernels_simd::epilogue_codes_kernel(tier);
    for (auto _ : state) {
        for (std::size_t r = 0; r < kEpiRows; ++r)
            epi(fx.acc.data() + r * kEpiCols, fx.colsum.data(), kEpiCols, 131, 77, 1.5e-5f,
                kBenchCodes, fx.codes.data() + r * kEpiCols);
        benchmark::DoNotOptimize(fx.codes.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kEpiRows * kEpiCols));
}

void BM_QuantizeU8(benchmark::State& state, exec::kernels_simd::KernelTier tier) {
    static EpilogueFixture fx;
    const auto quantize = exec::kernels_simd::quantize_u8_kernel(tier);
    for (auto _ : state) {
        quantize(fx.out.data(), fx.out.size(), kBenchCodes, fx.codes.data());
        benchmark::DoNotOptimize(fx.codes.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(fx.out.size()));
}

void BM_ColSum(benchmark::State& state, exec::kernels_simd::KernelTier tier) {
    static EpilogueFixture fx;
    const auto colsum = exec::kernels_simd::colsum_kernel(tier);
    for (auto _ : state) {
        colsum(fx.columns.data(), kColSumKdim, kEpiCols, fx.colsum.data());
        benchmark::DoNotOptimize(fx.colsum.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(fx.columns.size()));
}

/// Pool input [planes = Args[0]] of Args[1] x Args[1]; items = input elements.
tensor::Shape pool_shape(const benchmark::State& state) {
    const int hw = static_cast<int>(state.range(1));
    return {100, static_cast<int>(state.range(0)), hw, hw};
}

void BM_MaxPool(benchmark::State& state) {
    const tensor::Shape s = pool_shape(state);
    std::vector<float> in(s.size()), out(s.size() / 4);
    common::Rng rng(17);
    for (auto& v : in) v = static_cast<float>(rng.next_u64() % 1000) * 0.01f - 2.0f;
    for (auto _ : state) {
        exec::kernels::maxpool(in.data(), s, 2, 2, out.data(), s.h / 2, s.w / 2);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(s.size()));
}

void BM_MaxPoolU8(benchmark::State& state, exec::kernels_simd::KernelTier tier) {
    const tensor::Shape s = pool_shape(state);
    std::vector<std::uint8_t> in(s.size()), out(s.size() / 4);
    common::Rng rng(17);
    for (auto& v : in) v = static_cast<std::uint8_t>(rng.next_u64());
    const auto pairs = exec::kernels_simd::maxpool_u8_kernel(tier);  // null: scalar fold
    for (auto _ : state) {
        exec::kernels::maxpool_u8(in.data(), s, 2, 2, out.data(), s.h / 2, s.w / 2, pairs);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(s.size()));
}
BENCHMARK(BM_MaxPool)->Args({16, 16})->Args({32, 8});

// Per-tier registration has to happen at runtime (the available set is a
// CPUID question), so it rides a static initializer instead of the
// BENCHMARK macro.
const int kRegisterTierBenches = [] {
    for (const auto tier : exec::kernels_simd::available_tiers()) {
        const std::string name = exec::kernels_simd::tier_name(tier);
        if (exec::kernels_simd::gemm_u8_kernel(tier) != nullptr)
            benchmark::RegisterBenchmark(("BM_GemmU8Unpacked/" + name).c_str(),
                                         BM_GemmU8Unpacked, tier);
        if (exec::kernels_simd::packed_kernels(tier).gemm != nullptr)
            benchmark::RegisterBenchmark(("BM_GemmU8Packed/" + name).c_str(),
                                         BM_GemmU8Packed, tier);
        if (exec::kernels_simd::epilogue_kernel(tier) != nullptr)
            benchmark::RegisterBenchmark(("BM_Epilogue/" + name).c_str(), BM_Epilogue, tier);
        if (exec::kernels_simd::epilogue_codes_kernel(tier) != nullptr)
            benchmark::RegisterBenchmark(("BM_EpilogueCodes/" + name).c_str(),
                                         BM_EpilogueCodes, tier);
        benchmark::RegisterBenchmark(("BM_QuantizeU8/" + name).c_str(), BM_QuantizeU8, tier);
        if (exec::kernels_simd::colsum_kernel(tier) != nullptr)
            benchmark::RegisterBenchmark(("BM_ColSum/" + name).c_str(), BM_ColSum, tier);
        benchmark::RegisterBenchmark(("BM_MaxPoolU8/" + name).c_str(), BM_MaxPoolU8, tier)
            ->Args({16, 16})
            ->Args({32, 8});
    }
    return 0;
}();

// A wide plane (8×64×32×32), and alexnet-mini's c4 input at the batch-100
// evaluation (100×48×4×4): the narrow planes every mini-network conv has.
BENCHMARK(BM_Im2colU8)->Args({8, 64, 32})->Args({100, 48, 4});
BENCHMARK_TEMPLATE(BM_FloatGemm, tensor::gemm)->Name("BM_FloatGemm/nn");
BENCHMARK_TEMPLATE(BM_FloatGemm, tensor::gemm_at)->Name("BM_FloatGemm/at");
BENCHMARK_TEMPLATE(BM_FloatGemm, tensor::gemm_bt)->Name("BM_FloatGemm/bt");

struct InferenceFixtures {
    data::SyntheticDataset dataset;
    ir::Graph graph;
    tensor::Tensor batch;
    quant::QuantizedGraph qgraph;

    InferenceFixtures()
        : dataset(small_config()),
          graph(make_graph()),
          batch(dataset.test_batch(0, 32)),
          qgraph(make_quant(graph, dataset)) {}

    static data::DatasetConfig small_config() {
        data::DatasetConfig cfg;
        cfg.train_size = 128;
        cfg.test_size = 64;
        return cfg;
    }
    static ir::Graph make_graph() {
        auto net = nn::make_network("resnet20-mini");
        return net.export_ir();
    }
    static quant::QuantizedGraph make_quant(const ir::Graph& graph,
                                            const data::SyntheticDataset& ds) {
        std::vector<int> labels(ds.train_labels().begin(), ds.train_labels().begin() + 64);
        const auto calib = quant::calibrate(graph, ds.train_batch(0, 64), labels);
        return quant::quantize_graph(graph, quant::Method::M5_AciqNoBias,
                                     quant::QuantConfig{}, calib);
    }
};

// Inference benches hold a runner — the intended hot-path API — so they
// measure steady-state kernel throughput, not per-call plan compilation.
void BM_FloatInference(benchmark::State& state) {
    static InferenceFixtures fx;
    exec::FloatRunner runner(fx.graph, fx.batch.shape().n);
    for (auto _ : state) benchmark::DoNotOptimize(runner.run(fx.batch));
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_FloatInference);

void BM_QuantizedInference(benchmark::State& state) {
    static InferenceFixtures fx;
    quant::QuantRunner runner(fx.qgraph, fx.batch.shape().n);
    for (auto _ : state) benchmark::DoNotOptimize(runner.run(fx.batch));
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_QuantizedInference);

void BM_QuantizedInferenceWithInjection(benchmark::State& state) {
    static InferenceFixtures fx;
    quant::QuantRunner runner(fx.qgraph, fx.batch.shape().n);
    inject::InjectionConfig cfg;
    cfg.flip_probability = 1e-4;
    inject::BitFlipInjector injector(cfg);
    for (auto _ : state) benchmark::DoNotOptimize(runner.run(fx.batch, &injector));
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_QuantizedInferenceWithInjection);

}  // namespace

BENCHMARK_MAIN();
