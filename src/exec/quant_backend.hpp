// QuantBackend: the unsigned-MAC integer datapath of the paper's NPU,
// executed through the planned engine. Numerics are bit-identical to the
// seed quantized interpreter (integer accumulation is order-independent,
// so the cache-tiled GEMM below reassociates freely without changing a
// single output bit); the Fig. 1b bit-flip injection path preserves the
// seed's exact per-product hook order, because the injector is a seeded
// RNG stream whose draws must line up.
//
// LSB padding semantics (paper Eq. 5): the hardware multiplies shifted
// operands (q_a·2^α)(q_w·2^β) and the result is shifted back in software.
// Numerically an identity, but it moves the product's MSB — accounted for
// by narrowing the injector's register view, exactly as the seed did.
//
// Integer handoff (backend.hpp, Handoff): bind() decides, once per bound
// payload, which tensors travel as u8 activation codes, from the
// payload's topology and activation parameters. A conv whose output is
// codes writes them from its epilogue (every GEMM path, the stats path
// and the injection path reach the one epilogue_rows); a conv whose
// input is codes skips its quantize. The ExecPlan stays topology-only.
#pragma once

#include <cstdint>

#include "exec/backend.hpp"
#include "exec/kernels_simd.hpp"
#include "inject/bitflip.hpp"
#include "quant/quantized_graph.hpp"

namespace raq::exec {

struct QuantExecStats {
    std::uint64_t mac_count = 0;
    std::uint64_t flips = 0;
    std::int64_t max_abs_accumulator = 0;  ///< in the shifted (hardware) domain
    std::uint64_t accumulator_overflows = 0;  ///< values exceeding the 22-bit register
};

class QuantBackend final : public Backend {
public:
    explicit QuantBackend(const quant::QuantizedGraph& qgraph) {
        set_kernel_tier(kernels_simd::active_tier());
        bind(qgraph);
    }

    /// Swap the executed graph (same topology: re-quantization replaces
    /// the payload, not the structure) and decide its integer handoff.
    /// The caller keeps `qgraph` alive, and its payload unchanged, for as
    /// long as this backend may run it.
    void bind(const quant::QuantizedGraph& qgraph);
    [[nodiscard]] const quant::QuantizedGraph& bound() const { return *qgraph_; }

    /// Per-run fault hooks (injector invoked once per MAC product, in the
    /// seed interpreter's order).
    void set_fault_hooks(inject::BitFlipInjector* injector, QuantExecStats* stats) {
        injector_ = injector;
        stats_ = stats;
    }

    /// Override the GEMM dispatch tier (defaults to the process-wide
    /// kernels_simd::active_tier()). Tests and benches use this to pin
    /// the scalar reference or compare tiers; every tier is bit-identical
    /// because the integer reduction is exact.
    void set_kernel_tier(kernels_simd::KernelTier tier) {
        tier_ = tier;
        const bool scalar = tier == kernels_simd::KernelTier::Scalar;
        simd_kernel_ = scalar ? nullptr : kernels_simd::gemm_u8_kernel(tier);
        packed_ = kernels_simd::packed_kernels(tier);
        epilogue_kernel_ = kernels_simd::epilogue_kernel(tier);
        epilogue_codes_kernel_ = kernels_simd::epilogue_codes_kernel(tier);
        colsum_kernel_ = kernels_simd::colsum_kernel(tier);
        handoff_.quantize = kernels_simd::quantize_u8_kernel(tier);
        handoff_.maxpool = kernels_simd::maxpool_u8_kernel(tier);
    }
    [[nodiscard]] kernels_simd::KernelTier kernel_tier() const { return tier_; }

    void prepare(const ExecPlan& plan, ExecContext& ctx) const override;
    void conv(const ConvCall& call, ExecContext& ctx) override;
    [[nodiscard]] const Handoff* handoff() const override { return &handoff_; }

private:
    const quant::QuantizedGraph* qgraph_ = nullptr;
    Handoff handoff_;  ///< of the bound payload, with this tier's kernels
    inject::BitFlipInjector* injector_ = nullptr;
    QuantExecStats* stats_ = nullptr;
    kernels_simd::KernelTier tier_ = kernels_simd::KernelTier::Scalar;
    kernels_simd::GemmU8Fn simd_kernel_ = nullptr;          ///< unpacked SIMD GEMM (NEON)
    kernels_simd::PackedKernels packed_{};                  ///< x86 GEMM pipeline
    kernels_simd::EpilogueFn epilogue_kernel_ = nullptr;    ///< null ⇒ scalar epilogue
    kernels_simd::EpilogueCodesFn epilogue_codes_kernel_ = nullptr;  ///< null ⇒ scalar
    kernels_simd::ColSumFn colsum_kernel_ = nullptr;        ///< null ⇒ scalar colsum
};

}  // namespace raq::exec
