// Explicit SIMD microkernels for the quantized u8×u8→i32 GEMM, with
// runtime CPU-feature dispatch. The quantized conv is an exact integer
// GEMM over the im2col column layout — acc[r][j] = Σ_k w[r][k]·col[k][j]
// with every product ≤ 255·255 — so any reassociation or vectorization of
// the reduction produces bit-identical accumulators. That is the whole
// contract here: every tier computes the same integers, only faster.
//
// Tiers:
//   Scalar  — portable reference loop; always available. The bit-flip
//             injection path never reaches these kernels at all (it keeps
//             the seed interpreter's per-product loop inside QuantBackend),
//             so injection stays bit-identical to the seed by construction.
//   Sse41   — 128-bit x86: i16 weights, interleaved k-pair panels, pmaddwd.
//   Avx2    — 256-bit x86: same pair-madd scheme on 16-column tiles.
//   AvxVnni — 256-bit x86 with VNNI: s8 weights (w − 128), u8 k-quad
//             panels, one vpdpbusd per four products. The −128 offset
//             folds into the zero-point epilogue (PackedKernels::w_offset).
//             Either AVX-VNNI (VEX) or AVX512-VNNI + AVX512VL (the EVEX
//             form of the same ymm instruction) enables it; no zmm code.
//   Neon    — 64/128-bit ARM: vmovl_u8 + vmlal_u16 widening multiply-add.
//
// Dispatch is decided once per process from CPUID (overridable with the
// RAQ_KERNEL_TIER environment variable: scalar|sse41|avx2|avxvnni|neon)
// and the selected kernels are routed through QuantBackend::conv. Kernels
// with an unavailable instruction set are never invoked: x86 variants are
// built with per-function target attributes (not file-level flags), so no
// AVX2/SSE4.1/VNNI instruction can leak into always-executed code.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace raq::exec::kernels_simd {

enum class KernelTier : int {
    Scalar = 0,
    Sse41 = 1,
    Avx2 = 2,
    Neon = 3,
    AvxVnni = 4,
};

/// Stable lower-case name ("scalar", "sse41", "avx2", "avxvnni", "neon").
[[nodiscard]] const char* tier_name(KernelTier tier);

/// Tiers usable on this machine, ascending preference (Scalar first).
[[nodiscard]] const std::vector<KernelTier>& available_tiers();

/// The tier selected for this process: the best available one, unless
/// RAQ_KERNEL_TIER names an available tier. Decided once, then cached.
[[nodiscard]] KernelTier active_tier();

/// Row blocking of every kernel: each call sweeps the column tile once
/// per block of this many weight rows, keeping the accumulators in
/// registers (a compile-time 4-row tile, then one 3/2/1-row tail).
/// Callers size their accumulator scratch as a multiple of it.
inline constexpr std::size_t kGemmU8RowBlock = 4;

/// Unpacked u8×u8→i32 GEMM microkernel:
///   acc[r * acc_stride + j] = Σ_k w[r * w_stride + k] · cols[k * col_stride + j]
/// for r in [0, rows), j in [0, n). Overwrites `acc` (no accumulate-into).
/// Requires kdim · 255² ≤ INT32_MAX (the plan's acc32_safe bound); wider
/// convolutions stay on the int64 scalar path in QuantBackend.
using GemmU8Fn = void (*)(const std::uint8_t* w, std::size_t w_stride, std::size_t rows,
                          const std::uint8_t* cols, std::size_t col_stride,
                          std::size_t kdim, std::size_t n, std::int32_t* acc,
                          std::size_t acc_stride);

/// Unpacked kernel of an available tier that has one: the scalar
/// reference and NEON. Null for the x86 tiers, whose conv path is packed.
[[nodiscard]] GemmU8Fn gemm_u8_kernel(KernelTier tier);

/// Packed pipeline (x86 tiers). The operands are laid out once in the
/// exact order the tier's multiply instruction consumes, so the GEMM's
/// inner loop is nothing but loads, one weight broadcast per row and
/// multiply-adds:
///
///   1. `prep` lays a u8 weight matrix [rows, kdim] out as the GEMM's
///      weight operand: rows of kdim_padded(kdim) elements, each the code
///      minus `w_offset`, zero-padded past kdim. Once per conv call.
///   2. `pack` lays a column tile out as a panel: per group of
///      `col_group` columns, kdim_padded(kdim) / k_group records, each
///      holding k_group consecutive k values of every column (columns
///      outer, k inner). Rows past kdim are zero, so the GEMM has no
///      k-tail. Once per column tile.
///   3. `gemm` multiplies prepped rows against the panel:
///        acc[r * acc_stride + j] = Σ_k (w[r][k] − w_offset) · cols[k][j]
///      for full column groups only; callers run the scalar reference
///      (with the same offset) on the (< col_group)-column tail.
///
/// Layouts per tier:
///   Sse41/Avx2 — i16 elements, k_group 2: k-pairs [a_k, a_k+1] per
///                column, the operand order of pmaddwd. w_offset 0.
///   AvxVnni    — u8 activations, s8 weights, k_group 4: one 64-byte
///                record is 16 columns × 4 k, each column's k-quad one
///                32-bit lane of vpdpbusd. w_offset 128: the s8 weight is
///                w ^ 0x80 = w − 128.
///
/// The offset is exact: Σ_k a·w = Σ_k a·(w − 128) + 128·colsum, so the
/// zero-point epilogue, which subtracts zw·colsum, subtracts
/// (zw − w_offset)·colsum instead and every corrected accumulator is the
/// same integer. |Σ_k a·(w − 128)| ≤ kdim·255·128 < kdim·255², so the
/// acc32_safe bound covers the offset accumulators too.
using PrepWeightsFn = void (*)(const std::uint8_t* w, std::size_t rows, std::size_t kdim,
                               std::uint8_t* prepped);
using PackColsFn = void (*)(const std::uint8_t* cols, std::size_t col_stride,
                            std::size_t kdim, std::size_t n, std::uint8_t* panel);
using GemmPackedFn = void (*)(const std::uint8_t* prepped, std::size_t rows,
                              const std::uint8_t* panel, std::size_t kdim, std::size_t n,
                              std::int32_t* acc, std::size_t acc_stride);
struct PackedKernels {
    PrepWeightsFn prep = nullptr;
    PackColsFn pack = nullptr;
    GemmPackedFn gemm = nullptr;
    std::size_t col_group = 0;   ///< columns per panel group (0 ⇔ no packed path)
    std::size_t k_group = 1;     ///< k values per record: 2 (pmaddwd) or 4 (vpdpbusd)
    std::size_t elem_bytes = 1;  ///< bytes per operand element: 2 (i16) or 1 (u8/s8)
    std::int32_t w_offset = 0;   ///< prepped weights hold w − w_offset

    /// kdim rounded up to a whole record.
    [[nodiscard]] constexpr std::size_t kdim_padded(std::size_t kdim) const {
        return (kdim + k_group - 1) / k_group * k_group;
    }
    /// Bytes of one prepped weight row (the GEMM's row stride).
    [[nodiscard]] constexpr std::size_t weight_row_bytes(std::size_t kdim) const {
        return kdim_padded(kdim) * elem_bytes;
    }
    /// Bytes a panel of `n` columns occupies (full groups only; callers
    /// pass n rounded down to a multiple of col_group).
    [[nodiscard]] constexpr std::size_t panel_bytes(std::size_t kdim, std::size_t n) const {
        return col_group == 0 ? 0 : (n / col_group) * col_group * weight_row_bytes(kdim);
    }
};

/// Packed kernel set for a tier; all-null/zero for tiers without one
/// (scalar and NEON keep the unpacked kernels).
[[nodiscard]] PackedKernels packed_kernels(KernelTier tier);

/// Parameters of u8 activation codes, zero-point 0 (every activation's):
/// the reading conv's scale, qmax = 2^bits − 1 and LSB-truncation mask.
struct CodeParams {
    float scale = 1.0f;
    std::int32_t qmax = 255;
    std::uint8_t mask = 0xFF;

    [[nodiscard]] bool operator==(const CodeParams& o) const {
        return scale == o.scale && qmax == o.qmax && mask == o.mask;
    }
};

/// v where v > 0, else +0 (a NaN and −0 included), as a bit mask: GCC
/// compiles the same select against a constant 0 into a branch on the
/// sign, even spelled as std::max.
[[nodiscard]] inline float positive_part(float v) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bits &= 0u - static_cast<std::uint32_t>(v > 0.0f);
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

/// The scalar activation quantize every path shares:
///   u8(nearbyint(clamp(x / scale, 0, qmax))) & mask
/// — quant::QuantParams::quantize at zero-point 0, then the mask. With
/// integer bounds, clamping before rounding gives the code rounding
/// first gives. The lower clamp maps a NaN to 0 before the int cast (a
/// NaN cast is undefined behaviour). On [0, qmax], (c + 2^23) − 2^23 is
/// nearbyint in the default rounding mode: no libm call and no branch,
/// and loops over it vectorize.
[[nodiscard]] inline std::uint8_t quantize_code(float x, const CodeParams& q) {
    const float c = std::min(positive_part(x / q.scale), static_cast<float>(q.qmax));
    const float r = (c + 0x1p23f) - 0x1p23f;
    return static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(static_cast<std::int32_t>(r)) & q.mask);
}

/// Conv epilogue over one contiguous output segment:
///   out[j] = float(i64(acc[j]) − i64(zw)·colsum[j] + qb) · scale
/// After the packed pipeline, `zw` is the weight zero-point minus
/// PackedKernels::w_offset. The vector variants compute `corrected` in
/// f64 — every operand is an integer of magnitude < 2^52, so each f64
/// step is exact and the final f64→f32 conversion is the same single
/// rounding the scalar i64→f32 cast performs; the f32 multiply by
/// `scale` matches element for element.
/// Callers must keep the scalar loop when |qb| + 2^33 could reach 2^52
/// (never true for real quantized biases, but guarded anyway) and for the
/// stats/injection paths. Null for tiers without an implementation.
using EpilogueFn = void (*)(const std::int32_t* acc, const std::int32_t* colsum,
                            std::size_t n, std::int32_t zw, std::int64_t qb, float scale,
                            float* out);
[[nodiscard]] EpilogueFn epilogue_kernel(KernelTier tier);

/// The same epilogue writing the reading convs' activation codes:
///   out[j] = quantize_code(float(i64(acc[j]) − i64(zw)·colsum[j] + qb) · scale, q)
/// The EpilogueFn steps, then the QuantizeU8Fn steps in registers: the f32
/// product first, then the f32 division by q.scale (never one folded
/// ratio, never a reciprocal), round, clamp and mask — the code the
/// reader's own quantize makes of the float output. Same caller rules as
/// EpilogueFn; null for tiers without one (AVX-VNNI shares AVX2's).
using EpilogueCodesFn = void (*)(const std::int32_t* acc, const std::int32_t* colsum,
                                 std::size_t n, std::int32_t zw, std::int64_t qb, float scale,
                                 const CodeParams& q, std::uint8_t* out);
[[nodiscard]] EpilogueCodesFn epilogue_codes_kernel(KernelTier tier);

/// Column-sum reduction over the im2col matrix: colsum[j] = Σ_k cols[k][j]
/// (exact integer adds — any tier is bit-identical). Null ⇒ scalar loop.
using ColSumFn = void (*)(const std::uint8_t* cols, std::size_t kdim, std::size_t n,
                          std::int32_t* colsum);
[[nodiscard]] ColSumFn colsum_kernel(KernelTier tier);

/// Activation quantization: out[i] = quantize_code(in[i], q). The vector
/// variants use the hardware round-with-current-mode instruction (roundps
/// / frinti), which equals nearbyint element for element under the default
/// FP environment, and the IEEE division is exact either way; their max
/// against 0 returns the 0 operand for a NaN — so every tier produces
/// identical codes. `out` may overlay `in` (a ReLU quantizing in place):
/// each code is stored after the float it overwrites was loaded. Never
/// null: tiers without a vector body (scalar, 32-bit ARM), or unavailable
/// on this machine, get the scalar loop.
using QuantizeU8Fn = void (*)(const float* in, std::size_t n, const CodeParams& q,
                              std::uint8_t* out);
[[nodiscard]] QuantizeU8Fn quantize_u8_kernel(KernelTier tier);

/// 2×2 stride-2 max-pool over activation codes whose windows all lie
/// inside their planes (2·oh ≤ h, 2·ow ≤ w): `planes` planes of h×w in,
/// oh×ow out. Codes are integers, so max is exact in any order; the x86
/// tiers take pmaxub over each row pair, then over adjacent bytes. Null
/// for tiers without a vector body (callers keep the scalar fold).
using MaxPoolU8Fn = void (*)(const std::uint8_t* in, std::size_t planes, std::size_t h,
                             std::size_t w, std::size_t oh, std::size_t ow,
                             std::uint8_t* out);
[[nodiscard]] MaxPoolU8Fn maxpool_u8_kernel(KernelTier tier);

}  // namespace raq::exec::kernels_simd
