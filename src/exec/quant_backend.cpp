#include "exec/quant_backend.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "exec/kernels.hpp"
#include "exec/kernels_simd.hpp"

namespace raq::exec {

namespace {

/// Shared zero-point/bias/stats epilogue: turn the raw accumulators of
/// `n` consecutive columns of channel `oc` into output activations at
/// `out` (identical for the tiled fast path and the seed-order injection
/// path). The output is channel-major, so row oc of the GEMM is one
/// contiguous segment of it: callers pass `colsum` and `out` already
/// offset to the first column. With a vector epilogue kernel and no
/// stats attached, the i32 fast path runs it over the whole segment —
/// same bits, see EpilogueFn. Accumulators of weights offset by
/// `w_offset` (the packed pipeline's Σ a·(w − w_offset)) correct with
/// zw − w_offset: the same integers.
template <typename AccT>
void epilogue_rows(const quant::QConv& qc, std::size_t oc, const AccT* acc,
                   const std::int32_t* colsum, std::size_t n, float* out, int shift,
                   QuantExecStats* stats, kernels_simd::EpilogueFn epi = nullptr,
                   std::int32_t w_offset = 0) {
    const quant::QuantParams& wq = qc.wq(static_cast<int>(oc));
    const float scale = qc.act.scale * wq.scale;
    const std::int32_t zw = wq.zero_point - w_offset;
    const std::int64_t qb = qc.qbias[oc];
    if constexpr (std::is_same_v<AccT, std::int32_t>) {
        // |acc − zw·colsum| < 2^33 on the acc32-safe path, so the f64
        // kernel is exact whenever |qb| stays below 2^52 − 2^33 (every
        // real quantized bias; the guard keeps pathological graphs on the
        // scalar loop rather than silently off-by-one).
        constexpr std::int64_t kQbExactBound = (std::int64_t{1} << 52) - (std::int64_t{1} << 33);
        if (epi != nullptr && stats == nullptr && qb < kQbExactBound && qb > -kQbExactBound) {
            epi(acc, colsum, n, zw, qb, scale, out);
            return;
        }
    }
    for (std::size_t j = 0; j < n; ++j) {
        const std::int64_t corrected = static_cast<std::int64_t>(acc[j]) -
                                       static_cast<std::int64_t>(zw) * colsum[j] + qb;
        if (stats) {
            // Accumulator occupancy in the shifted hardware domain
            // (22-bit register of the paper's MAC). Shift the
            // magnitude, not the signed value: same number, no UB.
            const std::int64_t mag = (corrected < 0 ? -corrected : corrected) << shift;
            stats->max_abs_accumulator = std::max(stats->max_abs_accumulator, mag);
            if (mag >= (std::int64_t{1} << 22)) ++stats->accumulator_overflows;
        }
        out[j] = static_cast<float>(corrected) * scale;
    }
}

/// Tiled integer GEMM + epilogue over every output channel —
/// the scalar reference datapath, kept verbatim from the seed-matching
/// implementation (the injection path shares its arithmetic exactly).
/// AccT is int32 when the plan proved the row sum cannot overflow
/// (kdim * 255^2 bound), int64 otherwise; both produce the same exact
/// integers, so the narrow fast path stays bit-identical. The tile
/// length comes precomputed from the plan's ConvGeom.
template <typename AccT>
void conv_rows(const ir::Op& op, const quant::QConv& qc, const ConvGeom& g,
               const std::uint8_t* columns, const std::int32_t* colsum, std::size_t cols,
               float* out, int shift, QuantExecStats* stats, AlignedVector<AccT>& acc,
               std::size_t tile) {
    const std::size_t kdim = g.kdim;
    const std::size_t out_c = static_cast<std::size_t>(op.conv.out_c);
    ExecContext::reserve(acc, tile);

    for (std::size_t j0 = 0; j0 < cols; j0 += tile) {
        const std::size_t jn = std::min(tile, cols - j0);
        for (std::size_t oc = 0; oc < out_c; ++oc) {
            const std::uint8_t* wrow = qc.qweights.data() + oc * kdim;
            std::fill(acc.begin(), acc.begin() + static_cast<std::ptrdiff_t>(jn), AccT{0});
            for (std::size_t k = 0; k < kdim; ++k) {
                const std::int32_t w = wrow[k];
                if (w == 0) continue;
                const std::uint8_t* crow = columns + k * cols + j0;
                for (std::size_t j = 0; j < jn; ++j)
                    acc[j] += static_cast<AccT>(w * static_cast<std::int32_t>(crow[j]));
            }
            epilogue_rows(qc, oc, acc.data(), colsum + j0, jn, out + oc * cols + j0, shift,
                          stats);
        }
    }
    if (stats) stats->mac_count += kdim * cols * out_c;
}

/// Unpacked SIMD path (NEON, which has no packed pipeline): the
/// dispatch-selected microkernel computes the same exact i32 accumulators
/// as conv_rows (integer adds reassociate freely), in kGemmU8RowBlock-
/// channel register tiles; the shared epilogue then applies the identical
/// zero-point/bias/stats transform row by row.
void conv_rows_simd(const ir::Op& op, const quant::QConv& qc, const ConvGeom& g,
                    const std::uint8_t* columns, const std::int32_t* colsum,
                    std::size_t cols, float* out, int shift, QuantExecStats* stats,
                    AlignedVector<std::int32_t>& acc, std::size_t tile,
                    kernels_simd::GemmU8Fn kernel, kernels_simd::EpilogueFn epi) {
    constexpr std::size_t kMr = kernels_simd::kGemmU8RowBlock;
    const std::size_t kdim = g.kdim;
    const std::size_t out_c = static_cast<std::size_t>(op.conv.out_c);
    ExecContext::reserve(acc, kMr * tile);

    for (std::size_t j0 = 0; j0 < cols; j0 += tile) {
        const std::size_t jn = std::min(tile, cols - j0);
        for (std::size_t oc = 0; oc < out_c; oc += kMr) {
            const std::size_t mr = std::min(kMr, out_c - oc);
            kernel(qc.qweights.data() + oc * kdim, kdim, mr, columns + j0, cols, kdim,
                   jn, acc.data(), tile);
            for (std::size_t r = 0; r < mr; ++r)
                epilogue_rows(qc, oc + r, acc.data() + r * tile, colsum + j0, jn,
                              out + (oc + r) * cols + j0, shift, stats, epi);
        }
    }
    if (stats) stats->mac_count += kdim * cols * out_c;
}

/// Packed SIMD pipeline (the datapath of every x86 tier): lay each column
/// tile out once in the tier's panel layout, then sweep it with the packed
/// GEMM against the weights prepped for this call. Bit-identical by the
/// same exact-integer argument; the (< col_group)-column tail of each tile
/// runs the scalar reference against the raw tile, with the same weight
/// offset the GEMM applies, so one epilogue fold covers the whole row.
void conv_rows_packed(const ir::Op& op, const quant::QConv& qc, const ConvGeom& g,
                      const std::uint8_t* columns, const std::uint8_t* wprep,
                      const std::int32_t* colsum, std::size_t cols, float* out,
                      int shift, QuantExecStats* stats, AlignedVector<std::int32_t>& acc,
                      AlignedVector<std::uint8_t>& panel, std::size_t tile,
                      const kernels_simd::PackedKernels& pk, kernels_simd::EpilogueFn epi) {
    constexpr std::size_t kMr = kernels_simd::kGemmU8RowBlock;
    const std::size_t kdim = g.kdim;
    const std::size_t w_row_bytes = pk.weight_row_bytes(kdim);
    const std::size_t out_c = static_cast<std::size_t>(op.conv.out_c);
    ExecContext::reserve(acc, kMr * tile);

    for (std::size_t j0 = 0; j0 < cols; j0 += tile) {
        const std::size_t jn = std::min(tile, cols - j0);
        const std::size_t jv = jn - jn % pk.col_group;  // full column groups
        if (jv != 0) {
            ExecContext::reserve(panel, pk.panel_bytes(kdim, jv));
            pk.pack(columns + j0, cols, kdim, jv, panel.data());
        }
        for (std::size_t oc = 0; oc < out_c; oc += kMr) {
            const std::size_t mr = std::min(kMr, out_c - oc);
            if (jv != 0)
                pk.gemm(wprep + oc * w_row_bytes, mr, panel.data(), kdim, jv, acc.data(),
                        tile);
            for (std::size_t r = 0; r < mr; ++r) {
                const std::uint8_t* wrow = qc.qweights.data() + (oc + r) * kdim;
                for (std::size_t j = jv; j < jn; ++j) {
                    std::int32_t sum = 0;
                    for (std::size_t k = 0; k < kdim; ++k)
                        sum += (static_cast<std::int32_t>(wrow[k]) - pk.w_offset) *
                               static_cast<std::int32_t>(columns[k * cols + j0 + j]);
                    acc[r * tile + j] = sum;
                }
                epilogue_rows(qc, oc + r, acc.data() + r * tile, colsum + j0, jn,
                              out + (oc + r) * cols + j0, shift, stats, epi, pk.w_offset);
            }
        }
    }
    if (stats) stats->mac_count += kdim * cols * out_c;
}

}  // namespace

void QuantBackend::prepare(const ExecPlan& plan, ExecContext& ctx) const {
    ConvScratch& scr = ctx.scratch;
    ExecContext::reserve(scr.qx, plan.max_conv_in_floats());
    ExecContext::reserve(scr.u8_columns, plan.max_columns());
    ExecContext::reserve(scr.u8_phases, plan.max_phase_elems());
    ExecContext::reserve(scr.colsum, plan.max_cols());
    ExecContext::reserve(scr.acc64, plan.max_cols());
    // Sized for the SIMD row block up front, so the per-call reserve in
    // the hot loop is a no-op comparison.
    ExecContext::reserve(scr.acc32, kernels_simd::kGemmU8RowBlock * plan.max_tile_cols());
}

void QuantBackend::conv(const ConvCall& call, ExecContext& ctx) {
    const ir::Op& op = *call.op;
    const ConvGeom& g = *call.geom;
    ConvScratch& scr = ctx.scratch;
    const quant::QConv& qc = qgraph_->conv(static_cast<std::size_t>(call.op_index));
    if (qc.act.zero_point != 0)
        throw std::logic_error("QuantBackend: activation zero-point must be 0");

    const tensor::Shape& s = call.in_shape;
    const std::size_t in_size = s.size();
    const std::size_t cols = static_cast<std::size_t>(s.n) * g.hw;

    // Quantize the input activations (optionally truncating LSBs for the
    // precision-scaling ablation). The vector kernel computes the exact
    // QuantParams::quantize expression (hardware round-current-mode ==
    // nearbyint, IEEE division), so codes match the scalar loop bit for bit.
    const std::uint8_t act_mask = static_cast<std::uint8_t>(0xFFu << (qc.act_mask_bits & 7));
    ExecContext::reserve(scr.qx, in_size);
    if (quantize_kernel_ != nullptr)
        quantize_kernel_(call.in, in_size, qc.act.scale, qc.act.zero_point, qc.act.qmax(),
                         act_mask, scr.qx.data());
    else
        for (std::size_t i = 0; i < in_size; ++i)
            scr.qx[i] = static_cast<std::uint8_t>(qc.act.quantize(call.in[i])) & act_mask;

    if (g.path != Im2colPath::Direct) ExecContext::reserve(scr.u8_columns, g.kdim * cols);
    ExecContext::reserve(scr.u8_phases, g.phase_elems(cols));
    const std::uint8_t* columns = kernels::im2col_u8(scr.qx.data(), s, op.conv, g,
                                                     scr.u8_columns.data(), scr.u8_phases.data());

    // Per-column activation code sums for the zero-point correction
    // (exact integer reduction — the vector kernel is bit-identical).
    ExecContext::reserve(scr.colsum, cols);
    if (colsum_kernel_ != nullptr) {
        colsum_kernel_(columns, g.kdim, cols, scr.colsum.data());
    } else {
        std::fill(scr.colsum.begin(), scr.colsum.begin() + static_cast<std::ptrdiff_t>(cols),
                  0);
        for (std::size_t k = 0; k < g.kdim; ++k) {
            const std::uint8_t* row = columns + k * cols;
            for (std::size_t j = 0; j < cols; ++j) scr.colsum[j] += row[j];
        }
    }

    // With LSB padding the hardware product register holds p << (α+β); a
    // flip of register bit 15/14 lands on bit 15−(α+β)/14−(α+β) of the
    // unshifted product. Model by narrowing the injector's register view.
    const int shift = qgraph_->config().padding == common::Padding::Lsb
                          ? (8 - qc.act.bits) + (8 - qc.wq(0).bits)
                          : 0;
    const std::size_t out_c = static_cast<std::size_t>(op.conv.out_c);

    if (injector_ != nullptr) {
        // Injection path: the seed interpreter's exact loop, one ordered
        // hook call per MAC product (including zero-weight products).
        // Never touches the SIMD kernels — bit-identical to the seed by
        // construction, whatever the dispatch tier.
        ExecContext::reserve(scr.acc64, cols);
        for (std::size_t oc = 0; oc < out_c; ++oc) {
            const std::uint8_t* wrow = qc.qweights.data() + oc * g.kdim;
            std::fill(scr.acc64.begin(), scr.acc64.begin() + static_cast<std::ptrdiff_t>(cols),
                      std::int64_t{0});
            for (std::size_t k = 0; k < g.kdim; ++k) {
                const std::int32_t w = wrow[k];
                const std::uint8_t* crow = columns + k * cols;
                for (std::size_t j = 0; j < cols; ++j) {
                    std::int64_t product = static_cast<std::int64_t>(w) * crow[j];
                    product = injector_->apply(product);
                    scr.acc64[j] += product;
                }
            }
            if (stats_) stats_->mac_count += g.kdim * cols;
            epilogue_rows(qc, oc, scr.acc64.data(), scr.colsum.data(), cols,
                          call.out + oc * cols, shift, stats_);
        }
        if (stats_) stats_->flips = injector_->flips_injected();
        return;
    }

    // Fast path: tiled integer GEMM through the dispatch-selected kernel
    // (SIMD needs the overflow-safe i32 bound the plan proved; wider
    // convs keep the scalar int64 loop). The packed pipeline preps the
    // weight matrix once per call.
    const std::size_t tile = std::min(g.tile_cols, cols);
    if (g.acc32_safe && packed_.gemm != nullptr) {
        ExecContext::reserve(scr.wprep, out_c * packed_.weight_row_bytes(g.kdim));
        packed_.prep(qc.qweights.data(), out_c, g.kdim, scr.wprep.data());
        conv_rows_packed(op, qc, g, columns, scr.wprep.data(), scr.colsum.data(), cols,
                         call.out, shift, stats_, scr.acc32, scr.packed, tile, packed_,
                         epilogue_kernel_);
    } else if (g.acc32_safe && simd_kernel_ != nullptr) {
        conv_rows_simd(op, qc, g, columns, scr.colsum.data(), cols, call.out, shift, stats_,
                       scr.acc32, tile, simd_kernel_, epilogue_kernel_);
    } else if (g.acc32_safe) {
        conv_rows<std::int32_t>(op, qc, g, columns, scr.colsum.data(), cols, call.out, shift,
                                stats_, scr.acc32, tile);
    } else {
        conv_rows<std::int64_t>(op, qc, g, columns, scr.colsum.data(), cols, call.out, shift,
                                stats_, scr.acc64, tile);
    }
}

}  // namespace raq::exec
