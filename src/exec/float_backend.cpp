#include "exec/backend.hpp"

#include <cstring>

#include "exec/kernels.hpp"
#include "tensor/gemm.hpp"

namespace raq::exec {

void FloatBackend::prepare(const ExecPlan& plan, ExecContext& ctx) const {
    ExecContext::reserve(ctx.scratch.columns, plan.max_columns());
    ExecContext::reserve(ctx.scratch.product, plan.max_product_floats());
}

void FloatBackend::conv(const ConvCall& call, ExecContext& ctx) {
    const ir::Op& op = *call.op;
    const ConvGeom& g = *call.geom;
    ConvScratch& scr = ctx.scratch;
    const tensor::Shape& s = call.in_shape;
    const std::size_t cols = static_cast<std::size_t>(s.n) * g.hw;
    const std::size_t out_c = static_cast<std::size_t>(op.conv.out_c);

    ExecContext::reserve(scr.columns, g.kdim * cols);
    kernels::im2col(call.in, s, op.conv.kh, op.conv.kw, op.conv.stride, op.conv.pad,
                    scr.columns.data(), g.oh, g.ow, g.zero_columns);

    if (s.n == 1) {
        // Single-sample fast path: the [oc, cols] GEMM result already is
        // the (1, oc, oh, ow) output layout — GEMM straight into the
        // output buffer, then the bias in place. Same float ops as the
        // product-buffer path, so still bit-identical.
        tensor::gemm(op.weights.data(), scr.columns.data(), call.out, out_c, g.kdim, cols);
        for (std::size_t oc = 0; oc < out_c; ++oc) {
            const float b = op.bias[oc];
            float* row = call.out + oc * g.hw;
            for (std::size_t i = 0; i < g.hw; ++i) row[i] += b;
        }
        return;
    }

    ExecContext::reserve(scr.product, out_c * cols);
    // product is [oc, n*oh*ow]; output layout is [n, oc, oh, ow].
    tensor::gemm(op.weights.data(), scr.columns.data(), scr.product.data(), out_c, g.kdim,
                 cols);
    for (int n = 0; n < s.n; ++n)
        for (std::size_t oc = 0; oc < out_c; ++oc) {
            const float b = op.bias[oc];
            const float* src = scr.product.data() + oc * cols + static_cast<std::size_t>(n) * g.hw;
            float* dst = call.out + (static_cast<std::size_t>(n) * out_c + oc) * g.hw;
            for (std::size_t i = 0; i < g.hw; ++i) dst[i] = src[i] + b;
        }
}

}  // namespace raq::exec
