#include "exec/backend.hpp"

#include "exec/kernels.hpp"
#include "tensor/gemm.hpp"

namespace raq::exec {

void FloatBackend::prepare(const ExecPlan& plan, ExecContext& ctx) const {
    ExecContext::reserve(ctx.scratch.columns, plan.max_columns());
    ExecContext::reserve(ctx.scratch.phases, plan.max_phase_elems());
}

void FloatBackend::conv(const ConvCall& call, ExecContext& ctx) {
    const ir::Op& op = *call.op;
    const ConvGeom& g = *call.geom;
    ConvScratch& scr = ctx.scratch;
    const tensor::Shape& s = call.in_shape;
    const std::size_t cols = static_cast<std::size_t>(s.n) * g.hw;
    const std::size_t out_c = static_cast<std::size_t>(op.conv.out_c);

    if (g.path != Im2colPath::Direct) ExecContext::reserve(scr.columns, g.kdim * cols);
    ExecContext::reserve(scr.phases, g.phase_elems(cols));
    const float* columns =
        kernels::im2col(call.in, s, op.conv, g, scr.columns.data(), scr.phases.data());

    // The [oc, cols] GEMM result already is the channel-major output
    // [oc][n][oh][ow]: GEMM straight into the output, then the bias in
    // place — each output the same product-plus-bias as the seed's.
    tensor::gemm(op.weights.data(), columns, call.out, out_c, g.kdim, cols);
    for (std::size_t oc = 0; oc < out_c; ++oc) {
        const float b = op.bias[oc];
        float* row = call.out + oc * cols;
        for (std::size_t i = 0; i < cols; ++i) row[i] += b;
    }
}

}  // namespace raq::exec
