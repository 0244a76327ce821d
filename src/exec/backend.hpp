// Backend: the pluggable MAC datapath of the execution engine. The only
// thing that differs between FP32 reference inference and the quantized
// NPU datapath is how a convolution is computed — every other op (ReLU,
// pooling, add, concat) runs on the shared float kernels inside the
// engine. A backend therefore implements exactly two hooks: worst-case
// scratch reservation and the convolution itself.
#pragma once

#include "exec/context.hpp"
#include "exec/plan.hpp"

namespace raq::exec {

/// Per-convolution invocation view assembled by the engine: the op, its
/// plan geometry, and raw input/output buffers with this run's shapes.
struct ConvCall {
    int op_index = 0;
    const ir::Op* op = nullptr;
    const ConvGeom* geom = nullptr;
    const float* in = nullptr;
    tensor::Shape in_shape;
    float* out = nullptr;
    tensor::Shape out_shape;
};

class Backend {
public:
    virtual ~Backend() = default;

    /// Reserve this backend's conv scratch in `ctx` for the worst case of
    /// `plan`, so the run itself is allocation-free.
    virtual void prepare(const ExecPlan& plan, ExecContext& ctx) const = 0;

    /// Execute one convolution on `ctx.scratch`. Must fully overwrite
    /// `call.out`.
    virtual void conv(const ConvCall& call, ExecContext& ctx) = 0;
};

/// FP32 reference datapath: im2col + float GEMM + bias, numerically
/// identical to the seed float interpreter.
class FloatBackend final : public Backend {
public:
    void prepare(const ExecPlan& plan, ExecContext& ctx) const override;
    void conv(const ConvCall& call, ExecContext& ctx) override;
};

}  // namespace raq::exec
