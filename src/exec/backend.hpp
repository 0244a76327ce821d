// Backend: the pluggable MAC datapath of the execution engine. The only
// thing that differs between FP32 reference inference and the quantized
// NPU datapath is how a convolution is computed, and whether tensors
// travel between ops as floats or as activation codes. A backend
// implements worst-case scratch reservation and the convolution itself;
// the quantized one also names its integer handoff (below). ReLU,
// pooling, add and concat run on the shared kernels inside the engine,
// on floats or, for handed-off tensors, on codes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "exec/context.hpp"
#include "exec/kernels_simd.hpp"
#include "exec/plan.hpp"

namespace raq::exec {

/// The integer handoff of a quantized run: the tensors that travel
/// between ops only as u8 activation codes, each quantized once, where it
/// is made, with the parameters of the convs that read it.
///
/// A tensor is codes when all of its readers are convs, directly or
/// through ReLU, max-pool and concat ops whose outputs are codes too, and
/// every conv it reaches quantizes with the same CodeParams. Activation
/// zero-points are 0, so each step is exact element by element:
/// q(relu(x)) == q(x), max(q(a), q(b)) == q(max(a, b)) (q and the mask
/// are monotone), and concat only moves data. The graph input and output,
/// and the outputs and inputs of Add and GlobalAvgPool, stay float, and
/// so does a tensor whose readers disagree, with the chain that feeds it.
/// A code tensor keeps its float-sized arena region.
///
/// The producing op writes the codes: a conv's epilogue (its float
/// output, then the reader's quantize, in one pass), a ReLU over a float
/// input (that tensor's single quantize), max-pool and concat over codes.
/// A ReLU over codes is a no-op, and a conv reading codes skips its
/// quantize. Decided once per bound payload (QuantBackend::bind), never
/// per run; a run with a visit ignores it and keeps every tensor float.
struct Handoff {
    std::vector<std::optional<kernels_simd::CodeParams>> codes;  ///< per tensor id
    kernels_simd::QuantizeU8Fn quantize = nullptr;  ///< the tier's quantize
    kernels_simd::MaxPoolU8Fn maxpool = nullptr;    ///< null ⇒ scalar byte fold

    /// The code parameters of a tensor stored as codes, or null.
    [[nodiscard]] const kernels_simd::CodeParams* code(int tensor_id) const {
        const auto& c = codes[static_cast<std::size_t>(tensor_id)];
        return c ? &*c : nullptr;
    }
};

/// Per-convolution invocation view assembled by the engine: the op, its
/// plan geometry, and raw input/output buffers with this run's shapes.
/// Both buffers are channel-major, [C][N][H][W] (see context.hpp).
struct ConvCall {
    int op_index = 0;
    const ir::Op* op = nullptr;
    const ConvGeom* geom = nullptr;
    const float* in = nullptr;
    /// Set instead of `in` when the input travels as this conv's own
    /// activation codes: the conv skips its quantize.
    const std::uint8_t* in_codes = nullptr;
    tensor::Shape in_shape;
    float* out = nullptr;
    /// When set, the conv writes its output as codes with these
    /// parameters into `out`'s region instead of floats.
    const kernels_simd::CodeParams* out_codes = nullptr;
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

    /// The integer handoff of the bound payload; null keeps every tensor
    /// float (FloatBackend).
    [[nodiscard]] virtual const Handoff* handoff() const { return nullptr; }
};

/// FP32 reference datapath: im2col + float GEMM + bias, numerically
/// identical to the seed float interpreter.
class FloatBackend final : public Backend {
public:
    void prepare(const ExecPlan& plan, ExecContext& ctx) const override;
    void conv(const ConvCall& call, ExecContext& ctx) override;
};

}  // namespace raq::exec
