#include "exec/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "exec/kernels.hpp"

namespace raq::exec {

namespace {

std::size_t plane_size(const tensor::Shape& s) {
    return static_cast<std::size_t>(s.h) * static_cast<std::size_t>(s.w);
}

/// A code tensor's bytes, at the start of its (float-sized) region.
std::uint8_t* codes_at(float* region) { return reinterpret_cast<std::uint8_t*>(region); }
const std::uint8_t* codes_at(const float* region) {
    return reinterpret_cast<const std::uint8_t*>(region);
}

}  // namespace

tensor::Tensor run(const ExecPlan& plan, Backend& backend, ExecContext& ctx,
                   tensor::TensorView batch, const RunOptions& options) {
    const ir::Graph& graph = plan.graph();
    if (batch.data == nullptr) throw std::invalid_argument("exec::run: null batch");
    if (!(batch.shape.c == graph.input_shape().c && batch.shape.h == graph.input_shape().h &&
          batch.shape.w == graph.input_shape().w))
        throw std::invalid_argument("exec::run: batch shape does not match graph input");
    const int n = batch.shape.n;
    // Shape cache: steady-state serving re-runs one (plan, batch size)
    // pair, so the O(ops) shape-inference walk happens once, not per run.
    if (ctx.shapes_plan_serial != plan.serial() || ctx.shapes_batch_n != n) {
        ctx.shapes = plan.shapes_for(n);  // validates 1 ≤ n ≤ capacity
        ctx.shapes_plan_serial = plan.serial();
        ctx.shapes_batch_n = n;
    }
    const std::vector<tensor::Shape>& shapes = ctx.shapes;

    ExecContext::reserve(ctx.arena, plan.arena_floats());
    backend.prepare(plan, ctx);

    // The integer handoff: tensors the backend hands from op to op as u8
    // codes. A visit reads every tensor as floats, so it turns it off.
    const Handoff* handoff = options.visit ? nullptr : backend.handoff();
    if (handoff != nullptr && handoff->codes.size() != shapes.size())
        throw std::logic_error("exec::run: backend handoff does not match the plan's graph");
    const auto codes_of = [handoff](int tensor_id) -> const kernels_simd::CodeParams* {
        return handoff != nullptr ? handoff->code(tensor_id) : nullptr;
    };

    // Tensor id -> buffer. Every tensor is channel-major, [C][N][H][W];
    // at n = 1 that is NCHW, so the input is read in place from the
    // caller's view. Larger batches are transposed into ctx.input first.
    // Everything else lives at its plan-assigned arena offset. assign()
    // reuses the vector's storage after the first run.
    ctx.buffers.assign(static_cast<std::size_t>(graph.num_tensors()), nullptr);
    std::vector<const float*>& buffers = ctx.buffers;
    const float* input = batch.data;
    if (n > 1) {
        ExecContext::reserve(ctx.input, batch.size());
        kernels::transpose_planes(batch.data, n, batch.shape.c, plane_size(batch.shape),
                                  ctx.input.data());
        input = ctx.input.data();
    }
    buffers[static_cast<std::size_t>(graph.input_id())] = input;
    if (options.visit) options.visit(graph.input_id(), batch);

    // Per-level profiling sums each op's host time into its level and
    // fires the hook once per level after the run.
    const bool timed = options.level_hook != nullptr && *options.level_hook != nullptr;
    std::vector<double> level_us;
    if (timed) {
        int max_level = 0;
        for (const OpStep& step : plan.schedule()) max_level = std::max(max_level, step.level);
        level_us.assign(static_cast<std::size_t>(max_level) + 1, 0.0);
    }

    for (const OpStep& step : plan.schedule()) {
        const std::chrono::steady_clock::time_point op_start =
            timed ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
        const ir::Op& op = graph.ops()[static_cast<std::size_t>(step.op_index)];
        const tensor::Shape& out_shape = shapes[static_cast<std::size_t>(op.output)];
        float* out = ctx.arena.data() + plan.offset_of(op.output);
        const float* in0 = buffers[static_cast<std::size_t>(op.inputs.at(0))];
        const tensor::Shape& in0_shape = shapes[static_cast<std::size_t>(op.inputs.at(0))];
        // Non-null: this op writes its output as codes with these parameters.
        const kernels_simd::CodeParams* out_codes = codes_of(op.output);

        switch (op.kind) {
            case ir::OpKind::Conv2d: {
                ConvCall call;
                call.op_index = step.op_index;
                call.op = &op;
                call.geom = plan.conv_geom(step.op_index);
                if (codes_of(op.inputs[0]) != nullptr)
                    call.in_codes = codes_at(in0);
                else
                    call.in = in0;
                call.in_shape = in0_shape;
                call.out = out;
                call.out_codes = out_codes;
                call.out_shape = out_shape;
                backend.conv(call, ctx);
                break;
            }
            case ir::OpKind::Relu:
                // In place when the plan joined the ReLU to its input (it is
                // the input's only reader); over codes it is then a no-op.
                if (out_codes == nullptr)
                    kernels::relu(in0, out, in0_shape.size());
                else if (codes_of(op.inputs[0]) == nullptr)
                    handoff->quantize(in0, in0_shape.size(), *out_codes, codes_at(out));
                else if (out != in0)
                    std::memcpy(out, in0, in0_shape.size());
                break;
            case ir::OpKind::MaxPool2d:
                if (out_codes != nullptr)
                    kernels::maxpool_u8(codes_at(in0), in0_shape, op.pool.kernel,
                                        op.pool.stride, codes_at(out), out_shape.h,
                                        out_shape.w, handoff->maxpool);
                else
                    kernels::maxpool(in0, in0_shape, op.pool.kernel, op.pool.stride, out,
                                     out_shape.h, out_shape.w);
                break;
            case ir::OpKind::GlobalAvgPool:
                kernels::global_avg_pool(in0, in0_shape, out);
                break;
            case ir::OpKind::Add:
                kernels::add(in0, buffers[static_cast<std::size_t>(op.inputs.at(1))], out,
                             in0_shape.size());
                break;
            case ir::OpKind::Concat: {
                // Channel-major: input i's channels are one block of the
                // output, floats or codes alike.
                const std::size_t channel_bytes =
                    static_cast<std::size_t>(out_shape.n) * plane_size(out_shape) *
                    (out_codes != nullptr ? 1 : sizeof(float));
                auto* dst = codes_at(out);
                for (const int id : op.inputs) {
                    const std::size_t block =
                        static_cast<std::size_t>(shapes[static_cast<std::size_t>(id)].c) *
                        channel_bytes;
                    std::memcpy(dst, buffers[static_cast<std::size_t>(id)], block);
                    dst += block;
                }
                break;
            }
        }
        buffers[static_cast<std::size_t>(op.output)] = out;
        if (timed)
            level_us[static_cast<std::size_t>(step.level)] +=
                std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                          op_start)
                    .count();
        if (options.visit) {
            const float* nchw = out;
            if (n > 1) {
                ExecContext::reserve(ctx.visit, out_shape.size());
                kernels::transpose_planes(out, out_shape.c, n, plane_size(out_shape),
                                          ctx.visit.data());
                nchw = ctx.visit.data();
            }
            options.visit(op.output, tensor::TensorView(nchw, out_shape));
        }
    }
    if (timed)
        for (std::size_t level = 0; level < level_us.size(); ++level)
            (*options.level_hook)(static_cast<int>(level), level_us[level]);

    const int out_id = graph.output_id();
    const tensor::Shape& out_shape = shapes[static_cast<std::size_t>(out_id)];
    tensor::Tensor result(out_shape);
    const float* src = buffers[static_cast<std::size_t>(out_id)];
    if (n > 1)
        kernels::transpose_planes(src, out_shape.c, n, plane_size(out_shape), result.data());
    else
        std::copy(src, src + out_shape.size(), result.data());
    return result;
}

FloatRunner::FloatRunner(const ir::Graph& graph, int batch_capacity)
    : plan_(std::make_unique<ExecPlan>(graph, PlanOptions{batch_capacity})) {}

tensor::Tensor FloatRunner::run(tensor::TensorView batch) {
    if (batch.shape.n > plan_->batch_capacity())
        // Recompile at the larger capacity, sharing the owned graph.
        plan_ = std::make_unique<ExecPlan>(plan_->graph_shared(), PlanOptions{batch.shape.n});
    return exec::run(*plan_, backend_, ctx_, batch);
}

}  // namespace raq::exec
