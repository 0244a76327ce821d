#include "exec/engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "exec/kernels.hpp"

namespace raq::exec {

namespace {

std::size_t plane_size(const tensor::Shape& s) {
    return static_cast<std::size_t>(s.h) * static_cast<std::size_t>(s.w);
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

        switch (op.kind) {
            case ir::OpKind::Conv2d: {
                ConvCall call;
                call.op_index = step.op_index;
                call.op = &op;
                call.geom = plan.conv_geom(step.op_index);
                call.in = in0;
                call.in_shape = in0_shape;
                call.out = out;
                call.out_shape = out_shape;
                backend.conv(call, ctx);
                break;
            }
            case ir::OpKind::Relu:
                kernels::relu(in0, out, in0_shape.size());
                break;
            case ir::OpKind::MaxPool2d:
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
                std::vector<kernels::ConcatInput> ins;
                ins.reserve(op.inputs.size());
                for (const int id : op.inputs)
                    ins.push_back(kernels::ConcatInput{
                        buffers[static_cast<std::size_t>(id)],
                        shapes[static_cast<std::size_t>(id)].c});
                kernels::concat(ins, out_shape, out);
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
