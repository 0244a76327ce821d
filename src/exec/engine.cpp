#include "exec/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>

#include "exec/kernels.hpp"

namespace raq::exec {

namespace {
std::atomic<std::uint64_t> g_level_parallel_runs{0};
std::atomic<std::uint64_t> g_level_parallel_levels{0};
}  // namespace

std::uint64_t level_parallel_runs() {
    return g_level_parallel_runs.load(std::memory_order_relaxed);
}
std::uint64_t level_parallel_levels() {
    return g_level_parallel_levels.load(std::memory_order_relaxed);
}

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

    // Tensor id -> buffer. The input is read in place from the caller's
    // view; everything else lives at its plan-assigned arena offset.
    // assign() reuses the vector's storage after the first run.
    ctx.buffers.assign(static_cast<std::size_t>(graph.num_tensors()), nullptr);
    std::vector<const float*>& buffers = ctx.buffers;
    buffers[static_cast<std::size_t>(graph.input_id())] = batch.data;
    if (options.visit) options.visit(graph.input_id(), batch);

    // Per-level profiling accumulates locally and fires the hook once per
    // level after the run (serial: summed per-op; fanned: the level's
    // wall time, which is what the level actually cost the run).
    const bool timed = options.level_hook != nullptr && *options.level_hook != nullptr;
    std::vector<double> level_us;
    if (timed) {
        int max_level = 0;
        for (const OpStep& step : plan.schedule()) max_level = std::max(max_level, step.level);
        level_us.assign(static_cast<std::size_t>(max_level) + 1, 0.0);
    }

    // One op, executed with an exclusively owned conv workspace. Writing
    // buffers[output] from concurrent lanes is safe: ops of one level have
    // distinct outputs (distinct vector elements), and the pool barrier
    // publishes them to the next level.
    const auto exec_op = [&](int op_index, ThreadPool* pool, ConvScratch& scratch) {
        const ir::Op& op = graph.ops()[static_cast<std::size_t>(op_index)];
        const tensor::Shape& out_shape = shapes[static_cast<std::size_t>(op.output)];
        float* out = ctx.arena.data() + plan.offset_of(op.output);
        const float* in0 = buffers[static_cast<std::size_t>(op.inputs.at(0))];
        const tensor::Shape& in0_shape = shapes[static_cast<std::size_t>(op.inputs.at(0))];

        switch (op.kind) {
            case ir::OpKind::Conv2d: {
                ConvCall call;
                call.op_index = op_index;
                call.op = &op;
                call.geom = plan.conv_geom(op_index);
                call.in = in0;
                call.in_shape = in0_shape;
                call.out = out;
                call.out_shape = out_shape;
                call.pool = pool;
                call.scratch = &scratch;
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
    };

    // Level-parallel mode: fan the mutually independent ops of each level
    // out over the pool (each fanned op runs its conv serially on a
    // lane-private workspace — the pool is not reentrant); single-op
    // levels keep the conv-internal channel split instead. The arena's
    // level floors guarantee no two same-level tensors share bytes.
    // Backends with ordered hooks (serial_only) and runs with a visit
    // take the schedule path.
    const bool fan_levels = options.pool != nullptr && plan.has_parallel_levels() &&
                            !backend.serial_only() && !options.visit;
    if (fan_levels) {
        const std::vector<int>& order = plan.level_order();
        const std::vector<std::size_t>& bounds = plan.level_bounds();
        std::uint64_t fanned = 0;
        for (std::size_t level = 0; level + 1 < bounds.size(); ++level) {
            const std::chrono::steady_clock::time_point level_start =
                timed ? std::chrono::steady_clock::now()
                      : std::chrono::steady_clock::time_point{};
            const std::size_t begin = bounds[level];
            const std::size_t count = bounds[level + 1] - begin;
            if (count <= 1) {
                if (count == 1) exec_op(order[begin], options.pool, ctx.scratch);
            } else {
                const std::size_t lanes = static_cast<std::size_t>(options.pool->size());
                if (ctx.level_lanes.size() < lanes) ctx.level_lanes.resize(lanes);
                ++fanned;
                options.pool->parallel_for(
                    count, [&](std::size_t lane, std::size_t b, std::size_t e) {
                        for (std::size_t i = b; i < e; ++i)
                            exec_op(order[begin + i], nullptr, ctx.level_lanes[lane]);
                    });
            }
            if (timed)
                level_us[level] += std::chrono::duration<double, std::micro>(
                                       std::chrono::steady_clock::now() - level_start)
                                       .count();
        }
        if (fanned > 0) {
            g_level_parallel_runs.fetch_add(1, std::memory_order_relaxed);
            g_level_parallel_levels.fetch_add(fanned, std::memory_order_relaxed);
        }
    } else {
        for (const OpStep& step : plan.schedule()) {
            const std::chrono::steady_clock::time_point op_start =
                timed ? std::chrono::steady_clock::now()
                      : std::chrono::steady_clock::time_point{};
            exec_op(step.op_index, options.pool, ctx.scratch);
            if (timed)
                level_us[static_cast<std::size_t>(step.level)] +=
                    std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - op_start)
                        .count();
            if (options.visit) {
                const int id = graph.ops()[static_cast<std::size_t>(step.op_index)].output;
                options.visit(id, tensor::TensorView(buffers[static_cast<std::size_t>(id)],
                                                     shapes[static_cast<std::size_t>(id)]));
            }
        }
    }
    if (timed)
        for (std::size_t level = 0; level < level_us.size(); ++level)
            (*options.level_hook)(static_cast<int>(level), level_us[level]);

    const int out_id = graph.output_id();
    const tensor::Shape& out_shape = shapes[static_cast<std::size_t>(out_id)];
    tensor::Tensor result(out_shape);
    const float* src = buffers[static_cast<std::size_t>(out_id)];
    std::copy(src, src + out_shape.size(), result.data());
    return result;
}

FloatRunner::FloatRunner(const ir::Graph& graph, int batch_capacity, ThreadPool* pool)
    : plan_(std::make_unique<ExecPlan>(graph, PlanOptions{batch_capacity, true})),
      pool_(pool) {}

tensor::Tensor FloatRunner::run(tensor::TensorView batch) {
    if (batch.shape.n > plan_->batch_capacity())
        // Recompile at the larger capacity, sharing the owned graph.
        plan_ = std::make_unique<ExecPlan>(plan_->graph_shared(),
                                           PlanOptions{batch.shape.n, true});
    RunOptions options;
    options.pool = pool_;
    return exec::run(*plan_, backend_, ctx_, batch, options);
}

}  // namespace raq::exec
