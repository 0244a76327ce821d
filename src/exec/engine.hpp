// The execution engine: drives an ExecPlan over a batch through a Backend
// using one ExecContext of scratch state. One plan, many concurrent
// executions: the plan is immutable, each thread brings its own context
// (and backend instance, when the backend carries per-run hooks).
//
// One execution order: a run executes the plan's ops in schedule
// (op-index) order on the calling thread. Outputs are therefore a pure
// function of (plan, backend, batch), and a backend's ordered per-product
// hook (bit-flip injection) sees exactly the seed interpreter's order.
#pragma once

#include <functional>
#include <memory>

#include "exec/backend.hpp"

namespace raq::exec {

/// Optional per-level timing callback: after a run completes, invoked
/// once per dependency level of the plan's schedule with the host
/// microseconds that level's ops took. Zero cost when unset (the engine
/// neither reads the clock nor allocates). Levels are the plan's
/// dependency levels (ops sharing a level have no data path between
/// them), so the profile maps directly onto the schedule structure.
using LevelTimingHook = std::function<void(int level, double host_us)>;

/// Optional per-tensor visit, called on the calling thread: first with
/// the input, then with each op's output in schedule order, right after
/// that op runs and before any later op can reuse its arena region. The
/// view is valid only for the duration of the call.
using TensorVisit = std::function<void(int tensor_id, tensor::TensorView tensor)>;

struct RunOptions {
    const LevelTimingHook* level_hook = nullptr;  ///< optional per-level profiling
    TensorVisit visit;  ///< optional per-tensor visit (see TensorVisit)
};

/// Execute `plan` with `backend` on `batch` (1 ≤ n ≤ plan capacity).
/// Returns the graph-output tensor. The batch is read in place (zero-copy
/// for Tensor::batch_view slices).
[[nodiscard]] tensor::Tensor run(const ExecPlan& plan, Backend& backend, ExecContext& ctx,
                                 tensor::TensorView batch, const RunOptions& options = {});

/// Reusable FP32 execution state: plan + context + FloatBackend, growing
/// its batch capacity on demand. One per thread. Compiles a private plan
/// rather than using the PlanCache: FloatBackend reads weights from the
/// plan's embedded graph, so float plans cannot be shared across
/// same-topology graphs with different weights.
class FloatRunner {
public:
    explicit FloatRunner(const ir::Graph& graph, int batch_capacity = 1);

    [[nodiscard]] tensor::Tensor run(tensor::TensorView batch);
    [[nodiscard]] const ExecPlan& plan() const { return *plan_; }

private:
    std::unique_ptr<ExecPlan> plan_;
    FloatBackend backend_;
    ExecContext ctx_;
};

}  // namespace raq::exec
