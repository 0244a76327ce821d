// Quantized execution of QuantizedGraphs, as thin wrappers over the
// planned execution engine (src/exec/): every convolution runs on the
// unsigned-MAC datapath (q_a × q_w products accumulated in integers,
// zero-point corrections applied afterwards, 16−α−β-bit biases), exactly
// the computation the systolic array performs. The per-product hook is
// where the Fig. 1b bit-flip injection happens.
//
// QuantRunner is the reusable-state form: the Algorithm 1 inner loop and
// the serving runtime compile the plan once and re-run it with zero
// steady-state allocation, rebinding re-quantized graphs in place.
#pragma once

#include <cstdint>
#include <memory>

#include "exec/engine.hpp"
#include "exec/quant_backend.hpp"
#include "inject/bitflip.hpp"
#include "quant/quantized_graph.hpp"
#include "tensor/tensor.hpp"

namespace raq::quant {

using QuantExecStats = exec::QuantExecStats;

/// Reusable quantized execution state: one ExecPlan (resolved through the
/// process-wide exec::PlanCache — every runner over the same topology and
/// capacity shares one compiled plan), one QuantBackend and one
/// ExecContext. Capacity grows on demand; rebind() swaps in a graph with
/// identical topology (e.g. the next re-quantization) without recompiling
/// the plan or dropping the scratch buffers.
///
/// Concurrency: a runner is single-threaded mutable state — one per
/// thread/device. The underlying plan is immutable and may be shared.
class QuantRunner {
public:
    /// Borrowing form: `qgraph` must outlive the binding (next rebind or
    /// destruction). Prefer the shared_ptr forms, which pin the graph.
    explicit QuantRunner(const QuantizedGraph& qgraph, int batch_capacity = 1);
    /// Owning form: the runner keeps the graph alive itself.
    explicit QuantRunner(std::shared_ptr<const QuantizedGraph> qgraph,
                         int batch_capacity = 1);

    /// Swap the executed graph; its topology must match the planned one.
    /// Borrowing form: `qgraph` must stay alive until the next rebind
    /// (or destruction).
    void rebind(const QuantizedGraph& qgraph);
    /// Owning form: the runner pins the new graph (and releases the
    /// previous pin only after re-pointing at the new one).
    void rebind(std::shared_ptr<const QuantizedGraph> qgraph);

    /// Run one batch; `injector` (optional) is invoked once per MAC
    /// product, in the same order as the seed interpreter.
    [[nodiscard]] tensor::Tensor run(tensor::TensorView batch,
                                     inject::BitFlipInjector* injector = nullptr,
                                     QuantExecStats* stats = nullptr);

    /// Optional per-level timing profile: after each run, `hook` fires
    /// once per dependency level with that level's host microseconds.
    /// Pass an empty function to disable (the default; disabled runs
    /// never read the clock).
    void set_level_hook(exec::LevelTimingHook hook) { level_hook_ = std::move(hook); }

    /// Pin the SIMD dispatch tier of the integer-GEMM backend (defaults
    /// to the process-wide exec::kernels_simd::active_tier()). Every tier
    /// computes bit-identical logits; benches and tests pin the scalar
    /// reference or sweep tiers for comparison.
    void set_kernel_tier(exec::kernels_simd::KernelTier tier) {
        backend_.set_kernel_tier(tier);
    }
    [[nodiscard]] exec::kernels_simd::KernelTier kernel_tier() const {
        return backend_.kernel_tier();
    }

    [[nodiscard]] const exec::ExecPlan& plan() const { return *plan_; }

private:
    std::shared_ptr<const exec::ExecPlan> plan_;
    exec::QuantBackend backend_;
    exec::ExecContext ctx_;
    exec::LevelTimingHook level_hook_;  ///< empty = profiling off
    std::shared_ptr<const QuantizedGraph> pinned_;  ///< set by the owning forms
};

/// Run the quantized graph; one-shot wrapper over QuantRunner. Returns
/// float logits.
///
/// Reentrancy guarantee (relied on by the serving runtime in src/serve):
/// this function keeps no shared mutable state — all scratch buffers are
/// per call, and the only stateful collaborators (`injector`, `stats`)
/// are caller-provided per-call objects. Concurrent calls on the same
/// `qgraph` from different threads are safe and bit-identical to serial
/// execution as long as each call gets its own injector/stats.
[[nodiscard]] tensor::Tensor run_quantized(const QuantizedGraph& qgraph,
                                           tensor::TensorView batch,
                                           inject::BitFlipInjector* injector = nullptr,
                                           QuantExecStats* stats = nullptr);

}  // namespace raq::quant
