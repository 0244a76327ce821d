#include "quant/quant_executor.hpp"

#include <stdexcept>

#include "exec/plan_cache.hpp"

namespace raq::quant {

namespace {

/// Clears the backend's per-run fault hooks on every exit path: a run
/// that throws must not leave the backend pointing at caller-owned
/// injector/stats objects that are about to be destroyed.
class FaultHookGuard {
public:
    FaultHookGuard(exec::QuantBackend& backend, inject::BitFlipInjector* injector,
                   QuantExecStats* stats)
        : backend_(backend) {
        backend_.set_fault_hooks(injector, stats);
    }
    ~FaultHookGuard() { backend_.set_fault_hooks(nullptr, nullptr); }

    FaultHookGuard(const FaultHookGuard&) = delete;
    FaultHookGuard& operator=(const FaultHookGuard&) = delete;

private:
    exec::QuantBackend& backend_;
};

}  // namespace

QuantRunner::QuantRunner(const QuantizedGraph& qgraph, int batch_capacity)
    : plan_(exec::PlanCache::global().get(qgraph.graph(), batch_capacity)),
      backend_(qgraph) {}

QuantRunner::QuantRunner(std::shared_ptr<const QuantizedGraph> qgraph, int batch_capacity)
    : QuantRunner(*qgraph, batch_capacity) {
    pinned_ = std::move(qgraph);
}

void QuantRunner::rebind(const QuantizedGraph& qgraph) {
    if (!ir::topology_equals(plan_->graph(), qgraph.graph()))
        throw std::invalid_argument("QuantRunner: rebind graph topology mismatch");
    backend_.bind(qgraph);
    pinned_.reset();  // the caller owns this binding's lifetime
}

void QuantRunner::rebind(std::shared_ptr<const QuantizedGraph> qgraph) {
    if (!qgraph) throw std::invalid_argument("QuantRunner: rebind null graph");
    if (!ir::topology_equals(plan_->graph(), qgraph->graph()))
        throw std::invalid_argument("QuantRunner: rebind graph topology mismatch");
    backend_.bind(*qgraph);
    pinned_ = std::move(qgraph);  // releases the previous pin after re-pointing
}

tensor::Tensor QuantRunner::run(tensor::TensorView batch, inject::BitFlipInjector* injector,
                                QuantExecStats* stats) {
    if (batch.shape.n > plan_->batch_capacity())
        // Re-resolve at the larger capacity (a cache hit when any runner
        // over this topology already grew this far; a miss shares the
        // current plan's graph instead of copying it).
        plan_ = exec::PlanCache::global().get(plan_->graph_shared(), batch.shape.n);
    const FaultHookGuard guard(backend_, injector, stats);
    exec::RunOptions options;
    if (level_hook_) options.level_hook = &level_hook_;
    return exec::run(*plan_, backend_, ctx_, batch, options);
}

tensor::Tensor run_quantized(const QuantizedGraph& qgraph, tensor::TensorView batch,
                             inject::BitFlipInjector* injector, QuantExecStats* stats) {
    QuantRunner runner(qgraph, batch.shape.n);
    return runner.run(batch, injector, stats);
}

}  // namespace raq::quant
