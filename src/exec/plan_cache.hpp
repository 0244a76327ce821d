// PlanCache: shared, thread-safe cache of compiled ExecPlans keyed by
// (graph topology fingerprint, batch capacity).
//
// An ExecPlan depends only on the graph *structure* (schedule, lifetimes,
// arena layout, conv geometry), never on weights — so every
// re-quantization of one model, and every one-shot wrapper call over the
// same architecture, can share one compiled plan. Before this cache, the
// background re-quantization path and `run_quantized` recompiled a plan
// per call; now repeated re-quantizations of the same topology recompile
// zero plans.
//
// Safety: a cached plan embeds the ir::Graph it was first compiled from.
// That is sound for the *quantized* path, where QuantBackend reads all
// numeric payload from the bound QuantizedGraph and only geometry from
// the plan's graph. It is NOT sound for the float path — FloatBackend
// reads `op.weights` from the plan's embedded graph — which is why
// FloatRunner keeps compiling private plans and does not use this cache.
//
// Keys use ir::topology_fingerprint; collisions are resolved with
// ir::topology_equals, so a hit is structurally exact. Entries are
// evicted least-recently-used beyond `max_entries`.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "exec/plan.hpp"

namespace raq::exec {

struct PlanCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;    ///< each miss is one ExecPlan compilation
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
};

class PlanCache {
public:
    explicit PlanCache(std::size_t max_entries = 64) : max_entries_(max_entries) {}

    /// Return the cached plan for (topology of `graph`, `capacity`),
    /// compiling (with buffer reuse on) and inserting it on a miss. The
    /// returned plan may embed a different — but structurally identical —
    /// graph than `graph`. A miss copies `graph` into the plan; prefer
    /// the shared_ptr overload when the caller already owns a shared
    /// graph (the runner capacity-growth path), which compiles without
    /// copying.
    [[nodiscard]] std::shared_ptr<const ExecPlan> get(const ir::Graph& graph, int capacity)
        RAQ_EXCLUDES(mutex_);
    [[nodiscard]] std::shared_ptr<const ExecPlan> get(
        std::shared_ptr<const ir::Graph> graph, int capacity) RAQ_EXCLUDES(mutex_);

    [[nodiscard]] PlanCacheStats stats() const RAQ_EXCLUDES(mutex_);

    /// The process-wide cache the quantized runners use.
    static PlanCache& global();

private:
    struct Entry {
        std::uint64_t fingerprint = 0;
        int capacity = 0;
        std::shared_ptr<const ExecPlan> plan;
        std::uint64_t last_used = 0;
    };

    /// Lookup, or insert the plan `build()` compiles on a miss.
    template <typename BuildFn>
    std::shared_ptr<const ExecPlan> lookup(const ir::Graph& graph, int capacity,
                                           BuildFn build) RAQ_EXCLUDES(mutex_);
    std::shared_ptr<const ExecPlan> find_locked(std::uint64_t fingerprint, int capacity,
                                                const ir::Graph& graph)
        RAQ_REQUIRES(mutex_);

    const std::size_t max_entries_;
    mutable common::Mutex mutex_;
    std::vector<Entry> entries_ RAQ_GUARDED_BY(mutex_);
    std::uint64_t tick_ RAQ_GUARDED_BY(mutex_) = 0;
    std::uint64_t hits_ RAQ_GUARDED_BY(mutex_) = 0;
    std::uint64_t misses_ RAQ_GUARDED_BY(mutex_) = 0;
    std::uint64_t evictions_ RAQ_GUARDED_BY(mutex_) = 0;
};

}  // namespace raq::exec
