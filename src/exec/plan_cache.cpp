#include "exec/plan_cache.hpp"

#include <algorithm>
#include <utility>

namespace raq::exec {

std::shared_ptr<const ExecPlan> PlanCache::find_locked(std::uint64_t fingerprint,
                                                       int capacity,
                                                       const ir::Graph& graph) {
    for (Entry& entry : entries_) {
        if (entry.fingerprint != fingerprint || entry.capacity != capacity) continue;
        if (!ir::topology_equals(entry.plan->graph(), graph)) continue;  // collision
        entry.last_used = ++tick_;
        ++hits_;
        return entry.plan;
    }
    return nullptr;
}

template <typename BuildFn>
std::shared_ptr<const ExecPlan> PlanCache::lookup(const ir::Graph& graph, int capacity,
                                                  BuildFn build) {
    const std::uint64_t fingerprint = ir::topology_fingerprint(graph);
    {
        const common::MutexLock lock(mutex_);
        if (auto plan = find_locked(fingerprint, capacity, graph)) return plan;
    }
    // Compile outside the lock: plan construction is the expensive part,
    // and a concurrent duplicate build is benign (first insert wins).
    std::shared_ptr<const ExecPlan> plan = build();
    const common::MutexLock lock(mutex_);
    if (auto raced = find_locked(fingerprint, capacity, graph)) return raced;
    ++misses_;
    if (entries_.size() >= max_entries_) {
        const auto lru = std::min_element(
            entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.last_used < b.last_used; });
        entries_.erase(lru);
        ++evictions_;
    }
    entries_.push_back(Entry{fingerprint, capacity, plan, ++tick_});
    return plan;
}

std::shared_ptr<const ExecPlan> PlanCache::get(const ir::Graph& graph, int capacity) {
    return lookup(graph, capacity, [&] {
        return std::make_shared<const ExecPlan>(graph, PlanOptions{capacity});
    });
}

std::shared_ptr<const ExecPlan> PlanCache::get(std::shared_ptr<const ir::Graph> graph,
                                               int capacity) {
    const ir::Graph& ref = *graph;
    return lookup(ref, capacity, [&] {
        // Shares the caller's graph — no weight copy on this path.
        return std::make_shared<const ExecPlan>(std::move(graph), PlanOptions{capacity});
    });
}

PlanCacheStats PlanCache::stats() const {
    const common::MutexLock lock(mutex_);
    PlanCacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.entries = entries_.size();
    return s;
}

PlanCache& PlanCache::global() {
    static PlanCache cache;
    return cache;
}

}  // namespace raq::exec
