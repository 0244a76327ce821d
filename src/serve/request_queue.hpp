// The serving request types. Admission itself is handled by
// serve::Scheduler (scheduler.hpp): per-class bounded lanes with the
// same close-and-drain contract as BoundedChannel — producers block when
// their lane is full; consumers pop up to `max_batch` requests per lock
// acquisition; close() stops admission but drains everything accepted.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "obs/trace.hpp"
#include "serve/bounded_channel.hpp"
#include "tensor/tensor.hpp"

namespace raq::serve {

/// Multi-tenant request class. Interactive requests have a tight latency
/// target and preempt Batch requests at batch-formation time; Batch
/// requests are throughput-oriented and protected from starvation by an
/// aging credit (see serve::Scheduler). Wire encoding is the enum value
/// as one byte (net::Op::InferClass); legacy frames default Interactive.
enum class RequestClass : std::uint8_t {
    Interactive = 0,
    Batch = 1,
};

inline constexpr std::size_t kNumRequestClasses = 2;

[[nodiscard]] inline const char* request_class_name(RequestClass klass) noexcept {
    switch (klass) {
        case RequestClass::Interactive: return "interactive";
        case RequestClass::Batch: return "batch";
    }
    return "?";
}

/// The outcome of one served request.
struct InferenceResult {
    std::uint64_t request_id = 0;
    int predicted_class = -1;
    std::vector<float> logits;
    int device_id = -1;                ///< the serving group's id (= device id on one stage)
    std::uint64_t generation = 0;      ///< ModelState generation that served it
    /// Partition generation of the group that served it: 1 for a
    /// one-stage group (its only cut) and for a pipeline's first cut,
    /// bumped by every re-cut. A drain-and-swap re-cut never tears a
    /// batch, so one request is served end to end by exactly one
    /// partition.
    std::uint64_t partition = 0;
    std::uint64_t latency_cycles = 0;  ///< batch residency in model cycles
    double latency_us = 0.0;           ///< latency_cycles × device clock
    RequestClass klass = RequestClass::Interactive;  ///< class that served it
};

struct InferenceRequest {
    std::uint64_t id = 0;
    tensor::Tensor image;  ///< one sample, shape (1, c, h, w)
    std::promise<InferenceResult> promise;
    /// Scheduling class: picks the admission lane and the batch-formation
    /// priority (serve::Scheduler).
    RequestClass klass = RequestClass::Interactive;
    /// Admission timestamp (obs::monotonic_us), stamped unconditionally by
    /// every submit path — deadline/SLO accounting and the scheduler's
    /// anti-starvation aging credit need it even with telemetry off.
    std::int64_t submit_us = 0;
    /// Per-request trace, present only on sampled requests. Travels with
    /// the request through every channel handoff; exactly one thread
    /// touches it at a time (see obs/trace.hpp).
    std::shared_ptr<obs::TraceContext> trace;
    /// Completion hook, fired exactly once after the promise is
    /// satisfied (value or exception). The net front-end hangs an
    /// eventfd wake here so its event loop learns of completions without
    /// parking a thread on every future. Empty for in-process callers.
    std::function<void()> on_done;

    /// Satisfy the promise with a result, then fire the completion hook.
    /// All fulfilment sites go through resolve()/reject() so the hook
    /// cannot be missed by a new code path.
    void resolve(InferenceResult&& result) {
        promise.set_value(std::move(result));
        if (on_done) on_done();
    }

    /// Satisfy the promise with an error, then fire the completion hook.
    void reject(const std::exception_ptr& error) {
        promise.set_exception(error);
        if (on_done) on_done();
    }
};

/// Fail every still-unfulfilled promise in `batch` with `error`,
/// leaving promises satisfied before the throw alone. The one error
/// fan-out both the server's worker loop (a batch a group cannot admit)
/// and the shared stage body apply when a batch throws mid-serve.
inline void fail_batch(std::vector<InferenceRequest>& batch, const std::exception_ptr& error) {
    for (InferenceRequest& request : batch) {
        try {
            request.reject(error);
        } catch (const std::future_error&) {
            // already satisfied before the throw
        }
    }
}

}  // namespace raq::serve
