// A simulated NPU device inside the serving fleet.
//
// Each device carries its own aging state: simulated operating hours
// (initial field age + busy time accumulated while serving, optionally
// accelerated), the resulting ΔVth from the shared AgingModel, and the
// versioned core::ModelState currently deployed on it. The device clock
// is re-derived on every deployment from the installed compression's
// aged critical path (plus any configured guardband): the paper's
// premise is that ΔVth degrades the MAC critical path, so latency,
// operating hours and throughput all track the aged clock rather than
// the fresh-forever critical path cached at construction.
//
// Deployment lifecycle: crossing `requant_threshold_mv` since the
// deployed state's build level triggers, at the next batch boundary,
// either an inline rebuild (no RequantService — the device stalls for
// the build, the pre-PR behavior) or a background build: the device
// enqueues one job with the RequantService, keeps serving generation g,
// and adopts the published generation g+1 at a later batch boundary via
// an atomic payload rebind. At most one build is in flight per device.
//
// Every device serves inside a ShardGroup, as the one stage of a
// whole-model group or as one stage of a pipeline; the group feeds it
// batches through execute_batch() and runs requant_boundary() after each.
//
// Concurrency contract (compiler-checked — see src/common/README.md):
// one thread at a time drives a device (the worker holding its one-stage
// group, or its pipeline stage thread), so execution state (the runner)
// needs no locks. Three small mutexes guard what observers and the
// background builder touch — `state_mutex_` the deployed ModelState
// *pointer*, `pending_mutex_` the published-but-not-adopted state,
// `stats_mutex_` the counters — and are never held together; the
// RAQ_ACQUIRED_BEFORE edges below make that a build error rather than a
// convention. The clock period is an atomic double: the serve thread
// re-derives it at install, while observers read it wait-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

#include "aging/aging_model.hpp"
#include "core/model_state.hpp"
#include "core/requant_job.hpp"
#include "inject/bitflip.hpp"
#include "npu/systolic.hpp"
#include "obs/telemetry.hpp"
#include "quant/quant_executor.hpp"
#include "serve/reliability_planner.hpp"
#include "serve/request_queue.hpp"
#include "serve/requant_service.hpp"
#include "serve/stats.hpp"
#include "sim/traffic.hpp"

namespace raq::serve {

/// Read-only deployment context shared by every device in the fleet (or,
/// for a shard device, the shard-private sub-graph and sliced
/// calibration plus the fleet-shared selector/aging model).
struct ServeContext {
    const ir::Graph* graph = nullptr;                 ///< trained, BN-folded model
    const quant::CalibrationData* calib = nullptr;    ///< calibration statistics
    const core::CompressionSelector* selector = nullptr;
    const aging::AgingModel* aging = nullptr;
    /// Optional labeled evaluation set: enables the full Algorithm 1
    /// method search on re-quantization and online accuracy sampling.
    const tensor::Tensor* eval_images = nullptr;
    const std::vector<int>* eval_labels = nullptr;
};

struct DeviceConfig {
    double initial_age_years = 0.0;
    /// Simulated aging hours accrued per simulated busy hour. 1.0 = real
    /// time; large values compress years of field aging into one run.
    double age_acceleration = 1.0;
    /// ΔVth growth since the last deployment that triggers re-quantization.
    double requant_threshold_mv = 5.0;
    /// Timing-constraint relaxation for compression selection; the device
    /// clock is the selected compression's aged delay either way. 0 is
    /// the paper's zero-guardband operating point.
    double guardband_fraction = 0.0;
    /// Full Algorithm 1 (all PTQ methods) vs. the fast path (compression
    /// selection + M5 ACIQ). Requires an eval set in the ServeContext —
    /// constructing without one throws, there is no silent fallback.
    bool full_algorithm1 = false;
    std::optional<double> accuracy_loss_threshold;  ///< Algorithm 1 line 9
    /// Per-product MSB flip probability while serving (0 = clean device).
    double flip_probability = 0.0;
    std::uint64_t base_seed = 0x5EEDC0DEULL;
    npu::SystolicConfig systolic{};
    /// Batch capacity the execution plan is compiled for (NpuServer sets
    /// this to its max_batch so no plan recompile happens on the serving
    /// path; larger batches still work by growing the plan).
    int plan_batch_capacity = 1;
    /// Latency-reservoir capacity (exact count/mean/max regardless).
    std::size_t latency_reservoir = 4096;
    /// Traffic-driven aging (off by default): measure the device's host-
    /// time busy fraction over a sliding window and scale aging accrual
    /// by the self-heating Arrhenius factor — an idle device stays cool
    /// and ages slower; a saturated one ages exactly like before. See
    /// src/sim/traffic.hpp.
    sim::TrafficAgingConfig traffic_aging;
};

class NpuDevice {
public:
    /// `ctx` must outlive the device (the owning ShardGroup keeps each
    /// stage's context). With a `requant_service`, threshold crossings
    /// build the next generation in the background; without one they
    /// rebuild inline at the batch boundary. With `telemetry`, the device
    /// registers its metric series at construction (labels: device id,
    /// plus the pipeline stage when `stage >= 0`) and caches the
    /// instrument pointers — the serving path never touches the registry
    /// again; null telemetry reduces every instrumented site to one
    /// pointer test. With a `planner`, threshold decisions at the batch
    /// boundary are made by the ReliabilityPlanner (early builds inside
    /// predicted low-traffic windows, bounded deferral otherwise)
    /// instead of the bare threshold test.
    NpuDevice(int id, const ServeContext& ctx, const DeviceConfig& config,
              RequantService* requant_service = nullptr,
              obs::Telemetry* telemetry = nullptr,
              ReliabilityPlanner* planner = nullptr, int stage = -1);

    /// What one execute_batch() pass ran on and cost (in model time, at
    /// the clock in effect for the batch).
    struct BatchTrace {
        std::uint64_t cycles = 0;       ///< batch residency in model cycles
        double latency_us = 0.0;        ///< cycles × current clock period
        std::uint64_t generation = 0;   ///< ModelState generation that served it
    };

    /// Run `batch` (row i carries `requests[i]`) through the deployed
    /// state and account requests/busy time/aging once for the batch.
    /// With `flip_probability > 0` each row runs alone, its bit flips
    /// seeded by its request id, so results do not depend on batching
    /// or thread scheduling. Does not touch promises and does not run the
    /// re-quantization boundary — call requant_boundary() after handing
    /// the output on. Called with exclusive ownership of the device.
    [[nodiscard]] tensor::Tensor execute_batch(tensor::TensorView batch,
                                               const std::vector<InferenceRequest>& requests,
                                               BatchTrace* trace = nullptr);

    /// Batch boundary maintenance: adopt a background-built state if one
    /// was published, then trigger re-quantization on a threshold
    /// crossing (inline without a RequantService, enqueued otherwise).
    void requant_boundary();

    /// Online re-cut support: wait out and discard any in-flight
    /// background build. It reads this device's sub-graph and
    /// calibration, so the re-cut calls this on a drained device before
    /// it remaps them; a drained device starts no new build.
    void discard_requant() RAQ_EXCLUDES(pending_mutex_);

    /// Online re-cut support: remap this device onto the (changed)
    /// sub-graph/calibration its ServeContext now points at and adopt
    /// `state`, a deployment the re-cut path PRE-BUILT for the new shard
    /// off the serving path (its feasibility was proven before the
    /// pipeline was drained, so this call does not fail on an infeasible
    /// build). Requires discard_requant() first. Rebuilds the RequantJob
    /// and the per-image cycle count, re-stamps `state` as generation + 1 — the
    /// version stream stays monotonic across re-cuts even if a
    /// background generation was adopted while the pipeline drained —
    /// and installs it with a new execution plan (`build_ms` is the
    /// pre-build's latency, recorded on the RequantEvent). Aging state,
    /// busy time and stats history carry over untouched: the silicon did
    /// not change, only the slice of the model it serves. Must be called
    /// while no thread is serving on this device (the ShardGroup calls
    /// it between draining and restarting its stage threads).
    void reshard(core::ModelState state, double build_ms)
        RAQ_EXCLUDES(pending_mutex_, state_mutex_, stats_mutex_);

    [[nodiscard]] int id() const { return id_; }
    /// Current clock period: the deployed compression's aged critical
    /// path (× any guardband the selection allowed). Wait-free read.
    [[nodiscard]] double clock_period_ps() const {
        return clock_period_ps_.load(std::memory_order_acquire);
    }
    [[nodiscard]] std::uint64_t per_image_cycles() const {
        return per_image_cycles_.load(std::memory_order_acquire);
    }
    [[nodiscard]] double operating_hours() const RAQ_EXCLUDES(stats_mutex_);
    [[nodiscard]] double dvth_mv() const RAQ_EXCLUDES(stats_mutex_);
    [[nodiscard]] int requant_count() const RAQ_EXCLUDES(stats_mutex_);

    /// Snapshot of the deployed state (stable even while serving: the
    /// returned ModelState is immutable and pinned by the shared_ptr).
    [[nodiscard]] std::shared_ptr<const core::ModelState> deployed_state() const
        RAQ_EXCLUDES(state_mutex_);
    [[nodiscard]] std::shared_ptr<const quant::QuantizedGraph> deployed_graph() const;
    /// Generation of the deployed state (monotonic, starts at 1).
    [[nodiscard]] std::uint64_t generation() const;

    [[nodiscard]] DeviceStats stats() const
        RAQ_EXCLUDES(state_mutex_, stats_mutex_);

    /// RequantService worker entry: build `generation` for aging level
    /// `dvth_mv` off the serving path and publish it into the pending
    /// slot. Touches only the immutable context and the pending slot, so
    /// it runs concurrently with execute_batch(). A build that throws
    /// publishes as an infeasible one does (the device keeps its
    /// generation) and records a "failed: <what>" RequantBuild event.
    void execute_requant(double dvth_mv, std::uint64_t generation)
        RAQ_EXCLUDES(pending_mutex_);

    /// Adopt a published pending state, if any: swap the deployed
    /// pointer, rebind the runner's payload, record the event. Returns
    /// true when a new generation was installed. Called by the serve
    /// thread at batch boundaries and by NpuServer::shutdown() after the
    /// serve workers have joined (never concurrently with execute_batch()).
    bool adopt_pending() RAQ_EXCLUDES(pending_mutex_, state_mutex_, stats_mutex_);

    /// Shutdown drain (serve workers joined, RequantService drained):
    /// adopt anything published, then catch up on a crossing that was
    /// absorbed while a build was in flight — aging is frozen now, so
    /// one final build lands the device exactly where an inline run
    /// would have.
    void finish_requants();

private:
    void install(const std::shared_ptr<const core::ModelState>& state, bool record_event,
                 bool background, double build_ms, bool recut = false)
        RAQ_EXCLUDES(state_mutex_, stats_mutex_);
    void requant_inline(double dvth)
        RAQ_EXCLUDES(state_mutex_, stats_mutex_);
    /// Post-execution accounting under the stats mutex: requests, busy
    /// cycles AND busy picoseconds at the clock the batch ran at, flips,
    /// per-request latency samples. With traffic aging enabled the
    /// caller also passes the batch's host execution span
    /// [host_t0_us, host_t1_us] (obs::monotonic_us) so the duty monitor
    /// sees real wall-time utilization; both 0 otherwise.
    void account_batch(std::size_t requests, std::uint64_t batch_cycles,
                       double clock_period_ps, std::uint64_t flips,
                       std::int64_t host_t0_us = 0, std::int64_t host_t1_us = 0)
        RAQ_EXCLUDES(stats_mutex_);
    [[nodiscard]] double hours_unlocked() const RAQ_REQUIRES(stats_mutex_);

    const int id_;
    const ServeContext* ctx_;
    const DeviceConfig config_;
    obs::Telemetry* telemetry_;  ///< null = telemetry disabled

    /// Instrument handles registered at construction (all null without
    /// telemetry). Stable for the registry's lifetime — the hot path
    /// does relaxed atomic ops on them, never a registry lookup.
    struct MetricHandles {
        obs::Counter* requests = nullptr;
        obs::Counter* batches = nullptr;
        obs::Gauge* busy_ps = nullptr;
        obs::Gauge* clock_ps = nullptr;
        obs::Gauge* dvth_mv = nullptr;
        obs::Gauge* generation = nullptr;
        obs::Histogram* batch_size = nullptr;
        obs::Counter* requants = nullptr;
        obs::Counter* recuts = nullptr;
        obs::Histogram* build_ms = nullptr;
        obs::Histogram* swap_us = nullptr;
        obs::Gauge* duty_fraction = nullptr;  ///< traffic-aging mode only
    };
    MetricHandles metrics_;
    /// Algorithm 1 as a reusable build job. Rebuilt (only) by reshard()
    /// when an online re-cut changes the context's sub-graph; always
    /// engaged otherwise.
    std::optional<core::RequantJob> job_;
    RequantService* requant_service_;
    /// Predictive scheduling of requant builds (null = reactive
    /// threshold behavior). Owned by NpuServer; outlives the device.
    ReliabilityPlanner* planner_;

    /// Clock period of the deployed state — re-derived at every install
    /// from the compression's aged delay. Written only by install(),
    /// read by the serve thread and observers.
    std::atomic<double> clock_period_ps_{0.0};
    /// Cycles one inference spends on this device's shard; atomic so
    /// observers may read it while reshard() re-derives it for a new cut
    /// (the serving threads themselves are quiesced around a reshard).
    std::atomic<std::uint64_t> per_image_cycles_{0};

    /// Guards only the deployed-state pointer: held for pointer copies
    /// and the swap assignment, never across a build. The three device
    /// mutexes are never held together; the ACQUIRED_BEFORE edges fix a
    /// total order (state → pending → stats) so any future nesting that
    /// could deadlock against it fails the clang-analysis build.
    mutable common::Mutex state_mutex_ RAQ_ACQUIRED_BEFORE(pending_mutex_, stats_mutex_);
    std::shared_ptr<const core::ModelState> state_ RAQ_GUARDED_BY(state_mutex_);

    /// Long-lived planned execution state: the plan (shared via the
    /// exec::PlanCache), arena and conv scratch survive across batches
    /// AND across re-quantizations (adoption rebinds the payload; the
    /// topology never changes). Only the serve thread touches it.
    std::optional<quant::QuantRunner> runner_;

    /// Background double-buffer: the built-but-not-yet-adopted state.
    common::Mutex pending_mutex_ RAQ_ACQUIRED_BEFORE(stats_mutex_);
    struct PendingOutcome {
        std::shared_ptr<const core::ModelState> state;  ///< null: build infeasible
        double build_ms = 0.0;
    };
    std::optional<PendingOutcome> pending_ RAQ_GUARDED_BY(pending_mutex_);
    /// Gates enqueue: at most one background build in flight per device.
    std::atomic<bool> requant_in_flight_{false};

    mutable common::Mutex stats_mutex_;
    std::uint64_t requests_ RAQ_GUARDED_BY(stats_mutex_) = 0;
    std::uint64_t batches_ RAQ_GUARDED_BY(stats_mutex_) = 0;
    std::uint64_t busy_cycles_ RAQ_GUARDED_BY(stats_mutex_) = 0;
    /// Simulated busy time at the per-batch clock.
    double busy_ps_ RAQ_GUARDED_BY(stats_mutex_) = 0.0;
    std::uint64_t flips_ RAQ_GUARDED_BY(stats_mutex_) = 0;
    int requant_count_ RAQ_GUARDED_BY(stats_mutex_) = 0;
    std::vector<RequantEvent> requant_events_ RAQ_GUARDED_BY(stats_mutex_);
    LatencyRecorder latency_ RAQ_GUARDED_BY(stats_mutex_);
    /// Traffic-driven aging state (all under stats_mutex_): the sliding
    /// utilization window, the last measured busy fraction, and the
    /// duty-scaled stress-hour integral that replaces raw busy hours in
    /// hours_unlocked() when the feature is on. Accrued incrementally
    /// per batch (monotone — a later idle spell never un-ages the past).
    sim::DutyCycleMonitor duty_monitor_ RAQ_GUARDED_BY(stats_mutex_);
    double duty_fraction_ RAQ_GUARDED_BY(stats_mutex_) = 1.0;
    double effective_stress_hours_ RAQ_GUARDED_BY(stats_mutex_) = 0.0;
};

}  // namespace raq::serve
