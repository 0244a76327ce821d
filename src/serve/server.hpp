// NpuServer — the multi-threaded aging-aware inference serving runtime.
//
// Topology: submit() → class-aware Scheduler (per-class bounded lanes,
// interactive preempts batch at batch formation) → worker threads. Each
// worker pops a dynamic batch, checks an idle ShardGroup out of the pool,
// serves the batch on it and returns the group. The ShardGroup is the one
// serving unit: `num_devices / num_shards` groups of `num_shards`
// devices each. With `num_shards == 1` (the replicated layout) every
// group is one whole-model device whose stage runs inline on the worker;
// with `num_shards > 1` the model is partitioned across the group's
// devices (shard = ExecPlan sub-plan) and batches pipeline
// device-to-device, with each shard versioning its own ModelState and
// re-quantizing independently.
//
// Devices age as they serve; crossing the ΔVth re-quantization threshold
// hands Algorithm 1 to the background RequantService, which builds the
// next ModelState generation off the serving path — the device keeps
// serving the old generation and swaps at a batch boundary, so no batch
// ever stalls behind the PTQ method search. (Set
// `background_requant = false` for the old inline behavior.)
//
// shutdown() closes admission, drains every accepted request (including
// batches still inside shard pipelines), joins the workers, then drains
// the RequantService and adopts any still-pending generations; no
// accepted request — and no triggered re-quantization — is ever dropped.
#pragma once

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "obs/telemetry.hpp"
#include "serve/device.hpp"
#include "serve/reliability_planner.hpp"
#include "serve/request_queue.hpp"
#include "serve/requant_service.hpp"
#include "serve/scheduler.hpp"
#include "serve/shard_group.hpp"

namespace raq::serve {

struct ServeConfig {
    int num_devices = 1;
    int num_workers = 1;
    int max_batch = 8;          ///< dynamic batching cap per device pass
    /// Default per-lane admission capacity; SchedulerConfig capacities of
    /// 0 inherit this value.
    std::size_t queue_capacity = 4096;
    /// Class-aware admission: per-lane capacities, latency targets and
    /// the batch anti-starvation credit (see serve/scheduler.hpp).
    SchedulerConfig scheduler;
    /// Predictive reliability management: schedule requant builds and
    /// re-cuts into predicted low-traffic windows, ahead of the ΔVth
    /// crossing (see serve/reliability_planner.hpp). Off by default —
    /// reactive PR 3/5 behavior.
    ReliabilityPlannerConfig planner;
    /// Model sharding: 1 replicates the full graph per device; > 1
    /// partitions the model across that many devices per pipeline group
    /// (num_devices must be a multiple of num_shards). Sharded serving
    /// requires flip_probability == 0 and full_algorithm1 == false.
    int num_shards = 1;
    /// Bounded inter-shard handoff queue depth, in batches.
    std::size_t shard_handoff_capacity = 4;
    /// Per-stage systolic array configs for sharded serving (empty:
    /// every stage runs device.systolic). Size must equal num_shards;
    /// the shared partition then balances each stage on its own array's
    /// cycle model.
    std::vector<npu::SystolicConfig> shard_systolic;
    /// Online re-partitioning for shard groups: when a stage's measured
    /// busy time makes it the pipeline bottleneck beyond the configured
    /// ratio (e.g. after a re-quantization installed a slower aged
    /// clock), the group re-cuts the graph on per-device aged costs and
    /// drain-and-swaps onto the new partition. Off by default.
    RepartitionConfig repartition;
    /// Device i enters the fleet aged initial_age_years + i × step (real
    /// fleets are heterogeneous: devices were deployed at different times).
    double initial_age_years = 0.0;
    double initial_age_step_years = 0.0;
    /// Build re-quantizations on a background worker pool and swap them
    /// in double-buffered (the default). Off = the pre-existing inline
    /// behavior: the device stalls at the batch boundary for the build.
    bool background_requant = true;
    int requant_workers = 1;  ///< RequantService pool size
    /// Fleet telemetry (off by default): metrics registry + per-request
    /// tracing + reliability-event timeline. See src/obs/README.md.
    obs::TelemetryConfig telemetry;
    DeviceConfig device;  ///< per-device knobs (aging, requant, injection)
};

class NpuServer {
public:
    /// The context is copied (it is a bundle of pointers); the pointed-to
    /// objects (graph, calibration, selector, aging model, eval set) must
    /// outlive the server. Throws std::invalid_argument when the config
    /// asks for the full Algorithm 1 without a usable eval set, or for a
    /// sharded layout the model or config cannot support.
    NpuServer(const ServeContext& ctx, const ServeConfig& config);
    ~NpuServer();

    NpuServer(const NpuServer&) = delete;
    NpuServer& operator=(const NpuServer&) = delete;

    /// Enqueue one sample (shape (1, c, h, w)) into the lane for `klass`;
    /// blocks under that lane's backpressure. Throws once shut down.
    /// submit() and try_submit() share one admission path (admit()).
    std::future<InferenceResult> submit(
        tensor::Tensor image, RequestClass klass = RequestClass::Interactive);

    /// Outcome of a non-blocking submission attempt (the net front-end's
    /// admission path). `future` is valid only when status == Accepted.
    struct TrySubmit {
        enum class Status { Accepted, Saturated, Closed };
        Status status = Status::Closed;
        std::future<InferenceResult> future;
    };

    /// Non-blocking submit: Saturated (the request's lane is full — shed
    /// with BUSY) or Closed (shutting down) instead of blocking or
    /// throwing. `on_done` fires exactly once after the request's
    /// promise is satisfied, from whichever serving thread fulfils it —
    /// the net event loop hangs an eventfd wake here so no thread ever
    /// parks on a future.
    TrySubmit try_submit(tensor::Tensor image, std::function<void()> on_done = {},
                         RequestClass klass = RequestClass::Interactive);

    /// Close admission, drain all accepted requests (through any shard
    /// pipelines), join the workers, then drain outstanding background
    /// re-quantizations and adopt their generations. Idempotent.
    void shutdown();

    /// Whole-model devices, one per one-stage group (0 in sharded mode —
    /// see num_shard_groups()). device(i) throws std::out_of_range when
    /// sharded.
    [[nodiscard]] int num_devices() const { return sharded() ? 0 : num_groups(); }
    [[nodiscard]] const NpuDevice& device(int i) const { return group_at(i, false).shard(0); }

    /// Pipeline groups (0 in the replicated layout). shard_group(i)
    /// throws std::out_of_range when not sharded.
    [[nodiscard]] bool sharded() const { return config_.num_shards > 1; }
    [[nodiscard]] int num_shard_groups() const { return sharded() ? num_groups() : 0; }
    [[nodiscard]] const ShardGroup& shard_group(int i) const { return group_at(i, true); }

    /// Online accuracy sampling: evaluate the unit's currently deployed
    /// graph(s) on the first `samples` images of the context eval set.
    /// `index` is a device index (replicated) or a group index (sharded).
    /// Throws std::invalid_argument when the eval set has fewer labels
    /// than the samples it evaluates.
    [[nodiscard]] double sample_accuracy(int index, int samples) const;

    [[nodiscard]] FleetStats fleet_stats() const;

    /// Telemetry bundle (null when ServeConfig::telemetry.metrics is
    /// false). Exposed for scrapes, tests and benches.
    [[nodiscard]] obs::Telemetry* telemetry() { return telemetry_.get(); }
    [[nodiscard]] const obs::Telemetry* telemetry() const { return telemetry_.get(); }

    /// The admission scheduler (per-class depths / starvation counters).
    [[nodiscard]] const Scheduler& scheduler() const { return queue_; }
    /// Reliability planner (null unless ServeConfig::planner.enabled).
    [[nodiscard]] ReliabilityPlanner* planner() { return planner_.get(); }
    [[nodiscard]] const ReliabilityPlanner* planner() const { return planner_.get(); }

    /// Prometheus-style text exposition of every registered series
    /// (empty string with telemetry disabled).
    [[nodiscard]] std::string export_metrics() const;
    /// Text rendering of the sampled-trace reservoir, one trace per line.
    [[nodiscard]] std::string export_traces() const;
    /// Text rendering of the reliability-event timeline, oldest first.
    [[nodiscard]] std::string export_timeline() const;

private:
    /// The one admission path: stamp, trace-sample and enqueue one
    /// request — blocking under backpressure or not — and count it once
    /// accepted.
    TrySubmit admit(tensor::Tensor image, RequestClass klass, std::function<void()> on_done,
                    bool block);
    [[nodiscard]] int num_groups() const { return static_cast<int>(groups_.size()); }
    /// Group i, checked against the layout the accessor serves.
    [[nodiscard]] const ShardGroup& group_at(int i, bool sharded_view) const;
    void worker_loop() RAQ_EXCLUDES(pool_mutex_);

    ServeConfig config_;
    ServeContext ctx_;  ///< owned copy; pointed-to objects outlive the server
    /// Declared before groups_ (and destroyed after them): groups and
    /// their devices cache instrument pointers into the registry.
    std::unique_ptr<obs::Telemetry> telemetry_;
    /// Per-class series (label class="interactive"/"batch"), indexed by
    /// RequestClass. The depth peak stays an unlabeled fleet-wide
    /// high-water mark.
    obs::Counter* submitted_counter_[kNumRequestClasses] = {};
    obs::Gauge* queue_depth_[kNumRequestClasses] = {};
    obs::Gauge* queue_depth_peak_ = nullptr;
    obs::Histogram* queue_wait_us_[kNumRequestClasses] = {};
    /// Declared before groups_ (destroyed after them): devices and
    /// groups consult the planner from their serve threads.
    std::unique_ptr<ReliabilityPlanner> planner_;
    Scheduler queue_;
    std::vector<std::unique_ptr<ShardGroup>> groups_;
    /// Declared after groups_ so it is destroyed (and its threads
    /// joined) before any device it references.
    std::unique_ptr<RequantService> requant_service_;

    common::Mutex pool_mutex_;
    common::CondVar pool_cv_;
    std::vector<ShardGroup*> idle_groups_ RAQ_GUARDED_BY(pool_mutex_);

    std::vector<std::thread> workers_;
    std::atomic<std::uint64_t> next_request_id_{0};
    std::atomic<std::uint64_t> accepted_{0};  ///< requests the queue admitted
    /// Bumped by each group's last stage before it fulfills the promises.
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<bool> stopped_{false};
};

}  // namespace raq::serve
