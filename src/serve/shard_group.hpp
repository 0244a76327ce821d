// ShardGroup — the server's one serving unit: K devices serving one model.
//
// With K = 1 the group is a whole-model device: its one stage runs the
// full graph on the full ServeContext (eval set included, so the full
// Algorithm 1 method search and per-request fault injection work), inline
// on the calling worker — no stage thread, handoff channel, sub-graph
// copy or calibration slice. A replicated fleet of M devices is M such
// groups.
//
// With K >= 2 the group shards the model (shard = sub-plan): it
// partitions the model into contiguous single-tensor-cut op ranges
// (ir::partition_graph, balanced on systolic per-layer cycles), compiles
// each partition into its own ExecPlan sub-plan (exec::compile_subplan —
// resolved through the PlanCache keyed by the partition's topology
// fingerprint), and runs each shard on its own NpuDevice. The devices
// form a pipeline: every shard has a stage thread and bounded handoff
// queues carry the cut tensor (plus the riding requests) device to
// device, so while shard 1 runs batch k, shard 0 already runs batch k+1
// — throughput is bounded by the bottleneck shard, not the sum.
//
// Each shard versions its own core::ModelState: a shard device owns a
// RequantJob over its sub-graph (with calibration statistics sliced onto
// the shard's tensors), ages with its own busy time, re-derives its own
// aged clock, and re-quantizes independently — inline or through the
// shared background RequantService, exactly like a whole-model device.
// Because every PTQ step the fast path performs is per-convolution-
// local, a chain of shard deployments built at the same aging level is
// bit-identical to the whole-model deployment (verified in
// tests/test_shard.cpp, boundary tensors included).
//
// Online re-partitioning (RepartitionConfig.enabled): devices age at
// different rates (deployed at different times, different utilization),
// so a cut balanced at fresh silicon drifts away from the true pipeline
// bottleneck once a re-quantization installs a slower clock on one
// shard. A RepartitionMonitor thread watches the measured per-stage busy
// time; when one window's max/min ratio crosses the configured
// threshold, it prices every op per device (its systolic cycles × its
// current aged clock period), computes a fresh heterogeneous
// min-bottleneck cut (ir::partition_graph_heterogeneous), warm-compiles
// the new sub-plans through the shared PlanCache — all off the serving
// path — and then performs a drain-and-swap: admission pauses, the
// handoff channels close-and-drain at a batch boundary (every in-flight
// batch completes on the old cut; no batch ever straddles two cuts), the
// devices are remapped onto the new sub-graphs/calibration slices
// (NpuDevice::reshard — aging state and stats history carry over), fresh
// channels and stage threads resume, and the group's partition
// generation increments. Outputs are bit-identical before and after a
// swap whenever the per-shard compressions are (re-cutting moves op
// boundaries, not arithmetic).
//
// Heterogeneous stages: per_shard_systolic gives each pipeline stage its
// own array config; the initial cut then balances per-stage cycle
// counts across the differing arrays, and re-cuts keep using each
// stage's own model.
//
// Both forms run one stage body: execute the batch on the stage's device,
// hand the activations on, and at the last stage count completion
// before resolving the promises (so a client that has seen its result
// finds it counted on the next scrape), then run the device's batch
// boundary (adopt / trigger re-quantization).
//
// Restrictions (validated at construction): fault injection and the
// full Algorithm 1 method search (it needs end-to-end eval; shards
// re-quantize via the fast path) need K = 1; per-stage arrays and online
// re-partitioning need K >= 2.
//
// Shutdown protocol (driven by NpuServer): after the serve workers have
// joined, drain() stops the repartition monitor (waiting out an
// in-flight re-cut), then closes the stage-0 queue — each stage drains
// its queue and then closes the next, so every accepted batch completes
// — and joins the stage threads; after the RequantService has drained,
// finish_requants() lands every shard on its final generation.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "exec/subplan.hpp"
#include "ir/partition.hpp"
#include "serve/bounded_channel.hpp"
#include "serve/device.hpp"
#include "serve/repartition.hpp"

namespace raq::serve {

/// One model partition, precomputed for sharing: the specs plus the
/// immutable per-shard sub-graphs/plans. Every group sharding one model
/// at the same cut reuses it — one copy of the shard weights fleet-wide
/// and one partitioning pass, however many groups the server builds.
struct ShardPartition {
    std::vector<ir::ShardSpec> specs;
    std::vector<exec::Subplan> subplans;  ///< graph + cache-resolved plan + tensor map
};

/// Cut `graph` into one pipeline stage per `stage_systolic` entry,
/// balanced on the systolic per-layer cycle model with stage k priced on
/// ITS array (a narrow array gets proportionally less of the graph), and
/// compile each as a sub-plan at `batch_capacity` (through the global
/// PlanCache).
[[nodiscard]] ShardPartition make_shard_partition(
    const ir::Graph& graph, const std::vector<npu::SystolicConfig>& stage_systolic,
    int batch_capacity);

struct ShardGroupConfig {
    int num_shards = 2;  ///< pipeline stages; 1 = one whole-model device
    /// Bounded inter-shard handoff queues, in batches: the pipeline
    /// depth per stage boundary (push blocks when full — backpressure
    /// reaches the server's request queue through the feeding worker).
    std::size_t handoff_capacity = 4;
    /// Device ids for the shard devices: shard k gets first_device_id+k.
    int first_device_id = 0;
    /// Shard k enters the field aged device.initial_age_years + k × step
    /// (shards live on distinct physical devices, deployed at different
    /// times — heterogeneous aging across one pipeline).
    double initial_age_step_years = 0.0;
    DeviceConfig device;  ///< per-shard knobs (aging, requant, plan capacity)
    /// Per-stage systolic array configs (empty: every stage uses
    /// device.systolic). Size must equal num_shards when set; the
    /// initial cut and every re-cut then balance on each stage's own
    /// cycle model.
    std::vector<npu::SystolicConfig> per_shard_systolic;
    /// Online re-partitioning (off by default): re-cut the pipeline when
    /// the measured stage busy-time imbalance crosses the ratio.
    RepartitionConfig repartition;
    /// Optional precomputed partition, as make_group_partition() builds
    /// it (must match num_shards and the context graph; needed only for
    /// the constructor's duration). Null: the group partitions the model
    /// itself.
    const ShardPartition* partition = nullptr;
    /// Optional telemetry bundle (owned by the server, must outlive the
    /// group): shard devices register per-stage metric series, stage
    /// threads stamp Handoff/Execute/Complete trace spans, and the
    /// repartition monitor records its trigger/futile/re-cut activity.
    obs::Telemetry* telemetry = nullptr;
    /// Optional reliability planner (owned by the server, must outlive
    /// the group): gates triggered re-cuts into predicted low-traffic
    /// windows (urgent bottlenecks still re-cut immediately) and makes
    /// shard requant decisions predictive.
    ReliabilityPlanner* planner = nullptr;
};

/// The cut a group with `config` runs: num_shards stages balanced on
/// per_shard_systolic when set (else device.systolic), compiled at
/// device.plan_batch_capacity. Empty for a one-stage group, which runs
/// the whole graph uncut.
[[nodiscard]] ShardPartition make_group_partition(const ir::Graph& graph,
                                                  const ShardGroupConfig& config);

class ShardGroup {
public:
    /// `ctx` describes the WHOLE model; a pipeline extracts per-shard
    /// sub-graphs and sliced calibration internally (the pointed-to
    /// objects must outlive the group). `completed` (optional) is
    /// incremented by the final stage before it fulfills the promises.
    ShardGroup(int group_id, const ServeContext& ctx, const ShardGroupConfig& config,
               RequantService* requant_service = nullptr,
               std::atomic<std::uint64_t>* completed = nullptr);
    ~ShardGroup();

    ShardGroup(const ShardGroup&) = delete;
    ShardGroup& operator=(const ShardGroup&) = delete;

    /// Serve one batch: a one-stage group runs it to completion on the
    /// calling thread; a pipeline enqueues it and returns (the final
    /// stage fulfills the promises). InferenceResult.device_id reports
    /// the group id, generation the minimum shard generation that served
    /// the batch, partition the partition generation it ran under,
    /// latency the accumulated stage latency. A pipeline blocks while
    /// the stage-0 handoff queue is full or a re-cut swap is in flight.
    /// Throws with `batch` intact when it cannot be admitted (stacking
    /// fails, or the pipeline is drained).
    void serve(std::vector<InferenceRequest>& batch) RAQ_EXCLUDES(swap_mutex_);

    /// Close admission into the pipeline, stop the repartition monitor,
    /// drain every accepted batch and join the stage threads.
    /// Idempotent. Must be called before the shared RequantService shuts
    /// down (NpuServer orders this).
    void drain();

    /// After the RequantService has drained: adopt pending generations
    /// and catch up absorbed crossings on every shard.
    void finish_requants();

    [[nodiscard]] int group_id() const { return group_id_; }
    [[nodiscard]] int num_shards() const { return static_cast<int>(shards_.size()); }
    [[nodiscard]] const NpuDevice& shard(int k) const { return *shards_.at(static_cast<std::size_t>(k))->device; }
    [[nodiscard]] NpuDevice& shard(int k) { return *shards_.at(static_cast<std::size_t>(k))->device; }
    /// Current cut metadata (one stage: the whole graph). Stable only
    /// while no re-cut is in flight (quiescent group, or repartitioning
    /// disabled).
    [[nodiscard]] const ir::ShardSpec& shard_spec(int k) const { return shards_.at(static_cast<std::size_t>(k))->spec; }
    [[nodiscard]] const ir::Graph& shard_graph(int k) const { return *shards_.at(static_cast<std::size_t>(k))->ctx.graph; }

    /// Monotonic partition generation: 1 for the construction cut,
    /// bumped by every completed drain-and-swap re-cut.
    [[nodiscard]] std::uint64_t partition_generation() const {
        return partition_generation_.load(std::memory_order_acquire);
    }

    /// Monitor activity counters (zeros when repartitioning is off).
    [[nodiscard]] RepartitionStats repartition_stats() const RAQ_EXCLUDES(repart_mutex_);

    /// Per-shard device stats, in pipeline order.
    [[nodiscard]] std::vector<DeviceStats> stats() const;

    /// Online accuracy sampling through the pipeline: chain the shards'
    /// currently deployed graphs over the first `samples` eval images.
    /// Excludes a concurrent re-cut (the chain is always one consistent
    /// partition).
    [[nodiscard]] double sample_accuracy(const tensor::Tensor& images,
                                         const std::vector<int>& labels,
                                         int samples) const RAQ_EXCLUDES(swap_mutex_);

private:
    /// One batch in flight between stages: the requests ride along with
    /// the cut-tensor activations and the accumulated model-time cost.
    struct ShardBatch {
        std::vector<InferenceRequest> requests;
        tensor::Tensor activations;
        std::uint64_t latency_cycles = 0;
        double latency_us = 0.0;
        std::uint64_t min_generation = ~0ULL;
    };

    /// One stage. A pipeline stage's context points at the members
    /// above it; a one-stage group's is the whole-model context (graph
    /// and calib stay empty).
    struct ShardState {
        ir::ShardSpec spec;
        std::shared_ptr<const ir::Graph> graph;  ///< shared with the sub-plan
        quant::CalibrationData calib;            ///< sliced onto shard tensors
        ServeContext ctx;
        std::unique_ptr<NpuDevice> device;
    };

    /// The stage body both forms run: execute `batch` on stage k, then
    /// push it to stage k+1 or (last stage) count completion and fulfill
    /// the promises; a throw fails the batch's unresolved requests. Ends
    /// with the device's batch-boundary maintenance.
    void run_stage(std::size_t k, ShardBatch& batch);
    void stage_loop(std::size_t k);
    void start_stages();

    /// Everything a drain-and-swap needs, prepared entirely off the
    /// serving path so the swap itself cannot fail: the new cut, its
    /// cache-resolved sub-plans, the re-sliced calibration, and one
    /// pre-built (feasibility-proven) ModelState per shard.
    struct PreparedRecut {
        std::vector<ir::ShardSpec> specs;
        std::vector<exec::Subplan> subplans;
        std::vector<quant::CalibrationData> calibs;
        std::vector<core::ModelState> states;
        std::vector<double> build_ms;
    };

    /// Monitor step: snapshot the stage busy-time window, evaluate the
    /// trigger, compute + warm-compile + pre-build a better
    /// heterogeneous cut, and drain-and-swap onto it. Runs on the
    /// monitor thread only; exceptions abort the round, never the swap.
    void repartition_step() RAQ_EXCLUDES(swap_mutex_, repart_mutex_);
    void perform_recut(PreparedRecut prepared) RAQ_EXCLUDES(swap_mutex_, repart_mutex_);

    const int group_id_;
    std::atomic<std::uint64_t>* completed_;
    obs::Telemetry* telemetry_;  ///< null = telemetry disabled

    /// Instrument handles (all null without telemetry), registered once
    /// at construction; the repartition series (label group=<id>) only
    /// for a pipeline.
    struct GroupMetrics {
        obs::Counter* checks = nullptr;
        obs::Counter* triggers = nullptr;
        obs::Counter* futile = nullptr;
        obs::Counter* recuts = nullptr;
        obs::Gauge* imbalance = nullptr;
        obs::Gauge* partition_generation = nullptr;
        /// The server-wide per-class completion counters, bumped by the
        /// last stage. Indexed by RequestClass.
        obs::Counter* completed[kNumRequestClasses] = {};
    };
    GroupMetrics metrics_;

    ServeContext full_ctx_;     ///< the WHOLE model's context (re-slicing source)
    ShardGroupConfig config_;   ///< owned copy (partition pointer nulled)
    std::vector<npu::SystolicConfig> stage_systolic_;  ///< resolved, one per stage
    std::vector<std::unique_ptr<ShardState>> shards_;
    /// Channel k feeds shard k (bounded, close-and-drain — the same
    /// protocol as the Scheduler's lanes). Replaced wholesale by a
    /// re-cut (old channels are closed and fully drained first). Empty
    /// for a one-stage group, which has no stage threads either.
    std::vector<std::unique_ptr<BoundedChannel<ShardBatch>>> channels_;
    std::vector<std::thread> stage_threads_;
    std::atomic<bool> drained_{false};

    /// Serializes admission (serve) against the drain-and-swap: a push
    /// never lands in a closed-for-re-cut channel, and sample_accuracy
    /// always reads one consistent chain of deployments. Deliberately
    /// guards no fields — `channels_`/`stage_threads_` are synchronized
    /// by close-and-join (stage_loop reads them lock-free), which is
    /// outside the analysis's vocabulary; the mutex is a pure
    /// serialization capability (see src/common/README.md).
    mutable common::Mutex swap_mutex_ RAQ_ACQUIRED_BEFORE(repart_mutex_);
    std::atomic<std::uint64_t> partition_generation_{1};

    mutable common::Mutex repart_mutex_;
    RepartitionStats repart_stats_ RAQ_GUARDED_BY(repart_mutex_);
    /// Measurement-window baselines (cumulative counters at the last
    /// mature window). Monitor thread only.
    std::vector<std::uint64_t> window_batches_;
    std::vector<double> window_busy_ps_;
    /// Clock periods at which the last triggered re-cut attempt turned
    /// out futile (best cut == current cut, or an infeasible shard):
    /// while no clock has changed, a persistent imbalance skips the DP
    /// and pre-build instead of re-deriving the same answer every
    /// window. Monitor thread only.
    std::vector<double> futile_clocks_;
    /// Declared last: started after the group is fully built, stopped
    /// first in drain().
    std::unique_ptr<RepartitionMonitor> monitor_;
};

}  // namespace raq::serve
