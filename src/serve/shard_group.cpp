#include "serve/shard_group.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/requant_job.hpp"
#include "ir/float_executor.hpp"
#include "npu/systolic.hpp"
#include "quant/quant_executor.hpp"
#include "serve/batcher.hpp"

namespace raq::serve {

ShardPartition make_shard_partition(const ir::Graph& graph,
                                    const std::vector<npu::SystolicConfig>& stage_systolic,
                                    int batch_capacity) {
    // Balance the cut on the systolic cycle model — the pipeline
    // bottleneck is the slowest shard, so per-layer cycles (not MACs)
    // are the cost that matters. Fresh silicon: every stage is priced on
    // its own array at a unit clock (re-cuts fold the aged clock periods
    // in later).
    const std::vector<double> unit_clocks(stage_systolic.size(), 1.0);
    ShardPartition out;
    out.specs = ir::partition_graph_heterogeneous(
        graph, aged_cost_tables(graph, stage_systolic, unit_clocks));
    out.subplans.reserve(out.specs.size());
    for (const ir::ShardSpec& spec : out.specs)
        out.subplans.push_back(
            exec::compile_subplan(graph, spec, std::max(1, batch_capacity)));
    return out;
}

ShardPartition make_group_partition(const ir::Graph& graph, const ShardGroupConfig& config) {
    if (config.num_shards == 1) return {};
    return make_shard_partition(
        graph,
        config.per_shard_systolic.empty()
            ? std::vector<npu::SystolicConfig>(static_cast<std::size_t>(config.num_shards),
                                               config.device.systolic)
            : config.per_shard_systolic,
        config.device.plan_batch_capacity);
}

ShardGroup::ShardGroup(int group_id, const ServeContext& ctx, const ShardGroupConfig& config,
                       RequantService* requant_service,
                       std::atomic<std::uint64_t>* completed)
    : group_id_(group_id),
      completed_(completed),
      telemetry_(config.telemetry),
      full_ctx_(ctx),
      config_(config) {
    if (!ctx.graph || !ctx.calib || !ctx.selector || !ctx.aging)
        throw std::invalid_argument("ShardGroup: graph/calib/selector/aging are required");
    if (config.num_shards < 1)
        throw std::invalid_argument("ShardGroup: num_shards must be >= 1");
    const bool pipelined = config.num_shards > 1;
    if (pipelined && config.device.flip_probability > 0.0)
        throw std::invalid_argument(
            "ShardGroup: fault injection is per-request on a whole-model device and is "
            "not supported on a sharded pipeline");
    if (pipelined && config.device.full_algorithm1)
        throw std::invalid_argument(
            "ShardGroup: the full Algorithm 1 method search needs end-to-end evaluation; "
            "shards re-quantize via the fast path");
    if (!pipelined && (config.repartition.enabled || !config.per_shard_systolic.empty()))
        throw std::invalid_argument(
            "ShardGroup: per-stage arrays and online re-partitioning need num_shards >= 2");
    if (!config.per_shard_systolic.empty() &&
        static_cast<int>(config.per_shard_systolic.size()) != config.num_shards)
        throw std::invalid_argument(
            "ShardGroup: per_shard_systolic must have one entry per shard");
    if (telemetry_) {
        obs::MetricsRegistry& reg = telemetry_->metrics();
        for (std::size_t c = 0; c < kNumRequestClasses; ++c)
            metrics_.completed[c] = &reg.counter(
                "raq_requests_completed_total",
                {{"class", request_class_name(static_cast<RequestClass>(c))}});
        if (pipelined) {
            const obs::Labels labels{{"group", std::to_string(group_id)}};
            metrics_.checks = &reg.counter("raq_repartition_checks_total", labels);
            metrics_.triggers = &reg.counter("raq_repartition_triggers_total", labels);
            metrics_.futile = &reg.counter("raq_repartition_futile_total", labels);
            metrics_.recuts = &reg.counter("raq_repartition_recuts_total", labels);
            metrics_.imbalance = &reg.gauge("raq_repartition_imbalance", labels);
            metrics_.partition_generation = &reg.gauge("raq_partition_generation", labels);
            metrics_.partition_generation->set(1.0);
        }
    }
    // The config copy outlives the constructor; the partition pointer
    // must not (the caller only guarantees it for the call).
    config_.partition = nullptr;
    stage_systolic_ = config.per_shard_systolic.empty()
                          ? std::vector<npu::SystolicConfig>(
                                static_cast<std::size_t>(config.num_shards),
                                config.device.systolic)
                          : config.per_shard_systolic;

    // A server building several groups over one model computes the
    // partition once and shares it; a standalone group cuts for itself.
    ShardPartition own;
    const ShardPartition* partition = config.partition;
    if (partition == nullptr) {
        own = make_group_partition(*ctx.graph, config);
        partition = &own;
    }
    if (pipelined && (static_cast<int>(partition->specs.size()) != config.num_shards ||
                      partition->subplans.size() != partition->specs.size()))
        throw std::invalid_argument(
            "ShardGroup: the provided partition does not match num_shards");

    shards_.reserve(static_cast<std::size_t>(config.num_shards));
    for (std::size_t k = 0; k < static_cast<std::size_t>(config.num_shards); ++k) {
        auto shard = std::make_unique<ShardState>();
        if (pipelined) {
            const exec::Subplan& sub = partition->subplans[k];
            shard->spec = partition->specs[k];
            shard->graph = sub.graph;  // shared across groups; pins the sub-plan's graph
            shard->calib = quant::slice_calibration(*ctx.calib, sub.full_tensor_of);
            shard->ctx.graph = shard->graph.get();
            shard->ctx.calib = &shard->calib;
            shard->ctx.selector = ctx.selector;
            shard->ctx.aging = ctx.aging;
        } else {
            // The one "cut" spans the whole schedule; the stage runs the
            // caller's graph and calibration in place.
            shard->spec = ir::partition_graph(*ctx.graph, 1,
                                              npu::op_cycle_costs(*ctx.graph, stage_systolic_[k]))
                              .front();
            shard->ctx = ctx;
        }
        DeviceConfig dev = config.device;
        dev.systolic = stage_systolic_[k];
        dev.initial_age_years = config.device.initial_age_years +
                                static_cast<double>(k) * config.initial_age_step_years;
        // The ShardState owns the context the device points at; both live
        // behind a stable unique_ptr for the group's lifetime.
        shard->device = std::make_unique<NpuDevice>(
            config.first_device_id + static_cast<int>(k), shard->ctx, dev, requant_service,
            telemetry_, config_.planner, pipelined ? static_cast<int>(k) : -1);
        shards_.push_back(std::move(shard));
    }

    if (pipelined) {
        channels_.reserve(shards_.size());
        for (std::size_t k = 0; k < shards_.size(); ++k)
            channels_.push_back(std::make_unique<BoundedChannel<ShardBatch>>(
                std::max<std::size_t>(1, config.handoff_capacity)));
        start_stages();
    }

    window_batches_.assign(shards_.size(), 0);
    window_busy_ps_.assign(shards_.size(), 0.0);
    if (config_.repartition.enabled)
        monitor_ = std::make_unique<RepartitionMonitor>(config_.repartition,
                                                        [this] { repartition_step(); });
}

ShardGroup::~ShardGroup() { drain(); }

void ShardGroup::start_stages() {
    stage_threads_.reserve(shards_.size());
    for (std::size_t k = 0; k < shards_.size(); ++k)
        stage_threads_.emplace_back([this, k] { stage_loop(k); });
}

void ShardGroup::serve(std::vector<InferenceRequest>& batch) {
    if (batch.empty()) return;
    ShardBatch sb;
    sb.activations = stack_batch(batch);  // may throw; batch stays intact
    sb.requests = std::move(batch);
    // Close the Batch span (worker pop → stage admission); the first
    // stage of a pipeline then opens the Handoff span.
    for (InferenceRequest& request : sb.requests)
        if (request.trace) request.trace->mark(obs::SpanKind::Batch, obs::monotonic_us());
    // One stage: the caller holds the group exclusively (the server's
    // pool), so the stage runs here, with no handoff.
    if (shards_.size() == 1) {
        run_stage(0, sb);
        return;
    }
    // The swap mutex pends admission while a re-cut drains and remaps
    // the pipeline: a push always lands in the current cut's channel.
    common::MutexLock lock(swap_mutex_);
    if (!channels_.front()->push(std::move(sb))) {
        lock.unlock();
        // A failed push leaves sb untouched: hand the requests (and
        // their promises) back to the caller before failing, so nothing
        // dies as a broken promise.
        batch = std::move(sb.requests);
        throw std::runtime_error("ShardGroup: serve after drain");
    }
}

void ShardGroup::stage_loop(std::size_t k) {
    ShardBatch batch;
    while (channels_[k]->pop(batch)) run_stage(k, batch);
    // This stage is drained; cascade the close so the next one drains.
    if (k + 1 < shards_.size()) channels_[k + 1]->close();
}

void ShardGroup::run_stage(std::size_t k, ShardBatch& batch) {
    NpuDevice& device = *shards_[k]->device;
    const bool pipelined = shards_.size() > 1;
    try {
        bool any_trace = false;
        for (const InferenceRequest& request : batch.requests)
            any_trace |= request.trace != nullptr;
        if (any_trace && pipelined) {
            // Handoff span: time spent in this stage's channel (and,
            // for k > 0, since the previous stage finished).
            const std::int64_t now = obs::monotonic_us();
            for (InferenceRequest& request : batch.requests)
                if (request.trace) request.trace->mark(obs::SpanKind::Handoff, now);
        }
        const int n = batch.activations.shape().n;
        NpuDevice::BatchTrace trace;
        tensor::Tensor out =
            device.execute_batch(batch.activations.batch_view(0, n), batch.requests, &trace);
        batch.latency_cycles += trace.cycles;
        batch.latency_us += trace.latency_us;
        batch.min_generation = std::min(batch.min_generation, trace.generation);
        if (any_trace) {
            const std::int64_t now = obs::monotonic_us();
            for (InferenceRequest& request : batch.requests)
                if (request.trace)
                    request.trace->mark(obs::SpanKind::Execute, now, device.id(),
                                        pipelined ? static_cast<int>(k) : -1,
                                        trace.generation);
        }
        if (k + 1 < shards_.size()) {
            batch.activations = std::move(out);
            // Cannot fail: channel k+1 is closed only by this stage
            // itself, after its loop exits.
            channels_[k + 1]->push(std::move(batch));
        } else {
            // The whole batch ran inside one partition era (a re-cut
            // drains every in-flight batch before remapping), so one
            // load here labels every rider correctly.
            const std::uint64_t partition =
                partition_generation_.load(std::memory_order_acquire);
            // Count completion BEFORE fulfilling the promises: a
            // client that has observed its result then always finds
            // these counters covering it on the next scrape.
            if (completed_)
                completed_->fetch_add(batch.requests.size(), std::memory_order_relaxed);
            if (telemetry_) {
                std::size_t per_class[kNumRequestClasses] = {};
                for (const InferenceRequest& request : batch.requests)
                    ++per_class[static_cast<std::size_t>(request.klass)];
                for (std::size_t c = 0; c < kNumRequestClasses; ++c)
                    if (per_class[c] > 0) metrics_.completed[c]->add(per_class[c]);
            }
            for (std::size_t i = 0; i < batch.requests.size(); ++i) {
                InferenceResult result =
                    make_result(batch.requests[i].id, out, static_cast<int>(i));
                result.klass = batch.requests[i].klass;
                result.device_id = group_id_;
                result.generation = batch.min_generation;
                result.partition = partition;
                result.latency_cycles = batch.latency_cycles;
                result.latency_us = batch.latency_us;
                batch.requests[i].resolve(std::move(result));
            }
            if (any_trace && telemetry_) {
                const std::int64_t now = obs::monotonic_us();
                for (InferenceRequest& request : batch.requests)
                    if (request.trace) {
                        request.trace->mark(obs::SpanKind::Complete, now);
                        telemetry_->traces().finish(std::move(request.trace));
                    }
            }
        }
    } catch (...) {
        // A malformed batch (e.g. an image whose shape the engine
        // rejects) fails its own requests, not the stage. A batch
        // already forwarded downstream has no requests left here.
        fail_batch(batch.requests, std::current_exception());
    }
    // Boundary maintenance after the handoff: the downstream stage
    // already works on this batch while this shard adopts/builds.
    try {
        device.requant_boundary();
    } catch (...) {
        // An inline build that throws (the batch is already resolved)
        // must not kill the stage: the device keeps serving its current
        // deployment and retries at the next boundary.
    }
}

void ShardGroup::repartition_step() {
    // Measurement window: cumulative device counters since the last
    // mature window (or the last re-cut).
    std::vector<StageWindow> window(shards_.size());
    std::vector<double> clocks(shards_.size(), 0.0);
    for (std::size_t k = 0; k < shards_.size(); ++k) {
        const DeviceStats s = shards_[k]->device->stats();
        window[k].batches = s.batches - window_batches_[k];
        window[k].busy_ps = s.busy_ps - window_busy_ps_[k];
        clocks[k] = s.clock_period_ps;
    }
    const double imbalance =
        stage_imbalance(window, config_.repartition.min_batches);
    if (imbalance <= 0.0) return;  // window not mature yet
    {
        const common::MutexLock lock(repart_mutex_);
        ++repart_stats_.checks;
        repart_stats_.last_imbalance = imbalance;
    }
    if (telemetry_) {
        metrics_.checks->add(1);
        metrics_.imbalance->set(imbalance);
    }
    // Roll the window so the next judgement sees fresh traffic only.
    for (std::size_t k = 0; k < shards_.size(); ++k) {
        window_batches_[k] += window[k].batches;
        window_busy_ps_[k] += window[k].busy_ps;
    }
    if (imbalance < config_.repartition.imbalance_ratio) return;
    // A persistent imbalance the last attempt could not fix (no better
    // cut, or an infeasible shard) stays unfixable until some clock
    // changes: skip re-deriving the same answer every window. Clocks
    // change only at install, so exact comparison is the right test.
    if (clocks == futile_clocks_) return;
    // Predictive gate: a drain-and-swap stalls admission, so the planner
    // parks a merely-threshold-crossing re-cut until a predicted
    // low-traffic window (an urgent bottleneck still re-cuts at peak).
    // Returning WITHOUT updating the futile memo or counting a trigger
    // retries on the next poll — deferred, never dropped.
    if (config_.planner != nullptr &&
        !config_.planner->allow_recut(group_id_, imbalance,
                                      config_.repartition.imbalance_ratio))
        return;
    {
        const common::MutexLock lock(repart_mutex_);
        ++repart_stats_.triggers;
    }
    if (telemetry_) {
        metrics_.triggers->add(1);
        obs::ReliabilityEvent re;
        re.t_us = obs::monotonic_us();
        re.kind = obs::EventKind::RecutTrigger;
        re.group_id = group_id_;
        re.generation = partition_generation();
        re.value = imbalance;
        telemetry_->timeline().record(std::move(re));
    }
    // A triggered attempt that cannot improve the cut counts as futile —
    // in the stats, the metric AND the timeline, so a dashboard can tell
    // "the monitor is stuck" from "the monitor is idle".
    const auto note_futile = [&](const char* reason) {
        futile_clocks_ = clocks;
        {
            const common::MutexLock lock(repart_mutex_);
            ++repart_stats_.futile;
        }
        if (telemetry_) {
            metrics_.futile->add(1);
            obs::ReliabilityEvent re;
            re.t_us = obs::monotonic_us();
            re.kind = obs::EventKind::RecutFutile;
            re.group_id = group_id_;
            re.generation = partition_generation();
            re.value = imbalance;
            re.detail = reason;
            telemetry_->timeline().record(std::move(re));
        }
    };

    // Prepare the entire swap off the serving path — cut, warm-compiled
    // sub-plans, re-sliced calibration, pre-built deployments. Anything
    // that fails here simply aborts the round with the pipeline
    // untouched; perform_recut itself has nothing left that can throw.
    PreparedRecut prepared;
    try {
        // Price every op per device — its own array's cycles at its
        // current aged clock — and re-run the min-bottleneck DP.
        prepared.specs = ir::partition_graph_heterogeneous(
            *full_ctx_.graph, aged_cost_tables(*full_ctx_.graph, stage_systolic_, clocks));
        bool moved = false;
        for (std::size_t k = 0; k < shards_.size(); ++k)
            moved = moved || prepared.specs[k].last_op != shards_[k]->spec.last_op;
        if (!moved) {
            note_futile("best cut unchanged at these clocks");
            return;
        }
        // Warm-compile the new sub-plans through the shared PlanCache
        // and pre-build every shard's deployment at its device's current
        // aging level. A RequantJob over monitor-local inputs proves
        // feasibility BEFORE the pipeline drains (the produced
        // QuantizedGraph is self-contained, so the temporaries may die).
        core::RequantJobConfig jc;
        jc.guardband_fraction = config_.device.guardband_fraction;
        jc.accuracy_loss_threshold = config_.device.accuracy_loss_threshold;
        for (const ir::ShardSpec& spec : prepared.specs) {
            const std::size_t k = prepared.subplans.size();
            prepared.subplans.push_back(exec::compile_subplan(
                *full_ctx_.graph, spec, std::max(1, config_.device.plan_batch_capacity)));
            prepared.calibs.push_back(quant::slice_calibration(
                *full_ctx_.calib, prepared.subplans[k].full_tensor_of));
            const auto build_start = std::chrono::steady_clock::now();
            const core::RequantJob job(*prepared.subplans[k].graph, prepared.calibs[k],
                                       *full_ctx_.selector, jc);
            // The generation is a placeholder: reshard() re-stamps it at
            // adoption so the stream stays monotonic even if a
            // background generation lands while the pipeline drains.
            auto built = job.build(shards_[k]->device->dvth_mv(), /*generation=*/0);
            if (!built) {
                note_futile("shard infeasible at its aging level");
                return;
            }
            prepared.states.push_back(std::move(*built));
            prepared.build_ms.push_back(
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - build_start)
                    .count());
        }
    } catch (...) {
        // Defensive: the construction-time cut succeeded, so failures
        // here are unexpected — keep serving the current cut and keep
        // the monitor alive rather than tearing down the process.
        note_futile("recut preparation threw");
        return;
    }
    perform_recut(std::move(prepared));
    futile_clocks_.clear();
}

void ShardGroup::perform_recut(PreparedRecut prepared) {
    // Admission pauses for the whole swap: no producer can observe the
    // closed old channels or a half-remapped pipeline.
    const common::MutexLock lock(swap_mutex_);
    if (drained_.load(std::memory_order_acquire)) return;

    // Drain at a batch boundary: close stage 0, let the close cascade
    // stage to stage, and join. Every accepted batch completes on the
    // OLD cut — no batch ever straddles two partitions, so there are no
    // torn boundary tensors by construction.
    channels_.front()->close();
    for (std::thread& t : stage_threads_) t.join();
    stage_threads_.clear();

    // Remap every device onto its new slice of the model. The ShardState
    // owns what the device's context points at, so updating it in place
    // re-targets the device; reshard() rebuilds what derives from it and
    // adopts the pre-built deployment. A background build still queued or
    // running reads that context, so each one is waited out first.
    for (const auto& shard : shards_) shard->device->discard_requant();
    for (std::size_t k = 0; k < shards_.size(); ++k) {
        ShardState& shard = *shards_[k];
        shard.spec = prepared.specs[k];
        shard.graph = prepared.subplans[k].graph;
        shard.calib = std::move(prepared.calibs[k]);
        shard.ctx.graph = shard.graph.get();
        shard.ctx.calib = &shard.calib;
        shard.device->reshard(std::move(prepared.states[k]), prepared.build_ms[k]);
    }

    // Fresh channels (the old ones are closed and empty) and fresh stage
    // threads; admission resumes when the mutex releases.
    channels_.clear();
    for (std::size_t k = 0; k < shards_.size(); ++k)
        channels_.push_back(std::make_unique<BoundedChannel<ShardBatch>>(
            std::max<std::size_t>(1, config_.handoff_capacity)));
    start_stages();

    partition_generation_.fetch_add(1, std::memory_order_acq_rel);
    {
        const common::MutexLock lock2(repart_mutex_);
        ++repart_stats_.recuts;
    }
    if (telemetry_) {
        metrics_.recuts->add(1);
        metrics_.partition_generation->set(
            static_cast<double>(partition_generation()));
        obs::ReliabilityEvent re;
        re.t_us = obs::monotonic_us();
        re.kind = obs::EventKind::Recut;
        re.group_id = group_id_;
        re.generation = partition_generation();
        re.detail = "drain-and-swap complete";
        telemetry_->timeline().record(std::move(re));
    }
    // The new cut starts a fresh measurement window.
    for (std::size_t k = 0; k < shards_.size(); ++k) {
        const DeviceStats s = shards_[k]->device->stats();
        window_batches_[k] = s.batches;
        window_busy_ps_[k] = s.busy_ps;
    }
}

void ShardGroup::drain() {
    if (drained_.exchange(true)) return;
    // Stop the monitor first: it joins an in-flight re-cut (which
    // restores a serving pipeline), so afterwards the channel/thread
    // vectors are stable and no new swap can start.
    if (monitor_) monitor_->stop();
    if (!channels_.empty()) channels_.front()->close();
    for (std::thread& t : stage_threads_) t.join();
    stage_threads_.clear();
}

void ShardGroup::finish_requants() {
    for (const auto& shard : shards_) shard->device->finish_requants();
}

RepartitionStats ShardGroup::repartition_stats() const {
    const common::MutexLock lock(repart_mutex_);
    RepartitionStats out = repart_stats_;
    out.partition_generation = partition_generation();
    return out;
}

std::vector<DeviceStats> ShardGroup::stats() const {
    std::vector<DeviceStats> out;
    out.reserve(shards_.size());
    for (const auto& shard : shards_) out.push_back(shard->device->stats());
    return out;
}

double ShardGroup::sample_accuracy(const tensor::Tensor& images,
                                   const std::vector<int>& labels, int samples) const {
    if (samples < 1) throw std::invalid_argument("ShardGroup: samples must be >= 1");
    samples = std::min(samples, images.shape().n);
    if (labels.size() < static_cast<std::size_t>(samples))
        throw std::invalid_argument("ShardGroup: fewer labels than samples");
    // Snapshot one consistent cut's chain under the swap mutex, then
    // release it before evaluating: the graphs are immutable and pinned
    // by the shared_ptrs, and holding the mutex across `samples`
    // inferences would stall admission for the whole evaluation.
    std::vector<std::shared_ptr<const quant::QuantizedGraph>> chain;
    {
        const common::MutexLock lock(swap_mutex_);
        chain.reserve(shards_.size());
        for (const auto& shard : shards_) chain.push_back(shard->device->deployed_graph());
    }
    tensor::Tensor acts;
    for (std::size_t k = 0; k < chain.size(); ++k)
        acts = quant::run_quantized(*chain[k], k == 0 ? images.batch_view(0, samples)
                                                      : acts.batch_view(0, samples));
    const std::vector<int> predictions = ir::argmax_classes(acts);
    int correct = 0;
    for (int i = 0; i < samples; ++i)
        correct += predictions[static_cast<std::size_t>(i)] ==
                   labels[static_cast<std::size_t>(i)];
    return static_cast<double>(correct) / static_cast<double>(samples);
}

}  // namespace raq::serve
