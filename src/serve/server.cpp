#include "serve/server.hpp"

#include <algorithm>
#include <stdexcept>

#include "exec/kernels_simd.hpp"

namespace raq::serve {

namespace {
/// SchedulerConfig lane capacities of 0 inherit the server-wide
/// queue_capacity default.
SchedulerConfig resolved_scheduler(const ServeConfig& config) {
    SchedulerConfig out = config.scheduler;
    if (out.interactive_capacity == 0) out.interactive_capacity = config.queue_capacity;
    if (out.batch_capacity == 0) out.batch_capacity = config.queue_capacity;
    return out;
}
}  // namespace

NpuServer::NpuServer(const ServeContext& ctx, const ServeConfig& config)
    : config_(config), ctx_(ctx), queue_(resolved_scheduler(config)) {
    if (config.num_devices < 1 || config.num_workers < 1 || config.max_batch < 1)
        throw std::invalid_argument("NpuServer: devices/workers/max_batch must be >= 1");
    if (config.num_shards < 1)
        throw std::invalid_argument("NpuServer: num_shards must be >= 1");
    if (config.num_devices % config.num_shards != 0)
        throw std::invalid_argument(
            "NpuServer: num_devices must be a multiple of num_shards");
    if (config.background_requant && config.requant_workers < 1)
        throw std::invalid_argument("NpuServer: requant_workers must be >= 1");
    if (config.telemetry.trace_sample_rate < 0.0 || config.telemetry.trace_sample_rate > 1.0)
        throw std::invalid_argument(
            "NpuServer: telemetry.trace_sample_rate must be in [0,1]");
    if (config.telemetry.metrics) {
        telemetry_ = std::make_unique<obs::Telemetry>(config.telemetry);
        obs::MetricsRegistry& reg = telemetry_->metrics();
        for (std::size_t c = 0; c < kNumRequestClasses; ++c) {
            const obs::Labels labels{
                {"class", request_class_name(static_cast<RequestClass>(c))}};
            submitted_counter_[c] = &reg.counter("raq_requests_submitted_total", labels);
            queue_depth_[c] = &reg.gauge("raq_queue_depth", labels);
            queue_wait_us_[c] =
                &reg.histogram("raq_queue_wait_us", labels, obs::default_us_buckets());
        }
        queue_depth_peak_ = &reg.gauge("raq_queue_depth_peak");
        // Execution-engine visibility: which SIMD dispatch tier this
        // process runs (value = the KernelTier enum, name in the label).
        const auto tier = exec::kernels_simd::active_tier();
        reg.gauge("raq_exec_dispatch_tier",
                  {{"tier", exec::kernels_simd::tier_name(tier)}})
            .set(static_cast<double>(tier));
    }
    // full_algorithm1 without a usable eval set fails loudly below:
    // every device's RequantJob validates it at construction (no silent
    // fast-path fallback), and that error propagates out of here — as do
    // ShardGroup's layout checks (sharding-only features are refused, not
    // silently ignored, on one-stage groups).
    if (config.background_requant)
        requant_service_ = std::make_unique<RequantService>(config.requant_workers);
    if (config.planner.enabled)
        planner_ =
            std::make_unique<ReliabilityPlanner>(config.planner, telemetry_.get());
    ShardGroupConfig group;
    group.num_shards = config.num_shards;
    group.handoff_capacity = config.shard_handoff_capacity;
    group.per_shard_systolic = config.shard_systolic;
    group.repartition = config.repartition;
    // The fleet-wide age stagger applies per underlying device: stage k
    // of group g is device g*num_shards + k.
    group.initial_age_step_years = config.initial_age_step_years;
    group.device = config.device;
    // Compile every execution plan for the largest batch the server will
    // ever hand it: no plan recompile on the serving path.
    group.device.plan_batch_capacity = config.max_batch;
    group.telemetry = telemetry_.get();
    group.planner = planner_.get();
    // One cut for the whole fleet: every pipeline group shares its
    // sub-graphs and cached sub-plans.
    const ShardPartition partition = make_group_partition(*ctx_.graph, group);
    group.partition = &partition;
    const int num_groups = config.num_devices / config.num_shards;
    groups_.reserve(static_cast<std::size_t>(num_groups));
    for (int g = 0; g < num_groups; ++g) {
        group.first_device_id = g * config.num_shards;
        group.device.initial_age_years =
            config.initial_age_years +
            static_cast<double>(group.first_device_id) * config.initial_age_step_years;
        groups_.push_back(std::make_unique<ShardGroup>(g, ctx_, group,
                                                       requant_service_.get(), &completed_));
        idle_groups_.push_back(groups_.back().get());
    }
    workers_.reserve(static_cast<std::size_t>(config.num_workers));
    for (int i = 0; i < config.num_workers; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

NpuServer::~NpuServer() { shutdown(); }

NpuServer::TrySubmit NpuServer::admit(tensor::Tensor image, RequestClass klass,
                                      std::function<void()> on_done, bool block) {
    InferenceRequest request;
    request.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
    request.image = std::move(image);
    request.on_done = std::move(on_done);
    request.klass = klass;
    // Stamped unconditionally: the scheduler's anti-starvation aging
    // credit and deadline/SLO accounting read it even with telemetry off.
    request.submit_us = obs::monotonic_us();
    if (telemetry_) {
        // Deterministic sampling: whether THIS id is traced depends only
        // on (seed, id), so replayed id streams sample identically.
        request.trace = telemetry_->traces().maybe_start(request.id, request.submit_us);
    }
    if (planner_) planner_->observe_arrival(request.submit_us);
    TrySubmit out;
    out.future = request.promise.get_future();
    const ChannelPush pushed =
        block ? (queue_.push(std::move(request)) ? ChannelPush::Ok : ChannelPush::Closed)
              : queue_.try_push(std::move(request));
    switch (pushed) {
        case ChannelPush::Ok:
            out.status = TrySubmit::Status::Accepted;
            break;
        case ChannelPush::Full:
            out.status = TrySubmit::Status::Saturated;
            return out;
        case ChannelPush::Closed:
            out.status = TrySubmit::Status::Closed;
            return out;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    if (telemetry_) {
        const auto lane = static_cast<std::size_t>(klass);
        submitted_counter_[lane]->add(1);
        queue_depth_[lane]->set(static_cast<double>(queue_.size(klass)));
        queue_depth_peak_->set_max(static_cast<double>(queue_.size()));
    }
    return out;
}

std::future<InferenceResult> NpuServer::submit(tensor::Tensor image,
                                               RequestClass klass) {
    TrySubmit out = admit(std::move(image), klass, {}, /*block=*/true);
    if (out.status != TrySubmit::Status::Accepted)
        throw std::runtime_error("NpuServer: submit after shutdown");
    return std::move(out.future);
}

NpuServer::TrySubmit NpuServer::try_submit(tensor::Tensor image,
                                           std::function<void()> on_done,
                                           RequestClass klass) {
    return admit(std::move(image), klass, std::move(on_done), /*block=*/false);
}

void NpuServer::worker_loop() {
    for (;;) {
        std::vector<InferenceRequest> batch =
            queue_.pop_batch(static_cast<std::size_t>(config_.max_batch));
        if (batch.empty()) return;  // closed and drained
        if (telemetry_) {
            // Queue span closes here: submit → worker pop. The wait
            // histograms see every request; the trace only sampled ones.
            const std::int64_t now = obs::monotonic_us();
            for (InferenceRequest& request : batch) {
                queue_wait_us_[static_cast<std::size_t>(request.klass)]->observe(
                    static_cast<double>(now - request.submit_us));
                if (request.trace) request.trace->mark(obs::SpanKind::Queue, now);
            }
            for (std::size_t c = 0; c < kNumRequestClasses; ++c)
                queue_depth_[c]->set(static_cast<double>(
                    queue_.size(static_cast<RequestClass>(c))));
        }

        ShardGroup* group = nullptr;
        {
            const common::MutexLock lock(pool_mutex_);
            // FIFO: the group idle longest serves next. Taking the one
            // just returned let a single group of a fleet carry closed-loop
            // traffic while the others sat idle.
            while (idle_groups_.empty()) pool_cv_.wait(pool_mutex_);
            group = idle_groups_.front();
            idle_groups_.pop_front();
        }
        try {
            group->serve(batch);
        } catch (...) {
            // A batch the group cannot admit (e.g. submitted images whose
            // shapes the batcher rejects) fails its own requests, not the
            // server: serve() hands the batch back intact, every promise
            // gets the exception, and the worker and the group keep
            // serving. Failures past admission are the stage's to report.
            fail_batch(batch, std::current_exception());
        }
        {
            const common::MutexLock lock(pool_mutex_);
            idle_groups_.push_back(group);
        }
        pool_cv_.notify_one();
    }
}

void NpuServer::shutdown() {
    if (stopped_.exchange(true)) return;
    queue_.close();
    for (std::thread& worker : workers_) worker.join();
    workers_.clear();
    // Workers joined: every accepted batch is inside a pipeline (or
    // done). Drain the pipelines so every promise is fulfilled.
    for (const auto& group : groups_) group->drain();
    if (requant_service_) {
        // Drain outstanding background builds (every accepted job is
        // built and published), adopt what was published, and catch up
        // on any crossing absorbed while a build was in flight: the
        // fleet ends on exactly the generations an inline run deploys.
        requant_service_->shutdown();
        for (const auto& group : groups_) group->finish_requants();
    }
}

const ShardGroup& NpuServer::group_at(int i, bool sharded_view) const {
    if (sharded_view != sharded())
        throw std::out_of_range(sharded_view ? "NpuServer: not sharded, see device()"
                                             : "NpuServer: sharded, see shard_group()");
    return *groups_.at(static_cast<std::size_t>(i));
}

double NpuServer::sample_accuracy(int index, int samples) const {
    if (!ctx_.eval_images || !ctx_.eval_labels)
        throw std::logic_error("NpuServer: no eval set in the serve context");
    // Index i is device i of a replicated fleet or pipeline group i: the
    // group clamps `samples` to the eval images and checks the labels
    // cover them.
    return groups_.at(static_cast<std::size_t>(index))
        ->sample_accuracy(*ctx_.eval_images, *ctx_.eval_labels, samples);
}

std::string NpuServer::export_metrics() const {
    return telemetry_ ? telemetry_->metrics().expose() : std::string();
}

std::string NpuServer::export_traces() const {
    return telemetry_ ? telemetry_->traces().render() : std::string();
}

std::string NpuServer::export_timeline() const {
    return telemetry_ ? telemetry_->timeline().render() : std::string();
}

FleetStats NpuServer::fleet_stats() const {
    FleetStats fleet;
    fleet.submitted = accepted_.load(std::memory_order_relaxed);
    fleet.completed = completed_.load(std::memory_order_relaxed);
    for (const auto& group : groups_) {
        std::vector<DeviceStats> shard_stats = group->stats();
        fleet.devices.insert(fleet.devices.end(), shard_stats.begin(), shard_stats.end());
    }
    return fleet;
}

}  // namespace raq::serve
