#include "serve/device.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/rng.hpp"

namespace raq::serve {

namespace {

/// Runs before the RequantJob member is constructed (which dereferences
/// the context), so a half-filled context fails with a clear error.
const ir::Graph& validate_context(const ServeContext& ctx) {
    if (!ctx.graph || !ctx.calib || !ctx.selector || !ctx.aging)
        throw std::invalid_argument("NpuDevice: graph/calib/selector/aging are required");
    return *ctx.graph;
}

core::RequantJobConfig job_config(const DeviceConfig& config) {
    core::RequantJobConfig jc;
    jc.full_algorithm1 = config.full_algorithm1;
    jc.accuracy_loss_threshold = config.accuracy_loss_threshold;
    jc.guardband_fraction = config.guardband_fraction;
    return jc;
}

double ms_since(const std::chrono::steady_clock::time_point& t0) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
}

}  // namespace

NpuDevice::NpuDevice(int id, const ServeContext& ctx, const DeviceConfig& config,
                     RequantService* requant_service, obs::Telemetry* telemetry,
                     ReliabilityPlanner* planner, int stage)
    : id_(id),
      ctx_(&ctx),
      config_(config),
      telemetry_(telemetry),
      requant_service_(requant_service),
      planner_(planner),
      latency_(config.latency_reservoir,
               common::stream_seed(config.base_seed, static_cast<std::uint64_t>(id),
                                   0x1a7e9c5ULL)),
      duty_monitor_(config.traffic_aging.window_us) {
    if (telemetry_) {
        obs::Labels labels{{"device", std::to_string(id)}};
        if (stage >= 0) labels.emplace_back("stage", std::to_string(stage));
        obs::MetricsRegistry& reg = telemetry_->metrics();
        metrics_.requests = &reg.counter("raq_device_requests_total", labels);
        metrics_.batches = &reg.counter("raq_device_batches_total", labels);
        metrics_.busy_ps = &reg.gauge("raq_device_busy_ps", labels);
        metrics_.clock_ps = &reg.gauge("raq_device_clock_period_ps", labels);
        metrics_.dvth_mv = &reg.gauge("raq_device_dvth_mv", labels);
        metrics_.generation = &reg.gauge("raq_device_generation", labels);
        metrics_.batch_size =
            &reg.histogram("raq_batch_size", labels, obs::default_size_buckets());
        metrics_.requants = &reg.counter("raq_requants_total", labels);
        metrics_.recuts = &reg.counter("raq_recuts_total", labels);
        metrics_.build_ms =
            &reg.histogram("raq_requant_build_ms", labels, obs::default_ms_buckets());
        metrics_.swap_us =
            &reg.histogram("raq_requant_swap_us", labels, obs::default_us_buckets());
        if (config.traffic_aging.enabled)
            metrics_.duty_fraction = &reg.gauge("raq_device_duty_fraction", labels);
    }
    job_.emplace(validate_context(ctx), *ctx.calib, *ctx.selector, job_config(config),
                 ctx.eval_images, ctx.eval_labels);
    const npu::SystolicArrayModel array(config.systolic);
    per_image_cycles_.store(array.analyze(*ctx.graph).total_cycles,
                            std::memory_order_release);
    auto initial =
        job_->build(ctx.aging->dvth_mv(config.initial_age_years), /*generation=*/1);
    if (!initial)
        throw std::runtime_error(
            "NpuDevice: no feasible compression at the initial aging level");
    // install() derives clock_period_ps_ from the initial state's aged
    // delay (== the fresh critical path for an unaged, uncompressed
    // deployment).
    install(std::make_shared<const core::ModelState>(std::move(*initial)),
            /*record_event=*/false, /*background=*/false, /*build_ms=*/0.0);
}

double NpuDevice::hours_unlocked() const {
    // Traffic-driven aging replaces raw accelerated busy hours with the
    // duty-scaled stress integral account_batch() accrues per batch; at
    // a sustained busy fraction of 1 the two are identical.
    if (config_.traffic_aging.enabled)
        return config_.initial_age_years * 8760.0 + effective_stress_hours_;
    const double busy_hours = busy_ps_ * 1e-12 / 3600.0;
    return config_.initial_age_years * 8760.0 + busy_hours * config_.age_acceleration;
}

double NpuDevice::operating_hours() const {
    const common::MutexLock lock(stats_mutex_);
    return hours_unlocked();
}

double NpuDevice::dvth_mv() const { return ctx_->aging->dvth_mv(operating_hours() / 8760.0); }

int NpuDevice::requant_count() const {
    const common::MutexLock lock(stats_mutex_);
    return requant_count_;
}

std::shared_ptr<const core::ModelState> NpuDevice::deployed_state() const {
    const common::MutexLock lock(state_mutex_);
    return state_;
}

std::shared_ptr<const quant::QuantizedGraph> NpuDevice::deployed_graph() const {
    const auto state = deployed_state();
    return state ? state->qgraph : nullptr;
}

std::uint64_t NpuDevice::generation() const {
    const auto state = deployed_state();
    return state ? state->generation : 0;
}

void NpuDevice::install(const std::shared_ptr<const core::ModelState>& state, bool record_event,
                        bool background, double build_ms, bool recut) {
    const auto swap_start = std::chrono::steady_clock::now();
    common::Compression before;
    {
        const common::MutexLock lock(state_mutex_);
        if (state_) before = state_->compression;
        state_ = state;
    }
    // The clock tracks the deployment: an aged device runs at the
    // installed compression's aged critical path, not the fresh path
    // cached at construction. (Fallback through the selector covers
    // hand-built states without a stamped delay.)
    const double aged_clock =
        state->aged_delay_ps > 0.0
            ? state->aged_delay_ps
            : ctx_->selector->delay_ps(state->dvth_mv, state->compression);
    clock_period_ps_.store(aged_clock, std::memory_order_release);
    // Re-point the planned execution state at the new deployment (the
    // owning rebind pins the graph). The topology is unchanged, so the
    // compiled plan and all scratch buffers survive the swap; only the
    // thread holding the device exclusively runs the runner.
    if (!runner_) {
        runner_.emplace(state->qgraph, std::max(1, config_.plan_batch_capacity));
    } else {
        runner_->rebind(state->qgraph);
    }
    const double swap_us = 1e3 * ms_since(swap_start);
    if (telemetry_) {
        metrics_.clock_ps->set(aged_clock);
        metrics_.generation->set(static_cast<double>(state->generation));
    }
    if (record_event) {
        RequantEvent event;
        event.t_us = obs::monotonic_us();
        event.generation = state->generation;
        event.dvth_mv = state->dvth_mv;
        event.before = before;
        event.after = state->compression;
        event.method = state->method;
        event.aged_delay_ps = aged_clock;
        event.build_ms = build_ms;
        event.swap_us = swap_us;
        event.background = background;
        event.recut = recut;
        {
            const common::MutexLock lock(stats_mutex_);
            ++requant_count_;
            event.at_hours = hours_unlocked();
            requant_events_.push_back(event);
        }
        if (telemetry_) {
            (recut ? metrics_.recuts : metrics_.requants)->add(1);
            metrics_.build_ms->observe(build_ms);
            metrics_.swap_us->observe(swap_us);
            obs::ReliabilityEvent re;
            re.t_us = event.t_us;
            re.kind = recut ? obs::EventKind::Recut : obs::EventKind::RequantSwap;
            re.device_id = id_;
            re.generation = state->generation;
            re.value = build_ms;
            re.detail = event.before.to_string() + " -> " + event.after.to_string() +
                        (background ? " (background)" : " (inline)");
            telemetry_->timeline().record(std::move(re));
        }
    }
}

void NpuDevice::requant_inline(double dvth) {
    const auto build_start = std::chrono::steady_clock::now();
    auto built = job_->build(dvth, generation() + 1);
    // Even full compression cannot meet timing: keep the current
    // deployment rather than serve a graph that violates the clock.
    if (!built) return;
    install(std::make_shared<const core::ModelState>(std::move(*built)),
            /*record_event=*/true, /*background=*/false, ms_since(build_start));
}

void NpuDevice::execute_requant(double dvth_mv, std::uint64_t generation) {
    const auto build_start = std::chrono::steady_clock::now();
    PendingOutcome outcome;
    std::string detail;
    try {
        auto built = job_->build(dvth_mv, generation);
        if (built)
            outcome.state = std::make_shared<const core::ModelState>(std::move(*built));
        detail = outcome.state ? "feasible" : "infeasible";
    } catch (const std::exception& e) {
        // A build that throws publishes like an infeasible one: the device
        // keeps serving its generation, adoption clears the in-flight gate,
        // and discard_requant() finds the outcome it waits for.
        detail = std::string("failed: ") + e.what();
    }
    outcome.build_ms = ms_since(build_start);
    if (telemetry_) {
        // Build completion is its own timeline event (on the service
        // worker's clock); the swap records separately at adoption, so
        // the build→swap gap is visible in the rendered timeline.
        obs::ReliabilityEvent re;
        re.t_us = obs::monotonic_us();
        re.kind = obs::EventKind::RequantBuild;
        re.device_id = id_;
        re.generation = generation;
        re.value = outcome.build_ms;
        re.detail = std::move(detail);
        telemetry_->timeline().record(std::move(re));
    }
    const common::MutexLock lock(pending_mutex_);
    pending_ = std::move(outcome);
}

bool NpuDevice::adopt_pending() {
    std::optional<PendingOutcome> outcome;
    {
        const common::MutexLock lock(pending_mutex_);
        if (!pending_) return false;
        outcome.swap(pending_);
    }
    const bool swapped = outcome->state != nullptr;
    if (swapped)
        install(std::move(outcome->state), /*record_event=*/true, /*background=*/true,
                outcome->build_ms);
    // Clear the gate only after the install: the next threshold check
    // starts from the adopted state's baseline.
    requant_in_flight_.store(false, std::memory_order_release);
    return swapped;
}

void NpuDevice::discard_requant() {
    // An in-flight background build targets the OLD sub-graph through
    // job_; let it publish (the RequantService never drops an accepted
    // job) and discard the result — adopting a state built for a shard
    // this device no longer serves would deploy the wrong topology.
    // After the wait the service worker is done touching job_ and the
    // context, so the remap and rebuild cannot race with it; no new build
    // can start because the pipeline is quiesced (no serve thread
    // reaches requant_boundary()).
    if (requant_in_flight_.load(std::memory_order_acquire)) {
        for (;;) {
            {
                const common::MutexLock lock(pending_mutex_);
                if (pending_) break;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    }
    {
        const common::MutexLock lock(pending_mutex_);
        pending_.reset();
    }
    requant_in_flight_.store(false, std::memory_order_release);
}

void NpuDevice::reshard(core::ModelState state, double build_ms) {
    // The context now points at the new sub-graph and sliced
    // calibration; rebuild everything derived from them.
    job_.emplace(validate_context(*ctx_), *ctx_->calib, *ctx_->selector,
                 job_config(config_), ctx_->eval_images, ctx_->eval_labels);
    const npu::SystolicArrayModel array(config_.systolic);
    per_image_cycles_.store(array.analyze(*ctx_->graph).total_cycles,
                            std::memory_order_release);

    // Adopt the pre-built deployment: the silicon (age, busy time, stats
    // history) carries over, only the model slice changes. Topology
    // changed, so the runner is rebuilt rather than rebound (the
    // sub-plan was warm-compiled into the PlanCache by the re-cut path,
    // so this resolves without a compile).
    state.generation = generation() + 1;
    runner_.reset();
    install(std::make_shared<const core::ModelState>(std::move(state)),
            /*record_event=*/true, /*background=*/true, build_ms,
            /*recut=*/true);
}

void NpuDevice::finish_requants() {
    adopt_pending();
    const double dvth_now = dvth_mv();
    if (dvth_now - deployed_state()->dvth_mv >= config_.requant_threshold_mv) {
        // Build-and-adopt through the same publish path a service worker
        // uses: the event records as background (no batch stalled — the
        // stream is over) with its build latency.
        execute_requant(dvth_now, generation() + 1);
        adopt_pending();
    }
}

void NpuDevice::account_batch(std::size_t requests, std::uint64_t batch_cycles,
                              double clock_period_ps, std::uint64_t flips,
                              std::int64_t host_t0_us, std::int64_t host_t1_us) {
    double busy_ps_now = 0.0;
    double hours_now = 0.0;
    double duty_now = 1.0;
    {
        const common::MutexLock lock(stats_mutex_);
        requests_ += requests;
        ++batches_;
        busy_cycles_ += batch_cycles;
        // Busy time accrues at the clock the batch actually ran at; after a
        // re-quantization the new clock applies to subsequent batches only.
        busy_ps_ += static_cast<double>(batch_cycles) * clock_period_ps;
        flips_ += flips;
        for (std::size_t i = 0; i < requests; ++i) latency_.record(batch_cycles);
        if (config_.traffic_aging.enabled) {
            // Measure utilization in host time (that is what the sliding
            // window sees between batches), but accrue stress in model
            // time: the batch's simulated busy hours scaled by the self-
            // heating factor at the current busy fraction.
            duty_monitor_.record_busy(host_t0_us, host_t1_us);
            duty_fraction_ = duty_monitor_.busy_fraction(host_t1_us);
            duty_now = duty_fraction_;
            const double busy_h =
                static_cast<double>(batch_cycles) * clock_period_ps * 1e-12 / 3600.0;
            effective_stress_hours_ +=
                busy_h * config_.age_acceleration *
                sim::duty_aging_factor(duty_fraction_, config_.traffic_aging.self_heat_c,
                                       ctx_->aging->params().temperature_activation);
        }
        busy_ps_now = busy_ps_;
        hours_now = hours_unlocked();
    }
    if (telemetry_) {
        metrics_.requests->add(requests);
        metrics_.batches->add(1);
        metrics_.batch_size->observe(static_cast<double>(requests));
        metrics_.busy_ps->set(busy_ps_now);
        metrics_.dvth_mv->set(ctx_->aging->dvth_mv(hours_now / 8760.0));
        if (metrics_.duty_fraction) metrics_.duty_fraction->set(duty_now);
    }
}

tensor::Tensor NpuDevice::execute_batch(tensor::TensorView batch,
                                        const std::vector<InferenceRequest>& requests,
                                        BatchTrace* trace) {
    // The deployed state cannot change mid-batch: only this thread (and
    // the post-join shutdown drain) installs, and the snapshot pins it.
    const std::shared_ptr<const core::ModelState> serving = deployed_state();
    const double period = clock_period_ps();
    const std::uint64_t batch_cycles =
        per_image_cycles() * static_cast<std::uint64_t>(batch.shape.n);
    const bool duty = config_.traffic_aging.enabled;
    const std::int64_t host_t0 = duty ? obs::monotonic_us() : 0;
    std::uint64_t flips = 0;
    tensor::Tensor logits;
    if (config_.flip_probability > 0.0) {
        inject::InjectionConfig inj_cfg;
        inj_cfg.flip_probability = config_.flip_probability;
        for (int i = 0; i < batch.shape.n; ++i) {
            inj_cfg.seed = common::stream_seed(config_.base_seed,
                                               requests.at(static_cast<std::size_t>(i)).id);
            inject::BitFlipInjector injector(inj_cfg);
            const tensor::Tensor row = runner_->run(batch.batch_view(i, 1), &injector);
            if (i == 0) {
                tensor::Shape shape = row.shape();
                shape.n = batch.shape.n;
                logits = tensor::Tensor(shape);
            }
            std::copy(row.data(), row.data() + row.size(),
                      logits.data() + static_cast<std::size_t>(i) * row.size());
            flips += injector.flips_injected();
        }
    } else {
        logits = runner_->run(batch);
    }
    const std::int64_t host_t1 = duty ? obs::monotonic_us() : 0;
    if (trace) {
        trace->cycles = batch_cycles;
        trace->latency_us = static_cast<double>(batch_cycles) * period * 1e-6;
        trace->generation = serving->generation;
    }
    account_batch(static_cast<std::size_t>(batch.shape.n), batch_cycles, period, flips,
                  host_t0, host_t1);
    return logits;
}

void NpuDevice::requant_boundary() {
    // First adopt a background-built generation if one was published (so
    // the threshold check runs against the newest baseline), then
    // trigger on a crossing.
    adopt_pending();
    const double dvth_now = dvth_mv();
    const double dvth_deployed = deployed_state()->dvth_mv;
    if (planner_ != nullptr) {
        // Predictive mode: the planner may schedule the build *early*
        // (inside a low-traffic window, before the crossing) or defer a
        // due build briefly for the next lull. Deferral is bounded by
        // the planner's headroom and by finish_requants() at shutdown.
        if (requant_in_flight_.load(std::memory_order_acquire)) return;
        if (planner_->plan_requant(id_, dvth_now, dvth_deployed,
                                   config_.requant_threshold_mv,
                                   ctx_->aging) != PlannerDecision::Schedule)
            return;
    } else if (dvth_now - dvth_deployed < config_.requant_threshold_mv) {
        return;
    }
    if (requant_service_ == nullptr) {
        // Inline mode: the device stalls for the full build (exactly one
        // deployment per crossing: the device is held exclusively, and
        // the install resets the baseline).
        requant_inline(dvth_now);
    } else if (!requant_in_flight_.exchange(true, std::memory_order_acq_rel)) {
        requant_service_->enqueue(*this, dvth_now, generation() + 1);
    }
}

DeviceStats NpuDevice::stats() const {
    DeviceStats s;
    s.device_id = id_;
    s.clock_period_ps = clock_period_ps();
    // Deployment snapshot: a pointer copy under state_mutex_ — observers
    // never contend with a build, and a swap holds the mutex only for a
    // pointer assignment.
    const auto state = deployed_state();
    if (state) {
        s.generation = state->generation;
        s.compression = state->compression;
        s.method = state->method;
    }
    s.requant_in_flight = requant_in_flight_.load(std::memory_order_acquire);
    const common::MutexLock lock(stats_mutex_);
    s.requests = requests_;
    s.batches = batches_;
    s.busy_cycles = busy_cycles_;
    s.busy_ps = busy_ps_;
    s.flips = flips_;
    s.operating_hours = hours_unlocked();
    s.dvth_mv = ctx_->aging->dvth_mv(s.operating_hours / 8760.0);
    s.duty_fraction = config_.traffic_aging.enabled ? duty_fraction_ : 1.0;
    s.requant_count = requant_count_;
    s.requant_events = requant_events_;
    s.latency = latency_.summary();
    return s;
}

}  // namespace raq::serve
