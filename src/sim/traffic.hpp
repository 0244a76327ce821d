// Traffic-driven duty cycle: close the loop between *served* load and
// the aging model.
//
// The paper's aging trajectories assume a duty cycle — how much of wall
// time the MAC array actually switches — but PRs 1–7 aged devices on
// simulated busy time alone, which is equivalent to assuming every
// deployed NPU runs saturated around the clock. With a network
// front-end in place the serving runtime finally observes real traffic,
// so a device can measure its own utilization and age accordingly: a
// quiet fleet stays cooler and accumulates ΔVth slower than one pinned
// at 100% by a diurnal peak.
//
// Mechanism (BTI self-heating, same Arrhenius form as
// aging::AgingParams::temperature_activation): a device busy for
// fraction f of host time sits at roughly T_sat − (1 − f) × self_heat_c
// degrees, where self_heat_c is the busy-vs-idle die temperature delta.
// The aging accrual for a batch is scaled by
//   duty_aging_factor(f) = exp(temperature_activation × self_heat_c × (f − 1))
// which is exactly the AgingModel's own temperature acceleration applied
// to the utilization-dependent die temperature. At f == 1 the factor is
// 1 — a saturated device ages exactly like the pre-traffic-aware
// runtime, so enabling the feature never *adds* stress, it only relieves
// devices that measured idle time.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

namespace raq::sim {

/// Per-device traffic-driven aging knobs (DeviceConfig::traffic_aging).
struct TrafficAgingConfig {
    bool enabled = false;
    /// Sliding utilization window (host µs). Short enough to track a
    /// diurnal trace through an accelerated simulation, long enough to
    /// average over batch granularity.
    std::int64_t window_us = 250'000;
    /// Busy-vs-idle die temperature delta in °C (self-heating under full
    /// MAC switching activity). 15 °C is a typical inference-accelerator
    /// package delta.
    double self_heat_c = 15.0;
};

/// Sliding-window busy-fraction monitor over host-time execution spans.
/// Not thread-safe: the owning device records under its stats mutex.
class DutyCycleMonitor {
public:
    explicit DutyCycleMonitor(std::int64_t window_us = 250'000);

    /// Record one execution span [start_us, end_us] (obs::monotonic_us).
    /// Spans arrive in order: the device is held exclusively per batch.
    void record_busy(std::int64_t start_us, std::int64_t end_us);

    /// Fraction of the trailing window spent executing, in [0, 1]. The
    /// denominator is clipped to the monitor's observed lifetime so a
    /// device busy since startup reads ~1 before a full window elapsed;
    /// with nothing recorded yet the device is idle → 0.
    [[nodiscard]] double busy_fraction(std::int64_t now_us);

    [[nodiscard]] std::int64_t window_us() const { return window_us_; }

private:
    struct Span {
        std::int64_t start_us = 0;
        std::int64_t end_us = 0;
    };
    const std::int64_t window_us_;
    std::deque<Span> spans_;
    std::int64_t first_seen_us_ = -1;  ///< start of the first recorded span
};

/// Knobs for the arrival-rate predictor the ReliabilityPlanner consults
/// when placing requant builds / re-cuts into low-traffic windows.
struct TrafficPredictorConfig {
    /// Arrival-rate sampling window (host µs). Matches the
    /// DutyCycleMonitor default so the two views of load line up.
    std::int64_t window_us = 250'000;
    /// EWMA smoothing across completed windows (1 = last window only).
    double ewma_alpha = 0.4;
    /// Per-window decay of the tracked peak rate, so a one-off burst
    /// months ago does not keep every later lull looking "low".
    double peak_decay = 0.99;
    /// A window is low-traffic when the smoothed rate is at or below
    /// this fraction of the (decayed) peak rate.
    double low_traffic_fraction = 0.35;
    /// Diurnal phase profile: > 0 folds completed windows into this many
    /// phase bins over `period_us`, giving predicted_rate() a seasonal
    /// estimate; 0 disables the profile (EWMA only).
    int diurnal_bins = 0;
    std::int64_t period_us = 4'000'000;
};

/// EWMA + decayed-peak (optionally diurnal-phase) arrival-rate estimator
/// over fixed windows. Arrivals are observed with their monotonic
/// timestamps; nothing here reads a clock. Not thread-safe: the owning
/// ReliabilityPlanner records under its own leaf mutex (the same
/// ownership discipline as DutyCycleMonitor under the device stats
/// mutex).
class TrafficPredictor {
public:
    explicit TrafficPredictor(const TrafficPredictorConfig& config = {});

    /// Record one request arrival at `now_us` (obs::monotonic_us).
    void observe(std::int64_t now_us);

    /// Smoothed arrival rate (requests/sec) as of `now_us`; rolls any
    /// windows that have fully elapsed (empty ones count as zero-rate).
    [[nodiscard]] double rate_now(std::int64_t now_us);
    /// Decayed historical peak of the smoothed rate.
    [[nodiscard]] double rate_peak(std::int64_t now_us);
    /// Seasonal estimate for the window containing `at_us`: the diurnal
    /// phase-bin average when enabled and warmed up, else the EWMA.
    [[nodiscard]] double predicted_rate(std::int64_t at_us);
    /// True when `now_us` sits in a low-traffic window: smoothed rate at
    /// or below low_traffic_fraction × peak (a never-loaded fleet is
    /// trivially low-traffic).
    [[nodiscard]] bool low_traffic(std::int64_t now_us);

    [[nodiscard]] const TrafficPredictorConfig& config() const { return config_; }

private:
    void roll_to(std::int64_t now_us);
    [[nodiscard]] int bin_of(std::int64_t t_us) const;

    const TrafficPredictorConfig config_;
    std::int64_t window_start_us_ = -1;  ///< -1 until the first arrival
    std::uint64_t window_count_ = 0;     ///< arrivals in the open window
    double ewma_rate_ = 0.0;             ///< requests/sec over closed windows
    double peak_rate_ = 0.0;
    bool warmed_ = false;                ///< at least one closed window
    std::vector<double> bin_rate_;       ///< diurnal phase profile
    std::vector<std::uint64_t> bin_windows_;
};

/// Aging-rate multiplier for a device busy for fraction `f` of host
/// time: exp(temperature_activation × self_heat_c × (f − 1)). Equals 1
/// at saturation (f == 1) and decays toward the idle-temperature rate as
/// the device cools — the same per-°C Arrhenius slope the AgingModel
/// applies to its configured operating temperature.
[[nodiscard]] double duty_aging_factor(double busy_fraction, double self_heat_c,
                                       double temperature_activation);

}  // namespace raq::sim
