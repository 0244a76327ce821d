#include "sim/traffic.hpp"

#include <algorithm>
#include <cmath>

namespace raq::sim {

DutyCycleMonitor::DutyCycleMonitor(std::int64_t window_us)
    : window_us_(std::max<std::int64_t>(1, window_us)) {}

void DutyCycleMonitor::record_busy(std::int64_t start_us, std::int64_t end_us) {
    if (end_us < start_us) std::swap(start_us, end_us);
    if (first_seen_us_ < 0) first_seen_us_ = start_us;
    spans_.push_back({start_us, end_us});
}

double DutyCycleMonitor::busy_fraction(std::int64_t now_us) {
    if (first_seen_us_ < 0) return 0.0;
    const std::int64_t window_start = now_us - window_us_;
    while (!spans_.empty() && spans_.front().end_us <= window_start) spans_.pop_front();
    double busy_us = 0.0;
    for (const Span& s : spans_) {
        const std::int64_t lo = std::max(s.start_us, window_start);
        const std::int64_t hi = std::min(s.end_us, now_us);
        if (hi > lo) busy_us += static_cast<double>(hi - lo);
    }
    // Clip the denominator to the monitor's lifetime: a device that has
    // been executing since its very first span reads ~1 even before a
    // full window has elapsed.
    const std::int64_t lifetime = now_us - first_seen_us_;
    const double denom =
        static_cast<double>(std::max<std::int64_t>(1, std::min(window_us_, lifetime)));
    return std::min(1.0, busy_us / denom);
}

TrafficPredictor::TrafficPredictor(const TrafficPredictorConfig& config)
    : config_(config) {
    if (config_.diurnal_bins > 0) {
        bin_rate_.assign(static_cast<std::size_t>(config_.diurnal_bins), 0.0);
        bin_windows_.assign(static_cast<std::size_t>(config_.diurnal_bins), 0);
    }
}

int TrafficPredictor::bin_of(std::int64_t t_us) const {
    const std::int64_t period = std::max<std::int64_t>(1, config_.period_us);
    const std::int64_t phase = ((t_us % period) + period) % period;
    const auto bin = static_cast<int>(phase * config_.diurnal_bins / period);
    return std::min(bin, config_.diurnal_bins - 1);
}

void TrafficPredictor::roll_to(std::int64_t now_us) {
    if (window_start_us_ < 0) return;
    const std::int64_t window_us = std::max<std::int64_t>(1, config_.window_us);
    const double window_s = static_cast<double>(window_us) * 1e-6;
    // Close elapsed windows one at a time (bounded: past the cap the
    // remaining empty windows collapse into closed-form EWMA/peak decay —
    // a predictor idle for hours must not loop per window).
    int closed = 0;
    while (now_us >= window_start_us_ + window_us && closed < 4096) {
        const double rate = static_cast<double>(window_count_) / window_s;
        ewma_rate_ = warmed_
                         ? config_.ewma_alpha * rate +
                               (1.0 - config_.ewma_alpha) * ewma_rate_
                         : rate;
        warmed_ = true;
        peak_rate_ = std::max(peak_rate_ * config_.peak_decay, ewma_rate_);
        if (config_.diurnal_bins > 0) {
            const auto b = static_cast<std::size_t>(bin_of(window_start_us_));
            bin_rate_[b] = bin_windows_[b] == 0
                               ? rate
                               : config_.ewma_alpha * rate +
                                     (1.0 - config_.ewma_alpha) * bin_rate_[b];
            ++bin_windows_[b];
        }
        window_count_ = 0;
        window_start_us_ += window_us;
        ++closed;
    }
    if (now_us >= window_start_us_ + window_us) {
        const auto skipped =
            static_cast<double>((now_us - window_start_us_) / window_us);
        ewma_rate_ *= std::pow(1.0 - config_.ewma_alpha, skipped);
        peak_rate_ = std::max(peak_rate_ * std::pow(config_.peak_decay, skipped),
                              ewma_rate_);
        window_start_us_ = now_us - (now_us - window_start_us_) % window_us;
    }
}

void TrafficPredictor::observe(std::int64_t now_us) {
    if (window_start_us_ < 0) window_start_us_ = now_us;
    roll_to(now_us);
    ++window_count_;
}

double TrafficPredictor::rate_now(std::int64_t now_us) {
    roll_to(now_us);
    return ewma_rate_;
}

double TrafficPredictor::rate_peak(std::int64_t now_us) {
    roll_to(now_us);
    return peak_rate_;
}

double TrafficPredictor::predicted_rate(std::int64_t at_us) {
    if (config_.diurnal_bins > 0) {
        const auto b = static_cast<std::size_t>(bin_of(at_us));
        if (bin_windows_[b] > 0) return bin_rate_[b];
    }
    return ewma_rate_;
}

bool TrafficPredictor::low_traffic(std::int64_t now_us) {
    roll_to(now_us);
    if (peak_rate_ <= 1e-9) return true;  // never loaded
    return ewma_rate_ <= config_.low_traffic_fraction * peak_rate_;
}

double duty_aging_factor(double busy_fraction, double self_heat_c,
                         double temperature_activation) {
    const double f = std::clamp(busy_fraction, 0.0, 1.0);
    return std::exp(temperature_activation * self_heat_c * (f - 1.0));
}

}  // namespace raq::sim
