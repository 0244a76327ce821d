// Shared plumbing of the benchmark binary: run options, the result
// record, the span tracer, order statistics, host counters, and the
// dataset/model fixture every workload sets up through the program's
// public functions.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "aging/aging_model.hpp"
#include "core/compression_selector.hpp"
#include "ir/graph.hpp"
#include "netlist/netlist.hpp"
#include "nn/model_cache.hpp"
#include "quant/calibration.hpp"
#include "quant/quantized_graph.hpp"
#include "tensor/tensor.hpp"

namespace raq::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// The networks the workloads load; `raqbench prepare` trains them.
[[nodiscard]] std::vector<std::string> benchmark_networks();

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Stop after the set-up and report only setup_s (a fresh process per
    /// set-up, so that no in-process cache carries over between them).
    bool setup_only = false;
    /// The traced run writes its spans and the per-level exec table here.
    std::string artifact_dir = ".bench_build/traces";
    Clock::time_point process_start;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one workload run reports: ops attempted and failed, the metrics
/// of the requested kind (end-to-end untraced, per-layer traced) and
/// every output-check mismatch.
struct Report {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> mismatches;
    std::uint64_t mismatch_count = 0;

    void add(const std::string& name, double value, const std::string& unit) {
        metrics.push_back({name, value, unit});
    }
    /// Record a failed output check (the first few keep their text).
    void mismatch(const std::string& what);
    [[nodiscard]] bool correct() const { return mismatch_count == 0; }
};

/// Spans recorded from the benchmark's own code around calls into the
/// program: name, start, end, parent span and request id. Kept in
/// memory and written out when the traced run ends. A disabled tracer
/// records nothing and never reads the clock.
class Tracer {
public:
    struct Span {
        const char* name = "";
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        int parent = -1;
        std::uint64_t request = 0;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    [[nodiscard]] bool enabled() const { return enabled_; }
    /// Open a span; returns its id (-1 when disabled).
    int open(const char* name, int parent = -1, std::uint64_t request = 0);
    void close(int id);
    /// Append spans a worker thread recorded on its own (parents are
    /// ids within `spans`, offset on merge).
    void merge(const std::vector<Span>& spans);

    [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;
    [[nodiscard]] double total_ms(const std::string& name) const;
    void write(const std::string& path) const;

private:
    const bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
public:
    ScopedSpan(Tracer& tracer, const char* name, int parent = -1)
        : tracer_(tracer), id_(tracer.open(name, parent)) {}
    ~ScopedSpan() { tracer_.close(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    Tracer& tracer_;
    int id_;
};

/// Steady-clock nanoseconds (the span time base).
[[nodiscard]] std::int64_t now_ns();

/// Order statistic with linear interpolation between closest ranks
/// (0 for an empty sample).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}

/// Host CPU time from /proc/stat, for the steal share over a phase.
struct CpuTimes {
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
    [[nodiscard]] static CpuTimes now();
};
[[nodiscard]] double steal_pct(const CpuTimes& before, const CpuTimes& after);

/// Keeps every vCPU of the host busy with SCHED_IDLE spin threads, one
/// pinned to each, for its lifetime. A runnable program thread preempts a spinner at once,
/// but the vCPU never halts, so waking a program thread does not wait
/// for the hypervisor to reschedule an idle vCPU — the wake-up cost that
/// otherwise shows as host CPU steal and swings closed-loop latency
/// between runs.
class IdleSpinners {
public:
    IdleSpinners();
    ~IdleSpinners();
    IdleSpinners(const IdleSpinners&) = delete;
    IdleSpinners& operator=(const IdleSpinners&) = delete;

private:
    void spawn(int cpu);
    void stop();

    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
};

/// Peak resident set of this process (VmHWM), MiB.
[[nodiscard]] double peak_rss_mb();

inline constexpr int kEvalSamples = 500;   ///< Algorithm 1 eval set
inline constexpr int kCalibSamples = 64;   ///< calibration batch

/// What every workload loads first: the synthetic dataset (ModelCache
/// construction synthesizes it), the eval set and calibration batch,
/// the paper's MAC circuit with its STA compression selector, and the
/// ΔVth aging model.
struct Fixture {
    Fixture(const std::string& model_dir, Tracer& tracer);

    std::unique_ptr<nn::ModelCache> cache;
    tensor::Tensor eval_images;
    std::vector<int> eval_labels;
    tensor::Tensor calib_images;
    std::vector<int> calib_labels;
    netlist::Netlist mac;
    std::unique_ptr<core::CompressionSelector> selector;
    aging::AgingModel aging;
};

/// One trained network, exported to IR and calibrated.
struct LoadedModel {
    LoadedModel(Fixture& fixture, const std::string& name, Tracer& tracer);

    std::string name;
    ir::Graph graph;
    quant::CalibrationData calib;
};

/// Directory of the trained models ($RAQ_MODEL_CACHE, set by run.py).
[[nodiscard]] std::string model_dir();

/// Print the result as the last stdout line: one JSON object with
/// `correct`, `attempted`, `failed` and `metrics`.
void print_result(const Report& report);

/// One row of the per-level exec table a traced run writes: host µs of
/// one dependency level (QuantRunner::set_level_hook) joined with the
/// level's MACs and its modelled systolic cycles (npu::op_cycle_costs)
/// at the serving clock.
struct LevelRow {
    std::string graph;
    int level = 0;
    int ops = 0;
    int batch = 1;
    double host_us = 0.0;       ///< mean per run
    std::uint64_t macs = 0;     ///< per run (all images of the batch)
    std::uint64_t cycles = 0;   ///< per run
    double clock_ps = 0.0;
};

/// Profile `qgraph` level by level over `reps` runs of `batch`.
[[nodiscard]] std::vector<LevelRow> profile_levels(const std::string& label,
                                                   const quant::QuantizedGraph& qgraph,
                                                   tensor::TensorView batch, int reps,
                                                   double clock_ps);
void write_level_table(const std::string& path, const std::vector<LevelRow>& rows);

/// A seeded permutation of [0, n).
[[nodiscard]] std::vector<std::uint32_t> permutation(std::uint32_t n, std::uint64_t seed);

}  // namespace raq::perfbench
