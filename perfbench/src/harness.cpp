#include "harness.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>

#include "cell/library.hpp"
#include "netlist/builders.hpp"
#include "npu/systolic.hpp"
#include "quant/quant_executor.hpp"

namespace raq::perfbench {

std::vector<std::string> benchmark_networks() {
    return {"alexnet-mini", "resnet50-mini", "squeezenet1.1-mini"};
}

void Report::mismatch(const std::string& what) {
    ++mismatch_count;
    if (mismatches.size() < 8) mismatches.push_back(what);
}

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

int Tracer::open(const char* name, int parent, std::uint64_t request) {
    if (!enabled_) return -1;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, now_ns(), 0, parent, request});
    return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id) {
    if (id < 0) return;
    const std::int64_t end = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = end;
}

void Tracer::merge(const std::vector<Span>& spans) {
    if (!enabled_) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    const int offset = static_cast<int>(spans_.size());
    for (Span span : spans) {
        if (span.parent >= 0) span.parent += offset;
        spans_.push_back(span);
    }
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span& span : spans_)
        if (name == span.name) out.push_back(1e-3 * static_cast<double>(span.end_ns - span.start_ns));
    return out;
}

double Tracer::total_ms(const std::string& name) const {
    double sum = 0.0;
    for (const double us : durations_us(name)) sum += us;
    return 1e-3 * sum;
}

void Tracer::write(const std::string& path) const {
    std::ofstream out(path);
    out << "id\tparent\tname\trequest\tstart_ns\tend_ns\n";
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << i << '\t' << s.parent << '\t' << s.name << '\t' << s.request << '\t'
            << s.start_ns << '\t' << s.end_ns << '\n';
    }
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

CpuTimes CpuTimes::now() {
    CpuTimes t;
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    if (cpu != "cpu") return t;
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user/nice).
    for (int field = 0; field < 8; ++field) {
        std::uint64_t v = 0;
        if (!(stat >> v)) break;
        t.total += v;
        if (field == 7) t.steal = v;
    }
    return t;
}

double steal_pct(const CpuTimes& before, const CpuTimes& after) {
    const double total = static_cast<double>(after.total - before.total);
    return total > 0.0 ? 100.0 * static_cast<double>(after.steal - before.steal) / total
                       : 0.0;
}

IdleSpinners::IdleSpinners() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    try {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &allowed)) spawn(cpu);
    } catch (...) {
        stop();
        throw;
    }
}

void IdleSpinners::spawn(int cpu) {
    threads_.emplace_back([this, cpu] {
        sched_param param{};
        param.sched_priority = 0;
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
        // No PAUSE in the loop: KVM treats a PAUSE loop as lock
        // spinning and yields the vCPU to other guests.
        while (!stop_.load(std::memory_order_relaxed)) {
        }
    });
}

IdleSpinners::~IdleSpinners() { stop(); }

void IdleSpinners::stop() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
    return 0.0;
}

std::string model_dir() {
    const char* dir = std::getenv("RAQ_MODEL_CACHE");
    return dir ? dir : ".bench_build/models";
}

Fixture::Fixture(const std::string& dir, Tracer& tracer) {
    {
        const ScopedSpan span(tracer, "data.synth");
        cache = std::make_unique<nn::ModelCache>(dir);
        const data::SyntheticDataset& ds = cache->dataset();
        eval_images = ds.test_batch(0, kEvalSamples);
        eval_labels.assign(ds.test_labels().begin(), ds.test_labels().begin() + kEvalSamples);
        calib_images = ds.train_batch(0, kCalibSamples);
        calib_labels.assign(ds.train_labels().begin(),
                            ds.train_labels().begin() + kCalibSamples);
    }
    const ScopedSpan span(tracer, "core.selector");
    mac = netlist::build_mac_circuit();
    selector = std::make_unique<core::CompressionSelector>(mac, cell::Library::finfet14());
}

LoadedModel::LoadedModel(Fixture& fixture, const std::string& model_name, Tracer& tracer)
    : name(model_name) {
    {
        const ScopedSpan span(tracer, "nn.load");
        graph = fixture.cache->get(name).export_ir();
    }
    const ScopedSpan span(tracer, "quant.calibrate");
    calib = quant::calibrate(graph, fixture.calib_images, fixture.calib_labels);
}

std::vector<std::uint32_t> permutation(std::uint32_t n, std::uint64_t seed) {
    std::vector<std::uint32_t> order(n);
    for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
    std::mt19937_64 rng(seed);
    for (std::uint32_t i = n; i > 1; --i) {
        const std::uint32_t j = static_cast<std::uint32_t>(rng() % i);
        std::swap(order[i - 1], order[j]);
    }
    return order;
}

namespace {

void put_json_string(std::string& out, const std::string& s) {
    out += '"';
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    out += '"';
}

}  // namespace

void print_result(const Report& report) {
    std::string out = "{\"correct\": ";
    out += report.correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(report.attempted);
    out += ", \"failed\": " + std::to_string(report.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric& m = report.metrics[i];
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
        if (i) out += ", ";
        put_json_string(out, m.name);
        out += ": {\"value\": ";
        out += value;
        out += ", \"unit\": ";
        put_json_string(out, m.unit);
        out += '}';
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

std::vector<LevelRow> profile_levels(const std::string& label,
                                     const quant::QuantizedGraph& qgraph,
                                     tensor::TensorView batch, int reps, double clock_ps) {
    quant::QuantRunner runner(qgraph, batch.shape.n);
    const exec::ExecPlan& plan = runner.plan();
    const ir::Graph& graph = plan.graph();
    const std::vector<std::uint64_t> op_cycles = npu::op_cycle_costs(graph);

    std::vector<LevelRow> rows;
    for (const exec::OpStep& step : plan.schedule()) {
        if (static_cast<std::size_t>(step.level) >= rows.size())
            rows.resize(static_cast<std::size_t>(step.level) + 1);
        LevelRow& row = rows[static_cast<std::size_t>(step.level)];
        const ir::Op& op = graph.ops()[static_cast<std::size_t>(step.op_index)];
        ++row.ops;
        if (const exec::ConvGeom* geom = plan.conv_geom(step.op_index))
            row.macs += geom->kdim * geom->hw * static_cast<std::uint64_t>(op.conv.out_c) *
                        static_cast<std::uint64_t>(batch.shape.n);
        row.cycles += op_cycles[static_cast<std::size_t>(step.op_index)] *
                      static_cast<std::uint64_t>(batch.shape.n);
    }
    for (std::size_t level = 0; level < rows.size(); ++level) {
        rows[level].graph = label;
        rows[level].level = static_cast<int>(level);
        rows[level].batch = batch.shape.n;
        rows[level].clock_ps = clock_ps;
    }
    runner.set_level_hook([&rows](int level, double host_us) {
        if (level >= 0 && static_cast<std::size_t>(level) < rows.size())
            rows[static_cast<std::size_t>(level)].host_us += host_us;
    });
    for (int r = 0; r < reps; ++r) (void)runner.run(batch);
    for (LevelRow& row : rows) row.host_us /= std::max(1, reps);
    return rows;
}

void write_level_table(const std::string& path, const std::vector<LevelRow>& rows) {
    std::ofstream out(path);
    out << "graph\tlevel\tops\tbatch\thost_us\tmacs\tgmac_per_s\tcycles\tclock_ps\tmodel_us\n";
    for (const LevelRow& r : rows) {
        const double gmacs =
            r.host_us > 0.0 ? static_cast<double>(r.macs) / (r.host_us * 1e3) : 0.0;
        const double model_us = static_cast<double>(r.cycles) * r.clock_ps * 1e-6;
        out << r.graph << '\t' << r.level << '\t' << r.ops << '\t' << r.batch << '\t'
            << r.host_us << '\t' << r.macs << '\t' << gmacs << '\t' << r.cycles << '\t'
            << r.clock_ps << '\t' << model_us << '\n';
    }
}

}  // namespace raq::perfbench
