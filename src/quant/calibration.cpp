#include "quant/calibration.hpp"

#include <cmath>
#include <stdexcept>

#include "exec/engine.hpp"

namespace raq::quant {

TensorStats compute_stats(const float* data, std::size_t n) {
    if (n == 0) throw std::invalid_argument("compute_stats: empty span");
    TensorStats s;
    s.min = s.max = data[0];
    double sum = 0.0, sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const float v = data[i];
        s.min = std::min(s.min, v);
        s.max = std::max(s.max, v);
        sum += v;
        sq += static_cast<double>(v) * v;
    }
    s.mean = static_cast<float>(sum / static_cast<double>(n));
    const double var = sq / static_cast<double>(n) - static_cast<double>(s.mean) * s.mean;
    s.stddev = static_cast<float>(std::sqrt(std::max(0.0, var)));
    double dev = 0.0;
    for (std::size_t i = 0; i < n; ++i) dev += std::abs(data[i] - s.mean);
    s.abs_dev = static_cast<float>(dev / static_cast<double>(n));
    return s;
}

CalibrationData calibrate(const ir::Graph& graph, tensor::TensorView images,
                          std::vector<int> labels) {
    if (static_cast<std::size_t>(images.shape.n) != labels.size())
        throw std::invalid_argument("calibrate: label count mismatch");
    CalibrationData out;
    out.images = tensor::Tensor(images.shape,
                                std::vector<float>(images.data, images.data + images.size()));
    out.labels = std::move(labels);
    // Stream the statistics off the planned engine: each tensor is visited
    // once, before its arena region is reused, so the peak is the plan's
    // arena, not every intermediate of the batch at once.
    out.per_tensor.resize(static_cast<std::size_t>(graph.num_tensors()));
    const exec::ExecPlan plan(graph, exec::PlanOptions{images.shape.n});
    exec::FloatBackend backend;
    exec::ExecContext ctx;
    exec::RunOptions options;
    options.visit = [&](int id, tensor::TensorView t) {
        out.per_tensor[static_cast<std::size_t>(id)] = compute_stats(t.data, t.size());
    };
    (void)exec::run(plan, backend, ctx, images, options);
    return out;
}

CalibrationData slice_calibration(const CalibrationData& full,
                                  const std::vector<int>& full_tensor_of) {
    CalibrationData out;
    out.per_tensor.reserve(full_tensor_of.size());
    for (const int full_id : full_tensor_of)
        out.per_tensor.push_back(full.per_tensor.at(static_cast<std::size_t>(full_id)));
    return out;
}

}  // namespace raq::quant
