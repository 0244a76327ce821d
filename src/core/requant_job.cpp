#include "core/requant_job.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "ir/float_executor.hpp"
#include "quant/evaluate.hpp"
#include "quant/methods.hpp"

namespace raq::core {

MethodSearchResult search_methods(const ir::Graph& graph, const quant::QuantConfig& config,
                                  const quant::CalibrationData& calib,
                                  tensor::TensorView eval_images,
                                  const std::vector<int>& eval_labels, double fp32_accuracy,
                                  std::optional<double> accuracy_loss_threshold) {
    MethodSearchResult result;
    bool have_best = false;
    // Every candidate method runs through one shared execution plan —
    // only the quantization payload is rebound, so the schedule, arena
    // and conv workspaces are compiled once (and, via the PlanCache,
    // shared with every other search over this topology). LAPQ's
    // calibration probes run on the same runner, so a search holds one
    // plan workspace, not two. The runner pins each bound graph itself
    // (owning rebind).
    std::unique_ptr<quant::QuantRunner> runner;
    const quant::EvalOptions eval_options;
    for (const quant::Method method : quant::all_methods()) {
        auto qgraph = std::make_shared<const quant::QuantizedGraph>(
            quant::quantize_graph(graph, method, config, calib, runner.get()));
        if (!runner)
            runner = std::make_unique<quant::QuantRunner>(
                qgraph, std::min(eval_options.batch_size, eval_images.shape.n));
        else
            runner->rebind(qgraph);
        const double acc =
            quant::quantized_accuracy(*runner, eval_images, eval_labels, eval_options);
        MethodOutcome outcome;
        outcome.method = method;
        outcome.accuracy = acc;
        outcome.accuracy_loss = 100.0 * (fp32_accuracy - acc);
        result.all_methods.push_back(outcome);
        // Algorithm 1 line 9: stop at the first method meeting the
        // user-provided accuracy-loss threshold.
        const bool meets_threshold =
            accuracy_loss_threshold && outcome.accuracy_loss <= *accuracy_loss_threshold;
        if (!have_best || acc > result.accuracy || meets_threshold) {
            result.accuracy = acc;
            result.selected = method;
            result.qgraph = std::move(qgraph);
            have_best = true;
        }
        if (meets_threshold) break;
    }
    return result;
}

RequantJob::RequantJob(const ir::Graph& graph, const quant::CalibrationData& calib,
                       const CompressionSelector& selector, const RequantJobConfig& config,
                       const tensor::Tensor* eval_images,
                       const std::vector<int>* eval_labels)
    : graph_(&graph),
      calib_(&calib),
      selector_(&selector),
      config_(config),
      eval_images_(eval_images),
      eval_labels_(eval_labels) {
    if (config_.full_algorithm1) {
        if (!eval_images_ || !eval_labels_)
            throw std::invalid_argument(
                "RequantJob: full Algorithm 1 requires an eval set (eval_images + "
                "eval_labels); it does not fall back to the fast path");
        if (eval_images_->shape().n < 1 ||
            eval_labels_->size() < static_cast<std::size_t>(eval_images_->shape().n))
            throw std::invalid_argument(
                "RequantJob: eval set is empty or has fewer labels than images");
        fp32_accuracy_ = ir::float_accuracy(*graph_, *eval_images_, *eval_labels_);
    }
}

std::optional<ModelState> RequantJob::build(double dvth_mv,
                                            std::uint64_t generation) const {
    const auto choice = selector_->select(dvth_mv, config_.guardband_fraction);
    // Even full compression cannot meet timing: the caller keeps its
    // current deployment rather than serve a clock-violating graph.
    if (!choice) return std::nullopt;

    const auto qconfig = quant::QuantConfig::from_compression(choice->compression);
    ModelState state;
    if (config_.full_algorithm1) {
        MethodSearchResult search =
            search_methods(*graph_, qconfig, *calib_, *eval_images_, *eval_labels_,
                           fp32_accuracy_, config_.accuracy_loss_threshold);
        state.method = search.selected;
        state.qgraph = std::move(search.qgraph);
    } else {
        state.method = quant::Method::M5_AciqNoBias;
        state.qgraph = std::make_shared<const quant::QuantizedGraph>(
            quant::quantize_graph(*graph_, state.method, qconfig, *calib_));
    }
    state.generation = generation;
    state.compression = choice->compression;
    state.dvth_mv = dvth_mv;
    state.aged_delay_ps = choice->delay_ps;
    return state;
}

}  // namespace raq::core
