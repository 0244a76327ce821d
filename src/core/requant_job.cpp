#include "core/requant_job.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "ir/float_executor.hpp"
#include "quant/methods.hpp"
#include "quant/quant_executor.hpp"

namespace raq::core {

namespace {

double accuracy_of(int correct, int n) {
    // As quant::quantized_accuracy computes it, bit for bit.
    return static_cast<double>(correct) / static_cast<double>(n);
}

double loss_of(double fp32_accuracy, double accuracy) {
    return 100.0 * (fp32_accuracy - accuracy);
}

/// The smallest correct count out of `n` whose loss meets the threshold
/// (Algorithm 1 line 9); n + 1 without a threshold or when none does.
/// Division, subtraction and scaling are each monotone, so the loss
/// never grows with the count: a count meets the threshold exactly when
/// it is at least this one.
int threshold_count(int n, double fp32_accuracy, std::optional<double> threshold) {
    if (threshold)
        for (int count = 0; count <= n; ++count)
            if (loss_of(fp32_accuracy, accuracy_of(count, n)) <= *threshold) return count;
    return n + 1;
}

/// The natural-order loop's ranking of final counts (run_method_race).
bool ranks_above(int count_a, std::size_t a, int count_b, std::size_t b, int pass) {
    const bool pass_a = count_a >= pass, pass_b = count_b >= pass;
    if (pass_a != pass_b) return pass_a;
    if (!pass_a && count_a != count_b) return count_a > count_b;
    return a < b;
}

/// Scores method i's next batch of kRaceBatch images (the last may be short).
void score_next(std::vector<RaceTally>& tallies, std::size_t i, int n, const RaceScoreFn& score) {
    RaceTally& t = tallies[i];
    const int count = std::min(kRaceBatch, n - t.scored);
    t.correct += score(i, t.scored, count);
    t.scored += count;
}

}  // namespace

std::size_t run_method_race(std::vector<RaceTally>& tallies, int n, int pass,
                            const RaceScoreFn& score) {
    const auto bound = [&](std::size_t i) { return tallies[i].correct + n - tallies[i].scored; };
    for (;;) {
        std::size_t lead = 0;
        for (std::size_t i = 1; i < tallies.size(); ++i)
            if (ranks_above(bound(i), i, bound(lead), lead, pass)) lead = i;
        if (tallies[lead].scored >= n) return lead;
        score_next(tallies, lead, n, score);
    }
}

MethodSearchResult search_methods(const ir::Graph& graph, const quant::QuantConfig& config,
                                  const quant::CalibrationData& calib,
                                  tensor::TensorView eval_images,
                                  const std::vector<int>& eval_labels, double fp32_accuracy,
                                  std::optional<double> accuracy_loss_threshold,
                                  bool report_all) {
    const int n = eval_images.shape.n;
    if (n < 1 || static_cast<std::size_t>(n) != eval_labels.size())
        throw std::invalid_argument("search_methods: empty eval set or label count mismatch");
    const std::vector<quant::Method> methods = quant::all_methods();
    std::vector<std::shared_ptr<const quant::QuantizedGraph>> graphs(methods.size());
    // Every method runs through one shared execution plan: only the
    // quantization payload is rebound, so the schedule, arena and conv
    // workspaces are compiled once (and, via the PlanCache, shared with
    // every other search over this topology). LAPQ's calibration probes
    // run on the same runner and leave it bound to the last probe; that
    // is never a method's graph, so the switch rebind covers it. The
    // runner pins each bound graph itself (owning rebind).
    std::unique_ptr<quant::QuantRunner> runner;
    std::size_t bound_to = methods.size();  // the method the runner runs; none yet
    const auto score = [&](std::size_t i, int start, int count) {
        if (!graphs[i])
            graphs[i] = std::make_shared<const quant::QuantizedGraph>(
                quant::quantize_graph(graph, methods[i], config, calib, runner.get()));
        if (!runner)
            runner = std::make_unique<quant::QuantRunner>(graphs[i], std::min(kRaceBatch, n));
        else if (bound_to != i)
            runner->rebind(graphs[i]);
        bound_to = i;
        // Zero-copy slice: the engine reads the samples in place.
        const std::vector<int> preds =
            ir::argmax_classes(runner->run(eval_images.batch_view(start, count)));
        int correct = 0;
        for (int k = 0; k < count; ++k)
            correct += preds[static_cast<std::size_t>(k)] ==
                       eval_labels[static_cast<std::size_t>(start + k)];
        return correct;
    };

    const int pass = threshold_count(n, fp32_accuracy, accuracy_loss_threshold);
    std::vector<RaceTally> tallies(methods.size());
    const std::size_t winner = run_method_race(tallies, n, pass, score);

    MethodSearchResult result;
    if (report_all) {
        // The natural-order loop scores methods 0 through the winner when
        // it meets the threshold (no earlier method does), else all of them.
        const std::size_t last = tallies[winner].correct >= pass ? winner : methods.size() - 1;
        for (std::size_t i = 0; i <= last; ++i) {
            while (tallies[i].scored < n) score_next(tallies, i, n, score);
            MethodOutcome outcome;
            outcome.method = methods[i];
            outcome.accuracy = accuracy_of(tallies[i].correct, n);
            outcome.accuracy_loss = loss_of(fp32_accuracy, outcome.accuracy);
            result.all_methods.push_back(outcome);
        }
    }
    for (const RaceTally& t : tallies) result.images_scored += t.scored;
    result.selected = methods[winner];
    result.accuracy = accuracy_of(tallies[winner].correct, n);
    result.qgraph = std::move(graphs[winner]);
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
                           fp32_accuracy_, config_.accuracy_loss_threshold, false);
        state.method = search.selected;
        state.qgraph = std::move(search.qgraph);
        state.eval_accuracy = search.accuracy;
        state.eval_images_scored = search.images_scored;
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
