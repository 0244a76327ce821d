// RequantJob: the paper's Algorithm 1 packaged as a reusable build job
// that turns one aging level into a versioned ModelState.
//
// Extracted out of AgingAwareQuantizer so the same code path serves both
// the offline experiments (AgingAwareQuantizer::run keeps its reporting
// shape and delegates the method search here) and the serving runtime,
// which runs builds repeatedly — inline at a batch boundary or on a
// background RequantService thread. Unlike the one-shot quantizer entry
// point, a job amortizes everything that does not change between builds:
// the calibration statistics are taken as-is (not recomputed per build)
// and the FP32 reference accuracy for the loss threshold is evaluated
// once at construction.
//
// build() is const and keeps no mutable state, so one job can run
// concurrently from several service workers (for different devices
// sharing a context). Plan compilation inside the method search hits the
// exec::PlanCache, so repeated builds over one topology recompile zero
// ExecPlans. The search scores only as many eval images as it needs to
// know the winner (search_methods below).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/compression_selector.hpp"
#include "core/model_state.hpp"
#include "quant/calibration.hpp"

namespace raq::core {

/// One PTQ method inside the Algorithm 1 search.
struct MethodOutcome {
    quant::Method method;
    double accuracy = 0.0;       ///< correct / N, on the whole eval set
    double accuracy_loss = 0.0;  ///< vs. FP32, in percentage points
};

struct MethodSearchResult {
    quant::Method selected = quant::Method::M5_AciqNoBias;
    double accuracy = 0.0;  ///< of the selected method
    /// The selected method's graph, exactly as the search built and scored it.
    std::shared_ptr<const quant::QuantizedGraph> qgraph;
    /// Report mode only (empty in race mode, which leaves methods
    /// unfinished): the methods the natural-order loop scores, in library
    /// order, 0 through the winner when it meets the threshold, else all
    /// five.
    std::vector<MethodOutcome> all_methods;
    int images_scored = 0;  ///< eval images scored, summed over the methods
};

/// A method's standing in the race: correct of `scored` eval images.
struct RaceTally {
    int correct = 0;
    int scored = 0;
};

/// Eval images per race step: the batch quant::EvalOptions defaults to.
inline constexpr int kRaceBatch = 100;

/// Scores `count` eval images of `method` from image `start` and returns
/// how many it classified correctly.
using RaceScoreFn = std::function<int(std::size_t method, int start, int count)>;

/// The exact best-first race over `tallies` (one per method, library
/// order, all zero on entry) on `n` eval images.
///
/// Final counts rank as the natural-order loop ranks them: a count of
/// at least `pass` (the smallest count whose loss meets the threshold;
/// n + 1 without one) outranks every count below it, and among those
/// the lowest index wins; below `pass` the higher count wins, the lower
/// index on a tie. Each step takes the method whose upper bound
/// correct + n − scored ranks highest. If it has scored all n images it
/// is the winner; else `score(method, start, count)` scores its next
/// contiguous batch [start, start + count) of kRaceBatch images (the
/// last may be short) and returns how many it got right. Returns the
/// winner's index.
///
/// Exact: a count never ranks lower as it grows, and no rival's final
/// count can exceed its bound, so the finished leader ranks above every
/// rival's final count, which makes it the natural-order loop's choice.
[[nodiscard]] std::size_t run_method_race(std::vector<RaceTally>& tallies, int n, int pass,
                                          const RaceScoreFn& score);

/// Algorithm 1 lines 6-10: quantize the graph with the PTQ methods and
/// keep the most accurate one, or with a threshold the first whose loss
/// vs. `fp32_accuracy` meets it. The choice, its accuracy and its graph
/// are those of scoring every method in library order on the whole eval
/// set, but the search scores only what the race (run_method_race)
/// needs: a method is quantized when first picked, and one QuantRunner
/// at batch capacity min(kRaceBatch, N) is rebound at every switch
/// between methods. In report mode (`report_all`) the search then
/// finishes the methods the natural-order loop scores and reports each
/// in `all_methods`; the serving build does not, and gets it empty.
[[nodiscard]] MethodSearchResult search_methods(
    const ir::Graph& graph, const quant::QuantConfig& config,
    const quant::CalibrationData& calib, tensor::TensorView eval_images,
    const std::vector<int>& eval_labels, double fp32_accuracy,
    std::optional<double> accuracy_loss_threshold, bool report_all);

struct RequantJobConfig {
    /// Full Algorithm 1 (the PTQ method search, needs the eval set) vs.
    /// the fast path (compression selection + M5 ACIQ).
    bool full_algorithm1 = false;
    std::optional<double> accuracy_loss_threshold;  ///< Algorithm 1 line 9
    /// Timing-constraint relaxation: compressions must meet
    /// fresh_cp × (1 + guardband_fraction). 0 is the paper's
    /// zero-guardband operating point.
    double guardband_fraction = 0.0;
};

class RequantJob {
public:
    /// All pointed-to inputs must outlive the job. The eval set is
    /// required (and the FP32 reference accuracy computed) only for full
    /// Algorithm 1; constructing a full-Algorithm-1 job without one
    /// throws — there is no silent fast-path fallback.
    RequantJob(const ir::Graph& graph, const quant::CalibrationData& calib,
               const CompressionSelector& selector, const RequantJobConfig& config,
               const tensor::Tensor* eval_images = nullptr,
               const std::vector<int>* eval_labels = nullptr);

    /// Build the artifact for one aging level, stamping `generation`.
    /// Returns nullopt when even full compression cannot meet timing.
    /// Full Algorithm 1 runs search_methods in race mode and deploys the
    /// search's own winning graph (the one it scored) rather than
    /// quantizing that method a second time; the state records the
    /// winner's eval accuracy and the eval images the search scored.
    [[nodiscard]] std::optional<ModelState> build(double dvth_mv,
                                                  std::uint64_t generation) const;

    [[nodiscard]] const RequantJobConfig& config() const { return config_; }
    /// FP32 reference accuracy on the eval set (0 on the fast path).
    [[nodiscard]] double fp32_accuracy() const { return fp32_accuracy_; }

private:
    const ir::Graph* graph_;
    const quant::CalibrationData* calib_;
    const CompressionSelector* selector_;
    RequantJobConfig config_;
    const tensor::Tensor* eval_images_;
    const std::vector<int>* eval_labels_;
    double fp32_accuracy_ = 0.0;
};

}  // namespace raq::core
