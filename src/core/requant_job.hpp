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
// ExecPlans.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/compression_selector.hpp"
#include "core/model_state.hpp"
#include "quant/calibration.hpp"

namespace raq::core {

/// One PTQ method's evaluation inside the Algorithm 1 search.
struct MethodOutcome {
    quant::Method method;
    double accuracy = 0.0;
    double accuracy_loss = 0.0;  ///< vs. FP32, in percentage points
};

struct MethodSearchResult {
    quant::Method selected = quant::Method::M5_AciqNoBias;
    double accuracy = 0.0;  ///< of the selected method
    /// The selected method's graph, exactly as the search built and scored it.
    std::shared_ptr<const quant::QuantizedGraph> qgraph;
    std::vector<MethodOutcome> all_methods;  ///< every evaluated method
};

/// Algorithm 1 lines 6-10: quantize the graph with every method in the
/// PTQ library and keep the best — or, with a threshold, stop at the
/// first method whose loss vs. `fp32_accuracy` satisfies it.
[[nodiscard]] MethodSearchResult search_methods(
    const ir::Graph& graph, const quant::QuantConfig& config,
    const quant::CalibrationData& calib, tensor::TensorView eval_images,
    const std::vector<int>& eval_labels, double fp32_accuracy,
    std::optional<double> accuracy_loss_threshold);

struct RequantJobConfig {
    /// Full Algorithm 1 (all PTQ methods, needs the eval set) vs. the
    /// fast path (compression selection + M5 ACIQ).
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
    /// Full Algorithm 1 deploys the search's own winning graph (the one it
    /// scored) rather than quantizing that method a second time.
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
