// Aging-aware quantization — the paper's Algorithm 1 end to end:
//   1. STA sweep with aged libraries -> feasible (α, β, padding) set
//   2. minimum-norm compression selection
//   3. quantize the NN with every method in the PTQ library, pick the
//      first that satisfies the accuracy-loss threshold (or, as in the
//      paper's evaluation, the best over all methods when no threshold
//      is given).
//
// This is the one-shot reporting entry point (it calibrates and
// evaluates FP32 per call). The method search itself lives in
// core::search_methods / core::RequantJob, the reusable build-job form
// the serving runtime re-runs online. The quantizer runs the search in
// report mode: once the race has found the winner, it scores the rest
// of the eval set for every method the natural-order loop scores (all
// five, or M1 through the winner when it meets the threshold),
// so all_methods reports each one's accuracy (Table 1, Fig. 4b).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/compression_selector.hpp"
#include "core/requant_job.hpp"
#include "ir/graph.hpp"
#include "quant/evaluate.hpp"
#include "quant/methods.hpp"

namespace raq::core {

struct AagResult {
    CompressionCandidate compression;
    quant::Method selected_method = quant::Method::M4_Aciq;
    double fp32_accuracy = 0.0;
    double quantized_accuracy = 0.0;
    double accuracy_loss = 0.0;  ///< percentage points vs. FP32
    /// The methods scored in library order, each on the whole eval set.
    std::vector<MethodOutcome> all_methods;
};

struct AagInputs {
    const ir::Graph* graph = nullptr;          ///< trained, BN-folded model
    const tensor::Tensor* test_images = nullptr;
    const std::vector<int>* test_labels = nullptr;
    const tensor::Tensor* calib_images = nullptr;  ///< calibration batch
    const std::vector<int>* calib_labels = nullptr;
    /// Accuracy-loss threshold in percentage points (Algorithm 1 line 9);
    /// unset = evaluate every method and keep the best (paper §7).
    std::optional<double> accuracy_loss_threshold;
};

class AgingAwareQuantizer {
public:
    explicit AgingAwareQuantizer(const CompressionSelector& selector)
        : selector_(&selector) {}

    /// Run Algorithm 1 at one aging level. Throws when no compression can
    /// meet timing (does not occur for the paper's ΔVth range).
    [[nodiscard]] AagResult run(const AagInputs& inputs, double dvth_mv,
                                double guardband_fraction = 0.0) const;

private:
    const CompressionSelector* selector_;
};

}  // namespace raq::core
