// Calibration: per-tensor statistics gathered from an FP32 run over a
// calibration batch. ACIQ consumes the Laplace dispersion (mean absolute
// deviation), min/max methods consume the range, LAPQ additionally uses
// the labeled calibration batch to evaluate task loss. The FP32 run is the
// planned engine (src/exec/) with a per-tensor visit, so every PTQ method
// reads statistics of the same float values the engine computes.
#pragma once

#include <vector>

#include "ir/graph.hpp"
#include "tensor/tensor.hpp"

namespace raq::quant {

struct TensorStats {
    float min = 0.0f;
    float max = 0.0f;
    float mean = 0.0f;
    float abs_dev = 0.0f;  ///< mean |x − mean| (Laplace dispersion b)
    float stddev = 0.0f;
};

struct CalibrationData {
    std::vector<TensorStats> per_tensor;  ///< indexed by IR tensor id
    tensor::Tensor images;                ///< the calibration batch
    std::vector<int> labels;              ///< labels for loss-aware methods
};

/// Run FP32 inference on `images` and collect statistics for every tensor
/// (streamed off the planned engine's tensor visit; the calibration batch
/// itself is copied into the result for loss-aware methods).
[[nodiscard]] CalibrationData calibrate(const ir::Graph& graph, tensor::TensorView images,
                                        std::vector<int> labels);

/// Statistics over an arbitrary float span (exposed for weight stats).
[[nodiscard]] TensorStats compute_stats(const float* data, std::size_t n);

/// Calibration for a partition shard: remap the per-tensor statistics
/// through `full_tensor_of` (sub-graph tensor id -> full-graph tensor
/// id, as produced by ir::extract_subgraph). The calibration images and
/// labels are whole-model inputs and are deliberately NOT carried over:
/// the per-layer methods (M1/M2/M4/M5) never read them, and the
/// loss-aware paths (M3/LAPQ, full Algorithm 1) need end-to-end
/// execution and are not supported on a shard in isolation. Because the
/// remap is a pure view of the whole-model statistics, an online re-cut
/// re-slices from the same full CalibrationData onto the new shard
/// tensors and quantization stays bit-identical across the swap.
[[nodiscard]] CalibrationData slice_calibration(const CalibrationData& full,
                                                const std::vector<int>& full_tensor_of);

}  // namespace raq::quant
