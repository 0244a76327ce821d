// The post-training quantization method library of the paper (§5):
//   M1  uniform symmetric quantization        (Krishnamoorthi [16])
//   M2  asymmetric min/max quantization       (Jacob et al. [17])
//   M3  LAPQ: loss-aware clip optimization    (Nahshan et al. [19])
//   M4  ACIQ: analytic Laplace clipping with
//       per-channel weights + bias correction (Banner et al. [18])
//   M5  ACIQ without bias correction
//
// All methods are post-training (no retraining) and support different
// bit-widths for weights and activations, as the paper requires.
#pragma once

#include <string>
#include <vector>

#include "quant/calibration.hpp"
#include "quant/quantized_graph.hpp"

namespace raq::quant {

enum class Method {
    M1_UniformSymmetric,
    M2_MinMaxAsymmetric,
    M3_Lapq,
    M4_Aciq,
    M5_AciqNoBias,
};

[[nodiscard]] const char* method_label(Method m);  // "M1".."M5" (paper's labels)
[[nodiscard]] const char* method_name(Method m);   // human-readable
[[nodiscard]] std::vector<Method> all_methods();

class QuantRunner;

/// Quantize the FP32 graph with the chosen method under the given
/// bit-width configuration. LAPQ (M3) runs its calibration probes on
/// `runner` when given (any runner over this graph's topology; it is left
/// bound to the last probe), so a caller that already holds one pays for
/// no second plan workspace; otherwise it builds its own.
[[nodiscard]] QuantizedGraph quantize_graph(const ir::Graph& graph, Method method,
                                            const QuantConfig& config,
                                            const CalibrationData& calib,
                                            QuantRunner* runner = nullptr);

/// ACIQ's analytic optimal clip for a Laplace(b) distribution quantized
/// with 2^bits levels over [-clip, clip]: minimizes clipping + rounding
/// MSE (exposed for tests).
[[nodiscard]] double aciq_laplace_clip(double b, int bits);

}  // namespace raq::quant
