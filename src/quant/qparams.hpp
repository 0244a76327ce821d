// Quantization parameters (scale / zero-point / bit-width) for the
// unsigned integer datapath of the MAC array (paper §5): activations are
// quantized to [0, 2^(8−α)), weights to [0, 2^(8−β)) with a zero-point,
// biases to 16−α−β bits at the accumulator scale.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace raq::quant {

struct QuantParams {
    float scale = 1.0f;
    std::int32_t zero_point = 0;  ///< in the unsigned quantized domain
    int bits = 8;

    [[nodiscard]] std::int32_t qmax() const { return (1 << bits) - 1; }

    /// clamp(nearbyint(x / scale) + zero_point, 0, qmax). Anything that
    /// does not land above 0, NaN included, is 0 without reaching the int
    /// cast (std::clamp lets a NaN through, and its cast is undefined).
    [[nodiscard]] std::int32_t quantize(float x) const {
        const float q = std::nearbyint(x / scale) + static_cast<float>(zero_point);
        if (!(q > 0.0f)) return 0;
        return static_cast<std::int32_t>(std::min(q, static_cast<float>(qmax())));
    }

    [[nodiscard]] float dequantize(std::int64_t q) const {
        return static_cast<float>(q - zero_point) * scale;
    }

    /// Asymmetric quantization over [lo, hi] (hi > lo required).
    static QuantParams from_range(float lo, float hi, int bits);

    /// Unsigned activation quantization over [0, hi] (zero_point = 0),
    /// matching the paper's [0, 2^(8−α)) activation segment.
    static QuantParams activation_range(float hi, int bits);

    /// Symmetric quantization around zero with the zero-point at mid-range
    /// (uniform symmetric [16] mapped onto the unsigned datapath).
    static QuantParams symmetric(float abs_max, int bits);
};

}  // namespace raq::quant
