// Quantization parameters (scale / zero-point / bit-width) for the
// unsigned integer datapath of the MAC array (paper §5): activations are
// quantized to [0, 2^(8−α)), weights to [0, 2^(8−β)) with a zero-point,
// biases to 16−α−β bits at the accumulator scale.
#pragma once

#include <algorithm>
#include <cstdint>

namespace raq::quant {

struct QuantParams {
    float scale = 1.0f;
    std::int32_t zero_point = 0;  ///< in the unsigned quantized domain
    int bits = 8;

    [[nodiscard]] std::int32_t qmax() const { return (1 << bits) - 1; }

    /// clamp(nearbyint(x / scale) + zero_point, 0, qmax), as
    /// nearbyint(clamp(x / scale, −zero_point, qmax − zero_point)) +
    /// zero_point: with integer bounds, clamping first gives the same
    /// code, and the zero-point is still added after rounding (rounding
    /// x / scale + zero_point instead differs: 0x1.fffffep-2 at
    /// zero-point 7 is 7, not 8). The max comes first and maps a NaN to
    /// the lower bound, so a NaN is code 0 without reaching the int cast
    /// (a NaN cast is undefined). The clamped value lies within 2^22 of 0
    /// (for bits <= 16 and a zero-point in [0, qmax], as every
    /// constructor makes), where (c + 1.5·2^23) − 1.5·2^23 is nearbyint
    /// in the default rounding mode: maxss, minss, addss, subss, with no
    /// libm call and no branch.
    [[nodiscard]] std::int32_t quantize(float x) const {
        const float lo = static_cast<float>(-zero_point);
        const float hi = static_cast<float>(qmax() - zero_point);
        const float c = std::min(std::max(lo, x / scale), hi);
        const float r = (c + 0x1.8p23f) - 0x1.8p23f;
        return static_cast<std::int32_t>(r) + zero_point;
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
