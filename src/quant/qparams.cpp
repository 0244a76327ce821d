#include "quant/qparams.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace raq::quant {

QuantParams QuantParams::from_range(float lo, float hi, int bits) {
    if (bits < 1 || bits > 16) throw std::invalid_argument("QuantParams: bits outside [1,16]");
    if (!(hi > lo)) hi = lo + 1e-6f;
    QuantParams p;
    p.bits = bits;
    p.scale = (hi - lo) / static_cast<float>((1 << bits) - 1);
    if (p.scale <= 0) p.scale = 1e-8f;
    p.zero_point = std::clamp(
        static_cast<std::int32_t>(std::nearbyint(-lo / p.scale)), 0, p.qmax());
    return p;
}

QuantParams QuantParams::activation_range(float hi, int bits) {
    if (hi <= 0) hi = 1e-6f;
    QuantParams p;
    p.bits = bits;
    p.scale = hi / static_cast<float>((1 << bits) - 1);
    p.zero_point = 0;
    return p;
}

QuantParams QuantParams::symmetric(float abs_max, int bits) {
    if (abs_max <= 0) abs_max = 1e-6f;
    QuantParams p;
    p.bits = bits;
    // Zero-point sits mid-range so positive and negative weights share the
    // unsigned code space evenly.
    p.zero_point = 1 << (bits - 1);
    p.scale = abs_max / static_cast<float>(p.zero_point);
    return p;
}

}  // namespace raq::quant
