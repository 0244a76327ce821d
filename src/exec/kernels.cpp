#include "exec/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace raq::exec::kernels {

void relu(const float* in, float* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = in[i] > 0 ? in[i] : 0.0f;
}

void maxpool(const float* in, const tensor::Shape& s, int kernel, int stride, float* out,
             int oh, int ow) {
    constexpr float kLow = -std::numeric_limits<float>::infinity();
    const std::size_t planes = static_cast<std::size_t>(s.n) * static_cast<std::size_t>(s.c);
    const std::size_t in_hw = static_cast<std::size_t>(s.h) * static_cast<std::size_t>(s.w);
    const std::size_t out_hw = static_cast<std::size_t>(oh) * static_cast<std::size_t>(ow);
    const auto w = static_cast<std::size_t>(s.w);
    if (kernel == 2 && stride == 2 && 2 * oh <= s.h && 2 * ow <= s.w) {
        // Every window lies inside its plane: the four pixels fold in one
        // pass per output row, in the order of the general path below.
        for (std::size_t p = 0; p < planes; ++p)
            for (int oy = 0; oy < oh; ++oy) {
                const float* r0 = in + p * in_hw + 2 * static_cast<std::size_t>(oy) * w;
                const float* r1 = r0 + w;
                float* o = out + p * out_hw + static_cast<std::size_t>(oy) *
                                                  static_cast<std::size_t>(ow);
                for (int ox = 0; ox < ow; ++ox) {
                    float acc = std::max(kLow, r0[2 * ox]);
                    acc = std::max(acc, r0[2 * ox + 1]);
                    acc = std::max(acc, r1[2 * ox]);
                    o[ox] = std::max(acc, r1[2 * ox + 1]);
                }
            }
        return;
    }
    for (std::size_t p = 0; p < planes; ++p) {
        const float* plane = in + p * in_hw;
        float* dst = out + p * out_hw;
        // Window-bound hoisting: for fixed kx the in-bounds ox are a
        // prefix (ox·stride + kx < w), so the inner loops are
        // branch-free strided max-accumulations over the output row —
        // same elements folded in the same ky-major, kx-minor order
        // per output as the naive window walk, so identical results
        // (including the −inf seed for fully out-of-bounds windows).
        for (int oy = 0; oy < oh; ++oy) {
            float* row_out = dst + static_cast<std::size_t>(oy) * static_cast<std::size_t>(ow);
            for (int ox = 0; ox < ow; ++ox) row_out[ox] = kLow;
            const int ky_hi = std::min(kernel, s.h - oy * stride);
            for (int ky = 0; ky < ky_hi; ++ky) {
                const float* row_in =
                    plane + (static_cast<std::size_t>(oy) * static_cast<std::size_t>(stride) +
                             static_cast<std::size_t>(ky)) *
                                w;
                for (int kx = 0; kx < kernel; ++kx) {
                    const int ox_hi = std::min(ow, kx >= s.w ? 0 : (s.w - 1 - kx) / stride + 1);
                    for (int ox = 0; ox < ox_hi; ++ox)
                        row_out[ox] = std::max(
                            row_out[ox], row_in[static_cast<std::size_t>(ox) *
                                                    static_cast<std::size_t>(stride) +
                                                static_cast<std::size_t>(kx)]);
                }
            }
        }
    }
}

void global_avg_pool(const float* in, const tensor::Shape& s, float* out) {
    const std::size_t planes = static_cast<std::size_t>(s.n) * static_cast<std::size_t>(s.c);
    const std::size_t hw = static_cast<std::size_t>(s.h) * static_cast<std::size_t>(s.w);
    const float inv = 1.0f / static_cast<float>(s.h * s.w);
    for (std::size_t p = 0; p < planes; ++p) {
        const float* plane = in + p * hw;
        float acc = 0;
        // Same y-major accumulation order as the FP32 oracle.
        for (std::size_t i = 0; i < hw; ++i) acc += plane[i];
        out[p] = acc * inv;
    }
}

void add(const float* a, const float* b, float* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void concat(const std::vector<ConcatInput>& ins, const tensor::Shape& out_shape, float* out) {
    // Channel-major: input i's channels are one block of the output.
    const std::size_t channel_block = static_cast<std::size_t>(out_shape.n) *
                                      static_cast<std::size_t>(out_shape.h) *
                                      static_cast<std::size_t>(out_shape.w);
    for (const ConcatInput& in : ins) {
        const std::size_t block = static_cast<std::size_t>(in.channels) * channel_block;
        std::memcpy(out, in.data, block * sizeof(float));
        out += block;
    }
}

void transpose_planes(const float* in, int rows, int cols, std::size_t plane, float* out) {
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c) {
            const float* src =
                in + (static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
                      static_cast<std::size_t>(c)) *
                         plane;
            float* dst = out + (static_cast<std::size_t>(c) * static_cast<std::size_t>(rows) +
                                static_cast<std::size_t>(r)) *
                                   plane;
            std::memcpy(dst, src, plane * sizeof(float));
        }
}

namespace {

/// dst row q = src row 2q, for `rows` rows of `row` elements, one Word at
/// a time: the rows of the ≤ 16-wide planes are a word or two, too short
/// for a memcpy call each.
template <typename Word, typename T>
void alternate_rows(const T* src, std::size_t rows, std::size_t row, T* dst) {
    const std::size_t bytes = row * sizeof(T);
    const auto* s = reinterpret_cast<const unsigned char*>(src);
    auto* d = reinterpret_cast<unsigned char*>(dst);
    for (std::size_t q = 0; q < rows; ++q, s += 2 * bytes, d += bytes)
        for (std::size_t i = 0; i < bytes; i += sizeof(Word)) {
            Word v;
            std::memcpy(&v, s + i, sizeof(Word));
            std::memcpy(d + i, &v, sizeof(Word));
        }
}

/// dst[i] = src[i] where mask[i] is 0xFF, else 0: a bitwise AND, on
/// floats with the mask byte sign-extended to 32 bits, so a masked float
/// slot is +0.0 whatever the source holds (−0.0, NaN, ±inf), exactly as
/// a zero fill would leave it.
void masked_copy(std::uint8_t* dst, const std::uint8_t* src, const std::uint8_t* mask,
                 std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] & mask[i];
}
void masked_copy(float* dst, const float* src, const std::uint8_t* mask, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t bits;
        std::memcpy(&bits, src + i, sizeof bits);
        bits &= static_cast<std::uint32_t>(static_cast<std::int8_t>(mask[i]));
        std::memcpy(dst + i, &bits, sizeof bits);
    }
}

/// One tap's column row over a block of `len` slots (whole output
/// planes): row[j] = block[j + tap.shift], masked by mask[j % mask_len].
/// Slots whose source lies outside the block are out of window, so they
/// are zeroed without a read; a shift of at least `len` zeroes the row.
template <typename T>
void tap_row(const T* block, T* row, std::size_t len, const ConvTap& tap,
             const std::uint8_t* mask, std::size_t mask_len) {
    const std::ptrdiff_t d = tap.shift;
    const auto slen = static_cast<std::ptrdiff_t>(len);
    if (tap.full) {  // shift 0, every slot in bounds
        std::memcpy(row, block, len * sizeof(T));
        return;
    }
    if (!tap.valid || d >= slen || -d >= slen) {
        std::fill(row, row + len, T{0});
        return;
    }
    const std::size_t lo = d < 0 ? static_cast<std::size_t>(-d) : 0;
    const std::size_t hi = d > 0 ? len - static_cast<std::size_t>(d) : len;
    std::fill(row, row + lo, T{0});
    std::fill(row + hi, row + len, T{0});
    for (std::size_t base = lo - lo % mask_len; base < hi; base += mask_len) {
        const std::size_t b = std::max(base, lo);
        const std::size_t e = std::min(base + mask_len, hi);
        masked_copy(row + b, block + (static_cast<std::ptrdiff_t>(b) + d), mask + (b - base),
                    e - b);
    }
}

/// First output index o whose input index o·stride − pad + k is at least
/// `edge`, clamped to [0, out]: ceil((edge + pad − k) / stride).
int first_at_or_past(int edge, int pad, int k, int stride, int out) {
    const int num = edge + pad - k;
    return std::min(out, num > 0 ? (num + stride - 1) / stride : 0);
}

/// Gather path: per tap, the in-bounds outputs of every (channel, sample)
/// plane form one rectangle [oy_lo, oy_hi) × [ox_lo, ox_hi), so the
/// bounds and offsets are computed once per tap and the inner loops only
/// advance pointers. Slots outside the rectangle are zeroed first when
/// the conv pads (g.zero_columns); without padding there are none.
template <typename T>
void gather_columns(const T* in, const tensor::Shape& s, const ir::ConvAttrs& conv,
                    const ConvGeom& g, T* columns) {
    const int kh = conv.kh, kw = conv.kw, stride = conv.stride, pad = conv.pad;
    const int oh = g.oh, ow = g.ow;
    const std::size_t taps = static_cast<std::size_t>(kh) * static_cast<std::size_t>(kw);
    const std::size_t in_plane = static_cast<std::size_t>(s.h) * static_cast<std::size_t>(s.w);
    const std::size_t channel_step = static_cast<std::size_t>(s.n) * in_plane;
    const std::size_t cols = static_cast<std::size_t>(s.n) * g.hw;
    if (g.zero_columns)
        std::memset(columns, 0, static_cast<std::size_t>(s.c) * taps * cols * sizeof(T));
    const auto src_step = static_cast<std::size_t>(stride);
    const std::size_t src_row_step = src_step * static_cast<std::size_t>(s.w);
    std::size_t tap = 0;  // ky·kw + kx
    for (int ky = 0; ky < kh; ++ky)
        for (int kx = 0; kx < kw; ++kx, ++tap) {
            const int oy_lo = first_at_or_past(0, pad, ky, stride, oh);
            const int oy_hi = std::max(oy_lo, first_at_or_past(s.h, pad, ky, stride, oh));
            const int ox_lo = first_at_or_past(0, pad, kx, stride, ow);
            const int ox_hi = std::max(ox_lo, first_at_or_past(s.w, pad, kx, stride, ow));
            if (oy_lo == oy_hi || ox_lo == ox_hi) continue;
            const auto run = static_cast<std::size_t>(ox_hi - ox_lo);
            const std::size_t dst_offset =
                static_cast<std::size_t>(oy_lo) * static_cast<std::size_t>(ow) +
                static_cast<std::size_t>(ox_lo);
            const std::size_t src_offset =
                static_cast<std::size_t>(oy_lo * stride - pad + ky) *
                    static_cast<std::size_t>(s.w) +
                static_cast<std::size_t>(ox_lo * stride - pad + kx);
            for (int c = 0; c < s.c; ++c) {
                T* dst = columns + (static_cast<std::size_t>(c) * taps + tap) * cols +
                         dst_offset;
                const T* src = in + static_cast<std::size_t>(c) * channel_step + src_offset;
                for (int n = 0; n < s.n; ++n, dst += g.hw, src += in_plane) {
                    T* d = dst;
                    const T* r = src;
                    for (int oy = oy_lo; oy < oy_hi; ++oy, d += ow, r += src_row_step)
                        for (std::size_t i = 0; i < run; ++i) d[i] = r[i * src_step];
                }
            }
        }
}

template <typename T>
const T* im2col_impl(const T* in, const tensor::Shape& s, const ir::ConvAttrs& conv,
                     const ConvGeom& g, T* columns, T* phases) {
    const std::size_t len = static_cast<std::size_t>(s.n) * g.hw;  // one row: N·oh·ow
    const std::size_t in_block =
        static_cast<std::size_t>(s.n) * static_cast<std::size_t>(s.h) *
        static_cast<std::size_t>(s.w);
    const std::size_t taps = g.taps.size();
    switch (g.path) {
        case Im2colPath::Direct:
            return in;
        case Im2colPath::Gather:
            gather_columns(in, s, conv, g, columns);
            return columns;
        case Im2colPath::Shift:
            for (int c = 0; c < s.c; ++c) {
                const T* block = in + static_cast<std::size_t>(c) * in_block;
                T* row = columns + static_cast<std::size_t>(c) * taps * len;
                for (std::size_t t = 0; t < taps; ++t, row += len)
                    tap_row(block, row, len, g.taps[t], g.mask.data() + t * g.mask_len,
                            g.mask_len);
            }
            return columns;
        case Im2colPath::Phase: {
            const auto w = static_cast<std::size_t>(s.w);
            const std::size_t out_rows = len / static_cast<std::size_t>(g.ow);  // N·oh
            // A split_into_columns conv's one tap reads phase (0, 0) only.
            const int splits = g.split_into_columns() ? 1 : 2;
            T* const rows = phases + (splits == 1 ? 0 : 4 * len);
            for (int c = 0; c < s.c; ++c) {
                const T* block = in + static_cast<std::size_t>(c) * in_block;
                T* row = columns + static_cast<std::size_t>(c) * taps * len;
                T* planes = splits == 1 ? row : phases;
                // Input rows 2a + py of every plane (h = 2·oh), then every
                // other element of them (w = 2·ow): one flat pass per phase.
                for (int py = 0; py < splits; ++py) {
                    const T* first = block + static_cast<std::size_t>(py) * w;
                    if (w * sizeof(T) % 8 == 0)
                        alternate_rows<std::uint64_t>(first, out_rows, w, rows);
                    else if (w * sizeof(T) % 4 == 0)
                        alternate_rows<std::uint32_t>(first, out_rows, w, rows);
                    else
                        alternate_rows<T>(first, out_rows, w, rows);
                    for (int px = 0; px < splits; ++px) {
                        T* plane = planes + static_cast<std::size_t>(2 * py + px) * len;
                        const T* r = rows + px;
                        for (std::size_t i = 0; i < len; ++i) plane[i] = r[2 * i];
                    }
                }
                if (splits == 1) continue;
                for (std::size_t t = 0; t < taps; ++t, row += len)
                    tap_row(phases + static_cast<std::size_t>(g.taps[t].phase) * len, row, len,
                            g.taps[t], g.mask.data() + t * g.mask_len, g.mask_len);
            }
            return columns;
        }
    }
    return columns;
}

}  // namespace

const float* im2col(const float* in, const tensor::Shape& s, const ir::ConvAttrs& conv,
                    const ConvGeom& g, float* columns, float* phases) {
    return im2col_impl(in, s, conv, g, columns, phases);
}

const std::uint8_t* im2col_u8(const std::uint8_t* in, const tensor::Shape& s,
                              const ir::ConvAttrs& conv, const ConvGeom& g,
                              std::uint8_t* columns, std::uint8_t* phases) {
    return im2col_impl(in, s, conv, g, columns, phases);
}

}  // namespace raq::exec::kernels
