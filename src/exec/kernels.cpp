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
    const std::size_t in_hw = static_cast<std::size_t>(s.h) * static_cast<std::size_t>(s.w);
    const std::size_t out_hw = static_cast<std::size_t>(oh) * static_cast<std::size_t>(ow);
    for (int n = 0; n < s.n; ++n)
        for (int c = 0; c < s.c; ++c) {
            const float* plane =
                in + (static_cast<std::size_t>(n) * static_cast<std::size_t>(s.c) +
                      static_cast<std::size_t>(c)) *
                         in_hw;
            float* dst = out + (static_cast<std::size_t>(n) * static_cast<std::size_t>(s.c) +
                                static_cast<std::size_t>(c)) *
                                   out_hw;
            // Window-bound hoisting: for fixed kx the in-bounds ox are a
            // prefix (ox·stride + kx < w), so the inner loops are
            // branch-free strided max-accumulations over the output row —
            // same elements folded in the same ky-major, kx-minor order
            // per output as the naive window walk, so identical results
            // (including the −inf seed for fully out-of-bounds windows).
            for (int oy = 0; oy < oh; ++oy) {
                float* row_out = dst + static_cast<std::size_t>(oy) *
                                           static_cast<std::size_t>(ow);
                for (int ox = 0; ox < ow; ++ox)
                    row_out[ox] = -std::numeric_limits<float>::infinity();
                const int ky_hi = std::min(kernel, s.h - oy * stride);
                for (int ky = 0; ky < ky_hi; ++ky) {
                    const float* row_in =
                        plane + (static_cast<std::size_t>(oy) *
                                     static_cast<std::size_t>(stride) +
                                 static_cast<std::size_t>(ky)) *
                                    static_cast<std::size_t>(s.w);
                    for (int kx = 0; kx < kernel; ++kx) {
                        const int ox_hi =
                            std::min(ow, kx >= s.w ? 0 : (s.w - 1 - kx) / stride + 1);
                        for (int ox = 0; ox < ox_hi; ++ox)
                            row_out[ox] = std::max(
                                row_out[ox],
                                row_in[static_cast<std::size_t>(ox) *
                                           static_cast<std::size_t>(stride) +
                                       static_cast<std::size_t>(kx)]);
                    }
                }
            }
        }
}

void global_avg_pool(const float* in, const tensor::Shape& s, float* out) {
    const std::size_t hw = static_cast<std::size_t>(s.h) * static_cast<std::size_t>(s.w);
    const float inv = 1.0f / static_cast<float>(s.h * s.w);
    for (int n = 0; n < s.n; ++n)
        for (int c = 0; c < s.c; ++c) {
            const float* plane =
                in + (static_cast<std::size_t>(n) * static_cast<std::size_t>(s.c) +
                      static_cast<std::size_t>(c)) *
                         hw;
            float acc = 0;
            // Same y-major accumulation order as the FP32 oracle.
            for (std::size_t i = 0; i < hw; ++i) acc += plane[i];
            out[static_cast<std::size_t>(n) * static_cast<std::size_t>(s.c) +
                static_cast<std::size_t>(c)] = acc * inv;
        }
}

void add(const float* a, const float* b, float* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void concat(const std::vector<ConcatInput>& ins, const tensor::Shape& out_shape, float* out) {
    const std::size_t hw =
        static_cast<std::size_t>(out_shape.h) * static_cast<std::size_t>(out_shape.w);
    for (int n = 0; n < out_shape.n; ++n) {
        std::size_t c_off = 0;
        for (const ConcatInput& in : ins) {
            const std::size_t block = static_cast<std::size_t>(in.channels) * hw;
            std::memcpy(out + (static_cast<std::size_t>(n) *
                                   static_cast<std::size_t>(out_shape.c) +
                               c_off) *
                                  hw,
                        in.data + static_cast<std::size_t>(n) * block,
                        block * sizeof(float));
            c_off += static_cast<std::size_t>(in.channels);
        }
    }
}

namespace {

/// Moves bytes [0, n) as two Word-sized moves that overlap when n < 2·|Word|;
/// needs |Word| ≤ n ≤ 2·|Word|.
template <typename Word>
void move_two_words(unsigned char* d, const unsigned char* s, std::size_t n) {
    Word head;
    Word tail;
    std::memcpy(&head, s, sizeof(Word));
    std::memcpy(&tail, s + n - sizeof(Word), sizeof(Word));
    std::memcpy(d, &head, sizeof(Word));
    std::memcpy(d + n - sizeof(Word), &tail, sizeof(Word));
}

/// Copies `n` elements. A run of at most 16 bytes — any row of the ≤ 16-wide
/// u8 planes the mini networks reach — is moved inline without writing
/// past its end; longer runs go to memcpy.
template <typename T>
void copy_run(T* dst, const T* src, std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    auto* d = reinterpret_cast<unsigned char*>(dst);
    const auto* s = reinterpret_cast<const unsigned char*>(src);
    if (bytes > 16)
        std::memcpy(d, s, bytes);
    else if (bytes >= 8)
        move_two_words<std::uint64_t>(d, s, bytes);
    else if (bytes >= 4)
        move_two_words<std::uint32_t>(d, s, bytes);
    else if (bytes >= 2)
        move_two_words<std::uint16_t>(d, s, bytes);
    else if (bytes == 1)
        *d = *s;
}

/// First output index o whose input index o·stride − pad + k is at least
/// `edge`, clamped to [0, out]: ceil((edge + pad − k) / stride).
int first_at_or_past(int edge, int pad, int k, int stride, int out) {
    const int num = edge + pad - k;
    return std::min(out, num > 0 ? (num + stride - 1) / stride : 0);
}

template <typename T>
void im2col_impl(const T* in, const tensor::Shape& s, int kh, int kw, int stride, int pad,
                 T* columns, int oh, int ow, bool zero_first) {
    const std::size_t taps = static_cast<std::size_t>(kh) * static_cast<std::size_t>(kw);
    const std::size_t out_plane = static_cast<std::size_t>(oh) * static_cast<std::size_t>(ow);
    const std::size_t in_plane = static_cast<std::size_t>(s.h) * static_cast<std::size_t>(s.w);
    const std::size_t sample_step = static_cast<std::size_t>(s.c) * in_plane;
    const std::size_t cols = static_cast<std::size_t>(s.n) * out_plane;
    const std::size_t rows = static_cast<std::size_t>(s.c) * taps;
    if (zero_first) std::memset(columns, 0, rows * cols * sizeof(T));
    const auto src_step = static_cast<std::size_t>(stride);
    const std::size_t src_row_step = src_step * static_cast<std::size_t>(s.w);
    // Loop order: kernel tap (ky, kx), then channel, then sample, then
    // output row. Row (c·kh + ky)·kw + kx of the column matrix is laid out
    // [n][oy][ox]; for one tap the in-bounds outputs of every (sample,
    // channel) plane form the same rectangle [oy_lo, oy_hi) × [ox_lo,
    // ox_hi), because iy = oy·stride − pad + ky ∈ [0, h) and ix = ox·stride
    // − pad + kx ∈ [0, w) are each one contiguous range. So the bounds and
    // both plane offsets are computed once per tap, and the channel and
    // sample loops only advance pointers.
    std::size_t tap = 0;  // ky·kw + kx
    for (int ky = 0; ky < kh; ++ky)
        for (int kx = 0; kx < kw; ++kx, ++tap) {
            const int oy_lo = first_at_or_past(0, pad, ky, stride, oh);
            const int oy_hi = std::max(oy_lo, first_at_or_past(s.h, pad, ky, stride, oh));
            const int ox_lo = first_at_or_past(0, pad, kx, stride, ow);
            const int ox_hi = std::max(ox_lo, first_at_or_past(s.w, pad, kx, stride, ow));
            if (oy_lo == oy_hi || ox_lo == ox_hi) continue;
            int n_rows = oy_hi - oy_lo;
            auto run = static_cast<std::size_t>(ox_hi - ox_lo);
            // Stride 1 with the whole input row in bounds (a 1×1 pad-0
            // conv, or a "same"-padded kernel's centre column): source and
            // destination rows are both contiguous, so each plane's
            // rectangle is a single run.
            if (stride == 1 && run == static_cast<std::size_t>(ow) &&
                run == static_cast<std::size_t>(s.w)) {
                run *= static_cast<std::size_t>(n_rows);
                n_rows = 1;
            }
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
                const T* src = in + static_cast<std::size_t>(c) * in_plane + src_offset;
                for (int n = 0; n < s.n; ++n, dst += out_plane, src += sample_step) {
                    T* d = dst;
                    const T* r = src;
                    for (int oy = 0; oy < n_rows; ++oy, d += ow, r += src_row_step) {
                        if (stride == 1) {
                            copy_run(d, r, run);
                        } else {
                            for (std::size_t i = 0; i < run; ++i) d[i] = r[i * src_step];
                        }
                    }
                }
            }
        }
}

}  // namespace

void im2col(const float* in, const tensor::Shape& s, int kh, int kw, int stride, int pad,
            float* columns, int oh, int ow, bool zero_first) {
    im2col_impl(in, s, kh, kw, stride, pad, columns, oh, ow, zero_first);
}

void im2col_u8(const std::uint8_t* qx, const tensor::Shape& s, int kh, int kw, int stride,
               int pad, std::uint8_t* columns, int oh, int ow, bool zero_first) {
    im2col_impl(qx, s, kh, kw, stride, pad, columns, oh, ow, zero_first);
}

}  // namespace raq::exec::kernels
