#include "exec/kernels_simd.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#define RAQ_SIMD_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif
#if defined(__aarch64__) || defined(__ARM_NEON)
#define RAQ_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace raq::exec::kernels_simd {

namespace {

/// Scalar reference: the same i32 dot products every SIMD tier computes.
/// Also used by the vector kernels for row/column/k remainders, where it
/// is exact by the same argument (integer adds reassociate freely).
void gemm_u8_block_scalar(const std::uint8_t* w, std::size_t w_stride, std::size_t r0,
                          std::size_t rows, const std::uint8_t* cols,
                          std::size_t col_stride, std::size_t kdim, std::size_t j0,
                          std::size_t n, std::int32_t* acc, std::size_t acc_stride) {
    for (std::size_t r = r0; r < r0 + rows; ++r) {
        const std::uint8_t* wrow = w + r * w_stride;
        std::int32_t* arow = acc + r * acc_stride;
        for (std::size_t j = j0; j < n; ++j) {
            std::int32_t sum = 0;
            for (std::size_t k = 0; k < kdim; ++k)
                sum += static_cast<std::int32_t>(wrow[k]) *
                       static_cast<std::int32_t>(cols[k * col_stride + j]);
            arow[j] = sum;
        }
    }
}

void gemm_u8_scalar(const std::uint8_t* w, std::size_t w_stride, std::size_t rows,
                    const std::uint8_t* cols, std::size_t col_stride, std::size_t kdim,
                    std::size_t n, std::int32_t* acc, std::size_t acc_stride) {
    gemm_u8_block_scalar(w, w_stride, 0, rows, cols, col_stride, kdim, 0, n, acc,
                         acc_stride);
}

/// The scalar quantize loop over [begin, n): the whole kernel on tiers
/// without a vector body, the remainder of the vector loops on the rest.
void quantize_u8_range(const float* in, std::size_t begin, std::size_t n, const CodeParams& q,
                       std::uint8_t* out) {
    // A local copy: the byte stores could alias `q` and would force a
    // reload of its fields per element.
    const CodeParams p = q;
    for (std::size_t i = begin; i < n; ++i) out[i] = quantize_code(in[i], p);
}

void quantize_u8_scalar(const float* in, std::size_t n, const CodeParams& q,
                        std::uint8_t* out) {
    quantize_u8_range(in, 0, n, q, out);
}

/// Scalar remainder of the vector epilogues: the same expression as
/// QuantBackend's scalar loop.
[[maybe_unused]] float epilogue_value(const std::int32_t* acc, const std::int32_t* colsum,
                                      std::size_t j, std::int32_t zw, std::int64_t qb,
                                      float scale) {
    const std::int64_t corrected =
        static_cast<std::int64_t>(acc[j]) - static_cast<std::int64_t>(zw) * colsum[j] + qb;
    return static_cast<float>(corrected) * scale;
}

#if RAQ_SIMD_X86

/// One 32-bit lane of prepped weights (an i16 k-pair or an s8 k-quad), for
/// a broadcast; memcpy keeps the read aliasing-safe.
inline std::int32_t load_lane(const std::uint8_t* p) {
    std::int32_t v = 0;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/// Row-block loop shared by every packed GEMM. Tile::run<MR> sweeps the
/// panel once for MR weight rows with all accumulators in registers; the
/// rows run as kGemmU8RowBlock-row tiles plus one 3/2/1-row tail, each
/// with a compile-time row count (a runtime count spills them).
template <typename Tile>
void gemm_packed_rows(const std::uint8_t* w, std::size_t rows, const std::uint8_t* panel,
                      std::size_t kdim, std::size_t n, std::int32_t* acc,
                      std::size_t acc_stride) {
    static_assert(kGemmU8RowBlock == 4, "the tail switch covers 3/2/1 rows");
    const std::size_t records = (kdim + Tile::k_group - 1) / Tile::k_group;
    const std::size_t w_stride = records * Tile::k_group * Tile::elem_bytes;
    const std::size_t groups = n / Tile::col_group;
    std::size_t r = 0;
    for (; r + 4 <= rows; r += 4)
        Tile::template run<4>(w + r * w_stride, w_stride, panel, records, groups,
                              acc + r * acc_stride, acc_stride);
    const std::uint8_t* wt = w + r * w_stride;
    std::int32_t* at = acc + r * acc_stride;
    switch (rows - r) {
        case 3: Tile::template run<3>(wt, w_stride, panel, records, groups, at, acc_stride); break;
        case 2: Tile::template run<2>(wt, w_stride, panel, records, groups, at, acc_stride); break;
        case 1: Tile::template run<1>(wt, w_stride, panel, records, groups, at, acc_stride); break;
        default: break;
    }
}

/// The packed kernel set of one tile family.
template <typename Tile>
PackedKernels packed_set(PrepWeightsFn prep, PackColsFn pack, std::int32_t w_offset) {
    return {prep, pack, &gemm_packed_rows<Tile>, Tile::col_group, Tile::k_group,
            Tile::elem_bytes, w_offset};
}

/// Sse41/Avx2 weight prep: each code as an i16, rows zero-padded to even
/// kdim so the pair broadcast at the last k never reads past the row.
void prep_weights_pairs(const std::uint8_t* w, std::size_t rows, std::size_t kdim,
                        std::uint8_t* prepped) {
    const std::size_t stride = kdim + (kdim & 1);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t k = 0; k < stride; ++k) {
            const std::int16_t v = k < kdim ? w[r * kdim + k] : 0;
            std::memcpy(prepped + 2 * (r * stride + k), &v, sizeof v);
        }
    }
}

/// AvxVnni weight prep: each code as the s8 w ^ 0x80 = w − 128, rows
/// zero-padded to a multiple of 4 (the padded k rows of the panel are
/// zero, so the pad value never reaches an accumulator).
void prep_weights_quads(const std::uint8_t* w, std::size_t rows, std::size_t kdim,
                        std::uint8_t* prepped) {
    const std::size_t stride = (kdim + 3) & ~std::size_t{3};
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t k = 0; k < kdim; ++k)
            prepped[r * stride + k] = static_cast<std::uint8_t>(w[r * kdim + k] ^ 0x80u);
        for (std::size_t k = kdim; k < stride; ++k) prepped[r * stride + k] = 0;
    }
}

__attribute__((target("sse4.1"))) void pack_pairs_sse41(const std::uint8_t* cols,
                                                        std::size_t col_stride,
                                                        std::size_t kdim, std::size_t n,
                                                        std::uint8_t* panel) {
    const __m128i zero = _mm_setzero_si128();
    for (std::size_t g = 0; g < n / 8; ++g) {
        const std::uint8_t* base = cols + g * 8;
        for (std::size_t k = 0; k < kdim; k += 2, panel += 32) {
            const __m128i a0 = _mm_cvtepu8_epi16(
                _mm_loadl_epi64(reinterpret_cast<const __m128i*>(base + k * col_stride)));
            // Odd kdim: the last pair's second element is zero.
            const __m128i a1 = k + 1 < kdim ? _mm_cvtepu8_epi16(_mm_loadl_epi64(
                                                  reinterpret_cast<const __m128i*>(
                                                      base + (k + 1) * col_stride)))
                                            : zero;
            _mm_storeu_si128(reinterpret_cast<__m128i*>(panel), _mm_unpacklo_epi16(a0, a1));
            _mm_storeu_si128(reinterpret_cast<__m128i*>(panel + 16),
                             _mm_unpackhi_epi16(a0, a1));
        }
    }
}

struct TileSse41 {
    static constexpr std::size_t col_group = 8, k_group = 2, elem_bytes = 2;

    template <std::size_t MR>
    __attribute__((target("sse4.1"))) static void run(
        const std::uint8_t* w, std::size_t w_stride, const std::uint8_t* panel,
        std::size_t records, std::size_t groups, std::int32_t* acc, std::size_t acc_stride) {
        for (std::size_t g = 0; g < groups; ++g) {
            const std::uint8_t* src = panel + g * records * 32;
            __m128i lo[MR];  // columns 0..3 of the group
            __m128i hi[MR];  // columns 4..7
            for (std::size_t r = 0; r < MR; ++r) lo[r] = hi[r] = _mm_setzero_si128();
            for (std::size_t p = 0; p < records; ++p, src += 32) {
                const __m128i a_lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
                const __m128i a_hi =
                    _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 16));
                for (std::size_t r = 0; r < MR; ++r) {
                    const __m128i wp = _mm_set1_epi32(load_lane(w + r * w_stride + 4 * p));
                    lo[r] = _mm_add_epi32(lo[r], _mm_madd_epi16(a_lo, wp));
                    hi[r] = _mm_add_epi32(hi[r], _mm_madd_epi16(a_hi, wp));
                }
            }
            for (std::size_t r = 0; r < MR; ++r) {
                std::int32_t* out = acc + r * acc_stride + g * 8;
                _mm_storeu_si128(reinterpret_cast<__m128i*>(out), lo[r]);
                _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4), hi[r]);
            }
        }
    }
};

__attribute__((target("avx2"))) void pack_pairs_avx2(const std::uint8_t* cols,
                                                     std::size_t col_stride,
                                                     std::size_t kdim, std::size_t n,
                                                     std::uint8_t* panel) {
    const __m256i zero = _mm256_setzero_si256();
    for (std::size_t g = 0; g < n / 16; ++g) {
        const std::uint8_t* base = cols + g * 16;
        for (std::size_t k = 0; k < kdim; k += 2, panel += 64) {
            const __m256i a0 = _mm256_cvtepu8_epi16(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(base + k * col_stride)));
            // Odd kdim: the last pair's second element is zero.
            const __m256i a1 = k + 1 < kdim ? _mm256_cvtepu8_epi16(_mm_loadu_si128(
                                                  reinterpret_cast<const __m128i*>(
                                                      base + (k + 1) * col_stride)))
                                            : zero;
            // The 256-bit unpack interleaves within 128-bit lanes, so a
            // record holds columns {0..3, 8..11} then {4..7, 12..15}; the
            // GEMM un-permutes once at its store.
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(panel),
                                _mm256_unpacklo_epi16(a0, a1));
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(panel + 32),
                                _mm256_unpackhi_epi16(a0, a1));
        }
    }
}

struct TileAvx2 {
    static constexpr std::size_t col_group = 16, k_group = 2, elem_bytes = 2;

    template <std::size_t MR>
    __attribute__((target("avx2"))) static void run(
        const std::uint8_t* w, std::size_t w_stride, const std::uint8_t* panel,
        std::size_t records, std::size_t groups, std::int32_t* acc, std::size_t acc_stride) {
        for (std::size_t g = 0; g < groups; ++g) {
            const std::uint8_t* src = panel + g * records * 64;
            __m256i lo[MR];  // columns {0..3, 8..11} of the group
            __m256i hi[MR];  // columns {4..7, 12..15}
            for (std::size_t r = 0; r < MR; ++r) lo[r] = hi[r] = _mm256_setzero_si256();
            for (std::size_t p = 0; p < records; ++p, src += 64) {
                const __m256i a_lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
                const __m256i a_hi =
                    _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 32));
                for (std::size_t r = 0; r < MR; ++r) {
                    const __m256i wp = _mm256_set1_epi32(load_lane(w + r * w_stride + 4 * p));
                    lo[r] = _mm256_add_epi32(lo[r], _mm256_madd_epi16(a_lo, wp));
                    hi[r] = _mm256_add_epi32(hi[r], _mm256_madd_epi16(a_hi, wp));
                }
            }
            for (std::size_t r = 0; r < MR; ++r) {
                std::int32_t* out = acc + r * acc_stride + g * 16;
                _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                                    _mm256_permute2x128_si256(lo[r], hi[r], 0x20));
                _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8),
                                    _mm256_permute2x128_si256(lo[r], hi[r], 0x31));
            }
        }
    }
};

/// AvxVnni panel: per 16-column group, one 64-byte record per k-quad,
/// column c's four k values in bytes [4c, 4c + 4) — the 32-bit lane
/// vpdpbusd reduces. Two byte then two word interleaves transpose the
/// four 16-column rows; k rows past kdim read as zero.
__attribute__((target("avx2"))) void pack_quads(const std::uint8_t* cols,
                                                std::size_t col_stride, std::size_t kdim,
                                                std::size_t n, std::uint8_t* panel) {
    const __m128i zero = _mm_setzero_si128();
    for (std::size_t g = 0; g < n / 16; ++g) {
        const std::uint8_t* base = cols + g * 16;
        for (std::size_t k = 0; k < kdim; k += 4, panel += 64) {
            __m128i row[4];
            for (std::size_t i = 0; i < 4; ++i)
                row[i] = k + i < kdim ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                                            base + (k + i) * col_stride))
                                      : zero;
            const __m128i k01_lo = _mm_unpacklo_epi8(row[0], row[1]);  // columns 0..7
            const __m128i k01_hi = _mm_unpackhi_epi8(row[0], row[1]);  // columns 8..15
            const __m128i k23_lo = _mm_unpacklo_epi8(row[2], row[3]);
            const __m128i k23_hi = _mm_unpackhi_epi8(row[2], row[3]);
            __m128i* dst = reinterpret_cast<__m128i*>(panel);
            _mm_storeu_si128(dst, _mm_unpacklo_epi16(k01_lo, k23_lo));      // columns 0..3
            _mm_storeu_si128(dst + 1, _mm_unpackhi_epi16(k01_lo, k23_lo));  // columns 4..7
            _mm_storeu_si128(dst + 2, _mm_unpacklo_epi16(k01_hi, k23_hi));  // columns 8..11
            _mm_storeu_si128(dst + 3, _mm_unpackhi_epi16(k01_hi, k23_hi));  // columns 12..15
        }
    }
}

/// AvxVnni tile: 4×16 (or 3/2/1×16) ymm accumulators, one vpdpbusd per
/// row and half-group per k-quad — u8 activations times the broadcast s8
/// weight quad. A target attribute cannot depend on a template argument,
/// so the one body is stamped out for both encodings of the instruction.
#define RAQ_VNNI_TILE(NAME, TARGET, DPBUSD)                                               \
    struct NAME {                                                                         \
        static constexpr std::size_t col_group = 16, k_group = 4, elem_bytes = 1;         \
                                                                                          \
        template <std::size_t MR>                                                         \
        __attribute__((target(TARGET))) static void run(                                  \
            const std::uint8_t* w, std::size_t w_stride, const std::uint8_t* panel,       \
            std::size_t records, std::size_t groups, std::int32_t* acc,                   \
            std::size_t acc_stride) {                                                     \
            for (std::size_t g = 0; g < groups; ++g) {                                    \
                const std::uint8_t* src = panel + g * records * 64;                       \
                __m256i lo[MR]; /* columns 0..7 of the group */                           \
                __m256i hi[MR]; /* columns 8..15 */                                       \
                for (std::size_t r = 0; r < MR; ++r) lo[r] = hi[r] = _mm256_setzero_si256(); \
                for (std::size_t q = 0; q < records; ++q, src += 64) {                    \
                    const __m256i a_lo =                                                  \
                        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));        \
                    const __m256i a_hi =                                                  \
                        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 32));   \
                    for (std::size_t r = 0; r < MR; ++r) {                                \
                        const __m256i wq =                                                \
                            _mm256_set1_epi32(load_lane(w + r * w_stride + 4 * q));       \
                        lo[r] = DPBUSD(lo[r], a_lo, wq);                                  \
                        hi[r] = DPBUSD(hi[r], a_hi, wq);                                  \
                    }                                                                     \
                }                                                                         \
                for (std::size_t r = 0; r < MR; ++r) {                                    \
                    std::int32_t* out = acc + r * acc_stride + g * 16;                    \
                    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), lo[r]);          \
                    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8), hi[r]);      \
                }                                                                         \
            }                                                                             \
        }                                                                                 \
    };
RAQ_VNNI_TILE(TileAvxVnni, "avx2,avxvnni", _mm256_dpbusd_avx_epi32)
RAQ_VNNI_TILE(TileAvx512Vnni, "avx2,avx512vnni,avx512vl", _mm256_dpbusd_epi32)
#undef RAQ_VNNI_TILE

/// AVX-VNNI: CPUID.(EAX=7, ECX=1):EAX[4]. The OS-saved ymm state it
/// needs is already part of the AVX2 check.
bool cpu_has_avx_vnni() {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid_count(7, 1, &eax, &ebx, &ecx, &edx) != 0 && (eax & (1u << 4)) != 0;
}

/// f64 epilogue (see EpilogueFn) of 4 columns: every operand is an exact
/// integer in f64, so mul/sub/add are exact and cvtpd→ps is the one
/// rounding the scalar i64→f32 cast performs; then the f32 product.
__attribute__((target("sse4.1"), always_inline)) inline __m128 epi4_sse41(
    const std::int32_t* acc, const std::int32_t* colsum, __m128d vzw, __m128d vqb,
    __m128 vscale) {
    const __m128i ai = _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc));
    const __m128i ci = _mm_loadu_si128(reinterpret_cast<const __m128i*>(colsum));
    const __m128d a01 = _mm_cvtepi32_pd(ai);
    const __m128d a23 = _mm_cvtepi32_pd(_mm_srli_si128(ai, 8));
    const __m128d c01 = _mm_cvtepi32_pd(ci);
    const __m128d c23 = _mm_cvtepi32_pd(_mm_srli_si128(ci, 8));
    const __m128d r01 = _mm_add_pd(_mm_sub_pd(a01, _mm_mul_pd(vzw, c01)), vqb);
    const __m128d r23 = _mm_add_pd(_mm_sub_pd(a23, _mm_mul_pd(vzw, c23)), vqb);
    return _mm_mul_ps(_mm_movelh_ps(_mm_cvtpd_ps(r01), _mm_cvtpd_ps(r23)), vscale);
}

/// One 4-float quantize step (lambdas cannot carry target attributes, so
/// these helpers are standalone and force-inlined into their callers):
/// maxps returns its second operand, 0, for a NaN.
__attribute__((target("sse4.1"), always_inline)) inline __m128i code4_sse41(
    __m128 x, __m128 vscale, __m128 vzero, __m128 vqmax) {
    __m128 q = _mm_round_ps(_mm_div_ps(x, vscale), _MM_FROUND_CUR_DIRECTION);  // == nearbyint
    q = _mm_min_ps(_mm_max_ps(q, vzero), vqmax);
    return _mm_cvtps_epi32(q);  // integral-valued: conversion is exact
}

/// 16 masked codes from four 4-lane code vectors.
__attribute__((target("sse4.1"), always_inline)) inline __m128i pack16_sse41(const __m128i c[4],
                                                                            __m128i vmask) {
    return _mm_and_si128(
        _mm_packus_epi16(_mm_packus_epi32(c[0], c[1]), _mm_packus_epi32(c[2], c[3])), vmask);
}

__attribute__((target("sse4.1"))) void epilogue_sse41(const std::int32_t* acc,
                                                      const std::int32_t* colsum,
                                                      std::size_t n, std::int32_t zw,
                                                      std::int64_t qb, float scale,
                                                      float* out) {
    const __m128d vzw = _mm_set1_pd(static_cast<double>(zw));
    const __m128d vqb = _mm_set1_pd(static_cast<double>(qb));
    const __m128 vscale = _mm_set1_ps(scale);
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4)
        _mm_storeu_ps(out + j, epi4_sse41(acc + j, colsum + j, vzw, vqb, vscale));
    for (; j < n; ++j) out[j] = epilogue_value(acc, colsum, j, zw, qb, scale);
}

__attribute__((target("sse4.1"))) void epilogue_codes_sse41(
    const std::int32_t* acc, const std::int32_t* colsum, std::size_t n, std::int32_t zw,
    std::int64_t qb, float scale, const CodeParams& q, std::uint8_t* out) {
    const __m128d vzw = _mm_set1_pd(static_cast<double>(zw));
    const __m128d vqb = _mm_set1_pd(static_cast<double>(qb));
    const __m128 vscale = _mm_set1_ps(scale);
    const __m128 vcode_scale = _mm_set1_ps(q.scale);
    const __m128 vzero = _mm_setzero_ps();
    const __m128 vqmax = _mm_set1_ps(static_cast<float>(q.qmax));
    const __m128i vmask = _mm_set1_epi8(static_cast<char>(q.mask));
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        __m128i c[4];
        for (std::size_t b = 0; b < 4; ++b)
            c[b] = code4_sse41(epi4_sse41(acc + j + 4 * b, colsum + j + 4 * b, vzw, vqb, vscale),
                               vcode_scale, vzero, vqmax);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + j), pack16_sse41(c, vmask));
    }
    // Short rows (small planes at batch 1): 4 columns a step, then one
    // by one.
    for (; j + 4 <= n; j += 4) {
        const __m128i c[4] = {code4_sse41(epi4_sse41(acc + j, colsum + j, vzw, vqb, vscale),
                                          vcode_scale, vzero, vqmax),
                              _mm_setzero_si128(), _mm_setzero_si128(), _mm_setzero_si128()};
        const std::int32_t four = _mm_cvtsi128_si32(pack16_sse41(c, vmask));
        std::memcpy(out + j, &four, sizeof four);
    }
    for (; j < n; ++j) out[j] = quantize_code(epilogue_value(acc, colsum, j, zw, qb, scale), q);
}

/// The AVX2 epilogue of 8 columns (see epi4_sse41).
__attribute__((target("avx2"), always_inline)) inline __m256 epi8_avx2(
    const std::int32_t* acc, const std::int32_t* colsum, __m256d vzw, __m256d vqb,
    __m256 vscale) {
    const __m128i a_lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc));
    const __m128i a_hi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + 4));
    const __m128i c_lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(colsum));
    const __m128i c_hi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(colsum + 4));
    const __m256d r_lo = _mm256_add_pd(
        _mm256_sub_pd(_mm256_cvtepi32_pd(a_lo), _mm256_mul_pd(vzw, _mm256_cvtepi32_pd(c_lo))),
        vqb);
    const __m256d r_hi = _mm256_add_pd(
        _mm256_sub_pd(_mm256_cvtepi32_pd(a_hi), _mm256_mul_pd(vzw, _mm256_cvtepi32_pd(c_hi))),
        vqb);
    return _mm256_mul_ps(_mm256_set_m128(_mm256_cvtpd_ps(r_hi), _mm256_cvtpd_ps(r_lo)),
                         vscale);
}

__attribute__((target("avx2"), always_inline)) inline __m256i code8_avx2(
    __m256 x, __m256 vscale, __m256 vzero, __m256 vqmax) {
    __m256 q = _mm256_round_ps(_mm256_div_ps(x, vscale), _MM_FROUND_CUR_DIRECTION);
    q = _mm256_min_ps(_mm256_max_ps(q, vzero), vqmax);
    return _mm256_cvtps_epi32(q);  // integral-valued: conversion is exact
}

/// 32 masked codes from four 8-lane code vectors: packus interleaves
/// 128-bit lanes, and the permutation restores byte order after the two
/// packs.
__attribute__((target("avx2"), always_inline)) inline __m256i pack32_avx2(const __m256i c[4],
                                                                          __m256i vmask) {
    const __m256i unshuffle = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    const __m256i packed =
        _mm256_packus_epi16(_mm256_packus_epi32(c[0], c[1]), _mm256_packus_epi32(c[2], c[3]));
    return _mm256_and_si256(_mm256_permutevar8x32_epi32(packed, unshuffle), vmask);
}

__attribute__((target("avx2"))) void epilogue_avx2(const std::int32_t* acc,
                                                   const std::int32_t* colsum,
                                                   std::size_t n, std::int32_t zw,
                                                   std::int64_t qb, float scale,
                                                   float* out) {
    const __m256d vzw = _mm256_set1_pd(static_cast<double>(zw));
    const __m256d vqb = _mm256_set1_pd(static_cast<double>(qb));
    const __m256 vscale = _mm256_set1_ps(scale);
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(out + j, epi8_avx2(acc + j, colsum + j, vzw, vqb, vscale));
    for (; j < n; ++j) out[j] = epilogue_value(acc, colsum, j, zw, qb, scale);
}

__attribute__((target("avx2"))) void epilogue_codes_avx2(
    const std::int32_t* acc, const std::int32_t* colsum, std::size_t n, std::int32_t zw,
    std::int64_t qb, float scale, const CodeParams& q, std::uint8_t* out) {
    const __m256d vzw = _mm256_set1_pd(static_cast<double>(zw));
    const __m256d vqb = _mm256_set1_pd(static_cast<double>(qb));
    const __m256 vscale = _mm256_set1_ps(scale);
    const __m256 vcode_scale = _mm256_set1_ps(q.scale);
    const __m256 vzero = _mm256_setzero_ps();
    const __m256 vqmax = _mm256_set1_ps(static_cast<float>(q.qmax));
    const __m256i vmask = _mm256_set1_epi8(static_cast<char>(q.mask));
    std::size_t j = 0;
    for (; j + 32 <= n; j += 32) {
        __m256i c[4];
        for (std::size_t b = 0; b < 4; ++b)
            c[b] = code8_avx2(epi8_avx2(acc + j + 8 * b, colsum + j + 8 * b, vzw, vqb, vscale),
                              vcode_scale, vzero, vqmax);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j), pack32_avx2(c, vmask));
    }
    // Short rows (small planes at batch 1): 8 columns a step, then one
    // by one.
    for (; j + 8 <= n; j += 8) {
        const __m256i c[4] = {code8_avx2(epi8_avx2(acc + j, colsum + j, vzw, vqb, vscale),
                                         vcode_scale, vzero, vqmax),
                              _mm256_setzero_si256(), _mm256_setzero_si256(),
                              _mm256_setzero_si256()};
        _mm_storel_epi64(reinterpret_cast<__m128i*>(out + j),
                         _mm256_castsi256_si128(pack32_avx2(c, vmask)));
    }
    for (; j < n; ++j) out[j] = quantize_code(epilogue_value(acc, colsum, j, zw, qb, scale), q);
}

__attribute__((target("sse4.1"))) void colsum_sse41(const std::uint8_t* cols,
                                                    std::size_t kdim, std::size_t n,
                                                    std::int32_t* colsum) {
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        __m128i s[4];
        for (int b = 0; b < 4; ++b) s[b] = _mm_setzero_si128();
        for (std::size_t k = 0; k < kdim; ++k) {
            const __m128i row =
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(cols + k * n + j));
            s[0] = _mm_add_epi32(s[0], _mm_cvtepu8_epi32(row));
            s[1] = _mm_add_epi32(s[1], _mm_cvtepu8_epi32(_mm_srli_si128(row, 4)));
            s[2] = _mm_add_epi32(s[2], _mm_cvtepu8_epi32(_mm_srli_si128(row, 8)));
            s[3] = _mm_add_epi32(s[3], _mm_cvtepu8_epi32(_mm_srli_si128(row, 12)));
        }
        for (int b = 0; b < 4; ++b)
            _mm_storeu_si128(reinterpret_cast<__m128i*>(colsum + j + 4 * b), s[b]);
    }
    for (; j < n; ++j) {
        std::int32_t s = 0;
        for (std::size_t k = 0; k < kdim; ++k) s += cols[k * n + j];
        colsum[j] = s;
    }
}

__attribute__((target("avx2"))) void colsum_avx2(const std::uint8_t* cols,
                                                 std::size_t kdim, std::size_t n,
                                                 std::int32_t* colsum) {
    std::size_t j = 0;
    for (; j + 32 <= n; j += 32) {
        __m256i s[4];
        for (int b = 0; b < 4; ++b) s[b] = _mm256_setzero_si256();
        for (std::size_t k = 0; k < kdim; ++k) {
            const std::uint8_t* row = cols + k * n + j;
            for (int b = 0; b < 4; ++b) {
                const __m128i bytes =
                    _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row + 8 * b));
                s[b] = _mm256_add_epi32(s[b], _mm256_cvtepu8_epi32(bytes));
            }
        }
        for (int b = 0; b < 4; ++b)
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(colsum + j + 8 * b), s[b]);
    }
    for (; j < n; ++j) {
        std::int32_t s = 0;
        for (std::size_t k = 0; k < kdim; ++k) s += cols[k * n + j];
        colsum[j] = s;
    }
}

__attribute__((target("sse4.1"))) void quantize_u8_sse41(const float* in, std::size_t n,
                                                         const CodeParams& q,
                                                         std::uint8_t* out) {
    const __m128 vscale = _mm_set1_ps(q.scale);
    const __m128 vzero = _mm_setzero_ps();
    const __m128 vqmax = _mm_set1_ps(static_cast<float>(q.qmax));
    const __m128i vmask = _mm_set1_epi8(static_cast<char>(q.mask));
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m128i c[4];
        for (std::size_t b = 0; b < 4; ++b)
            c[b] = code4_sse41(_mm_loadu_ps(in + i + 4 * b), vscale, vzero, vqmax);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), pack16_sse41(c, vmask));
    }
    quantize_u8_range(in, i, n, q, out);
}

__attribute__((target("avx2"))) void quantize_u8_avx2(const float* in, std::size_t n,
                                                      const CodeParams& q, std::uint8_t* out) {
    const __m256 vscale = _mm256_set1_ps(q.scale);
    const __m256 vzero = _mm256_setzero_ps();
    const __m256 vqmax = _mm256_set1_ps(static_cast<float>(q.qmax));
    const __m256i vmask = _mm256_set1_epi8(static_cast<char>(q.mask));
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        __m256i c[4];
        for (std::size_t b = 0; b < 4; ++b)
            c[b] = code8_avx2(_mm256_loadu_ps(in + i + 8 * b), vscale, vzero, vqmax);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), pack32_avx2(c, vmask));
    }
    quantize_u8_range(in, i, n, q, out);
}

/// Byte max-pool step: pmaxub of the two input rows `v` already holds
/// the vertical maxima of, then of each byte pair (the odd byte shifted
/// down onto the even one); the maxima sit in the low byte of each word,
/// ready for the word pack.
__attribute__((target("sse4.1"), always_inline)) inline __m128i pair_max_sse41(__m128i v) {
    return _mm_and_si128(_mm_max_epu8(v, _mm_srli_epi16(v, 8)), _mm_set1_epi16(0x00FF));
}

__attribute__((target("sse4.1"), always_inline)) inline __m128i load16(const std::uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// One output row of the byte max-pool from input rows r0 and r1: 16, 8
/// or 4 outputs a step, the rest one by one.
__attribute__((target("sse4.1"), always_inline)) inline void maxpool_row_u8(
    const std::uint8_t* r0, const std::uint8_t* r1, std::size_t ow, std::uint8_t* o) {
    std::size_t x = 0;
    for (; x + 16 <= ow; x += 16) {
        const __m128i lo = pair_max_sse41(_mm_max_epu8(load16(r0 + 2 * x), load16(r1 + 2 * x)));
        const __m128i hi =
            pair_max_sse41(_mm_max_epu8(load16(r0 + 2 * x + 16), load16(r1 + 2 * x + 16)));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(o + x), _mm_packus_epi16(lo, hi));
    }
    if (x + 8 <= ow) {
        const __m128i v = pair_max_sse41(_mm_max_epu8(load16(r0 + 2 * x), load16(r1 + 2 * x)));
        _mm_storel_epi64(reinterpret_cast<__m128i*>(o + x), _mm_packus_epi16(v, v));
        x += 8;
    }
    if (x + 4 <= ow) {
        const __m128i v = pair_max_sse41(
            _mm_max_epu8(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(r0 + 2 * x)),
                         _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r1 + 2 * x))));
        const std::int32_t four = _mm_cvtsi128_si32(_mm_packus_epi16(v, v));
        std::memcpy(o + x, &four, sizeof four);
        x += 4;
    }
    for (; x < ow; ++x)
        o[x] = std::max(std::max(r0[2 * x], r0[2 * x + 1]), std::max(r1[2 * x], r1[2 * x + 1]));
}

/// Byte max-pool (see MaxPoolU8Fn), SSE2 instructions only. When the
/// output halves the plane exactly, the row pairs of all planes form one
/// stream (pair q at in + 2wq, its output row at out + ow·q), and the
/// narrow rows of the zoo's pools are taken several pairs a step:
/// 16 outputs from 2 pairs of 16-wide rows, or from 4 pairs of 8-wide
/// ones, whose two rows the 64-bit unpacks put side by side.
__attribute__((target("sse4.1"))) void maxpool_u8_sse41(const std::uint8_t* in,
                                                        std::size_t planes, std::size_t h,
                                                        std::size_t w, std::size_t oh,
                                                        std::size_t ow, std::uint8_t* out) {
    if (h == 2 * oh && w == 2 * ow && (w == 8 || w == 16)) {
        const std::size_t pairs = planes * oh;
        std::size_t q = 0;
        if (w == 16) {
            for (; q + 2 <= pairs; q += 2) {
                const std::uint8_t* p = in + 32 * q;
                const __m128i a = pair_max_sse41(_mm_max_epu8(load16(p), load16(p + 16)));
                const __m128i b = pair_max_sse41(_mm_max_epu8(load16(p + 32), load16(p + 48)));
                _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 8 * q), _mm_packus_epi16(a, b));
            }
        } else {
            for (; q + 4 <= pairs; q += 4) {
                const std::uint8_t* p = in + 16 * q;
                const __m128i p0 = load16(p), p1 = load16(p + 16);
                const __m128i p2 = load16(p + 32), p3 = load16(p + 48);
                const __m128i a = pair_max_sse41(
                    _mm_max_epu8(_mm_unpacklo_epi64(p0, p1), _mm_unpackhi_epi64(p0, p1)));
                const __m128i b = pair_max_sse41(
                    _mm_max_epu8(_mm_unpacklo_epi64(p2, p3), _mm_unpackhi_epi64(p2, p3)));
                _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4 * q), _mm_packus_epi16(a, b));
            }
        }
        for (; q < pairs; ++q) maxpool_row_u8(in + 2 * w * q, in + 2 * w * q + w, ow, out + ow * q);
        return;
    }
    for (std::size_t p = 0; p < planes; ++p)
        for (std::size_t oy = 0; oy < oh; ++oy) {
            const std::uint8_t* r0 = in + p * h * w + 2 * oy * w;
            maxpool_row_u8(r0, r0 + w, ow, out + (p * oh + oy) * ow);
        }
}

#endif  // RAQ_SIMD_X86

#if RAQ_SIMD_NEON

void gemm_u8_neon(const std::uint8_t* w, std::size_t w_stride, std::size_t rows,
                  const std::uint8_t* cols, std::size_t col_stride, std::size_t kdim,
                  std::size_t n, std::int32_t* acc, std::size_t acc_stride) {
    for (std::size_t r0 = 0; r0 < rows; r0 += kGemmU8RowBlock) {
        const std::size_t mr = std::min(kGemmU8RowBlock, rows - r0);
        std::size_t j = 0;
        for (; j + 8 <= n; j += 8) {
            uint32x4_t acc_lo[kGemmU8RowBlock];
            uint32x4_t acc_hi[kGemmU8RowBlock];
            for (std::size_t r = 0; r < mr; ++r) {
                acc_lo[r] = vdupq_n_u32(0);
                acc_hi[r] = vdupq_n_u32(0);
            }
            for (std::size_t k = 0; k < kdim; ++k) {
                const uint16x8_t a = vmovl_u8(vld1_u8(cols + k * col_stride + j));
                const uint16x4_t a_lo = vget_low_u16(a);
                const uint16x4_t a_hi = vget_high_u16(a);
                for (std::size_t r = 0; r < mr; ++r) {
                    const uint16x4_t wv =
                        vdup_n_u16(static_cast<std::uint16_t>(w[(r0 + r) * w_stride + k]));
                    acc_lo[r] = vmlal_u16(acc_lo[r], a_lo, wv);
                    acc_hi[r] = vmlal_u16(acc_hi[r], a_hi, wv);
                }
            }
            for (std::size_t r = 0; r < mr; ++r) {
                // Sums are ≤ kdim·255² ≤ INT32_MAX (acc32_safe), so the
                // unsigned accumulators reinterpret exactly to i32.
                std::int32_t* out = acc + (r0 + r) * acc_stride + j;
                vst1q_s32(out, vreinterpretq_s32_u32(acc_lo[r]));
                vst1q_s32(out + 4, vreinterpretq_s32_u32(acc_hi[r]));
            }
        }
        if (j < n)
            gemm_u8_block_scalar(w, w_stride, r0, mr, cols, col_stride, kdim, j, n, acc,
                                 acc_stride);
    }
}

#if defined(__aarch64__)

void quantize_u8_neon(const float* in, std::size_t n, const CodeParams& q,
                      std::uint8_t* out) {
    const float32x4_t vscale = vdupq_n_f32(q.scale);
    const float32x4_t vzero = vdupq_n_f32(0.0f);
    const float32x4_t vqmax = vdupq_n_f32(static_cast<float>(q.qmax));
    const uint8x8_t vmask = vdup_n_u8(q.mask);
    const auto quant4 = [&](std::size_t i) {
        float32x4_t v = vrndiq_f32(vdivq_f32(vld1q_f32(in + i), vscale));  // frinti == nearbyint
        v = vminq_f32(vmaxq_f32(v, vzero), vqmax);
        return vreinterpretq_u32_s32(vcvtq_s32_f32(v));  // integral-valued: exact
    };
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const uint16x4_t lo = vmovn_u32(quant4(i));
        const uint16x4_t hi = vmovn_u32(quant4(i + 4));
        const uint8x8_t bytes = vand_u8(vmovn_u16(vcombine_u16(lo, hi)), vmask);
        vst1_u8(out + i, bytes);
    }
    quantize_u8_range(in, i, n, q, out);
}

#endif  // __aarch64__

#endif  // RAQ_SIMD_NEON

std::vector<KernelTier> detect_tiers() {
    std::vector<KernelTier> tiers{KernelTier::Scalar};
#if RAQ_SIMD_X86 && (defined(__GNUC__) || defined(__clang__))
    if (__builtin_cpu_supports("sse4.1")) tiers.push_back(KernelTier::Sse41);
    if (__builtin_cpu_supports("avx2")) {
        tiers.push_back(KernelTier::Avx2);
        if (cpu_has_avx_vnni() ||
            (__builtin_cpu_supports("avx512vnni") && __builtin_cpu_supports("avx512vl")))
            tiers.push_back(KernelTier::AvxVnni);
    }
#endif
#if RAQ_SIMD_NEON
    tiers.push_back(KernelTier::Neon);
#endif
    return tiers;
}

KernelTier select_tier() {
    const std::vector<KernelTier>& tiers = available_tiers();
    if (const char* env = std::getenv("RAQ_KERNEL_TIER")) {
        std::string want(env);
        std::transform(want.begin(), want.end(), want.begin(),
                       [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
        for (const KernelTier t : tiers)
            if (want == tier_name(t)) return t;
        // Unknown or unavailable name: fall through to the detected best.
    }
    return tiers.back();
}

}  // namespace

const char* tier_name(KernelTier tier) {
    switch (tier) {
        case KernelTier::Scalar: return "scalar";
        case KernelTier::Sse41: return "sse41";
        case KernelTier::Avx2: return "avx2";
        case KernelTier::AvxVnni: return "avxvnni";
        case KernelTier::Neon: return "neon";
    }
    return "scalar";
}

const std::vector<KernelTier>& available_tiers() {
    static const std::vector<KernelTier> tiers = detect_tiers();
    return tiers;
}

KernelTier active_tier() {
    static const KernelTier tier = select_tier();
    return tier;
}

QuantizeU8Fn quantize_u8_kernel(KernelTier tier) {
    const std::vector<KernelTier>& tiers = available_tiers();
    if (std::find(tiers.begin(), tiers.end(), tier) == tiers.end()) return &quantize_u8_scalar;
    switch (tier) {
#if RAQ_SIMD_X86
        case KernelTier::Sse41:
            return &quantize_u8_sse41;
        case KernelTier::Avx2:
        case KernelTier::AvxVnni:
            return &quantize_u8_avx2;
#endif
#if defined(__aarch64__)
        case KernelTier::Neon:
            return &quantize_u8_neon;
#endif
        default:
            return &quantize_u8_scalar;
    }
}

MaxPoolU8Fn maxpool_u8_kernel(KernelTier tier) {
    const std::vector<KernelTier>& tiers = available_tiers();
    if (std::find(tiers.begin(), tiers.end(), tier) == tiers.end()) return nullptr;
    switch (tier) {
#if RAQ_SIMD_X86
        case KernelTier::Sse41:
        case KernelTier::Avx2:
        case KernelTier::AvxVnni:
            return &maxpool_u8_sse41;
#endif
        default:
            return nullptr;
    }
}

PackedKernels packed_kernels(KernelTier tier) {
    const std::vector<KernelTier>& tiers = available_tiers();
    if (std::find(tiers.begin(), tiers.end(), tier) == tiers.end()) return {};
    switch (tier) {
#if RAQ_SIMD_X86
        case KernelTier::Sse41:
            return packed_set<TileSse41>(&prep_weights_pairs, &pack_pairs_sse41, 0);
        case KernelTier::Avx2:
            return packed_set<TileAvx2>(&prep_weights_pairs, &pack_pairs_avx2, 0);
        case KernelTier::AvxVnni:
            // Prefer the VEX form: a CPU with AVX-VNNI may lack AVX-512.
            return cpu_has_avx_vnni()
                       ? packed_set<TileAvxVnni>(&prep_weights_quads, &pack_quads, 128)
                       : packed_set<TileAvx512Vnni>(&prep_weights_quads, &pack_quads, 128);
#endif
        default:
            return {};
    }
}

EpilogueFn epilogue_kernel(KernelTier tier) {
    const std::vector<KernelTier>& tiers = available_tiers();
    if (std::find(tiers.begin(), tiers.end(), tier) == tiers.end()) return nullptr;
    switch (tier) {
#if RAQ_SIMD_X86
        case KernelTier::Sse41:
            return &epilogue_sse41;
        case KernelTier::Avx2:
        case KernelTier::AvxVnni:
            return &epilogue_avx2;
#endif
        default:
            return nullptr;
    }
}

EpilogueCodesFn epilogue_codes_kernel(KernelTier tier) {
    const std::vector<KernelTier>& tiers = available_tiers();
    if (std::find(tiers.begin(), tiers.end(), tier) == tiers.end()) return nullptr;
    switch (tier) {
#if RAQ_SIMD_X86
        case KernelTier::Sse41:
            return &epilogue_codes_sse41;
        case KernelTier::Avx2:
        case KernelTier::AvxVnni:
            return &epilogue_codes_avx2;
#endif
        default:
            return nullptr;
    }
}

ColSumFn colsum_kernel(KernelTier tier) {
    const std::vector<KernelTier>& tiers = available_tiers();
    if (std::find(tiers.begin(), tiers.end(), tier) == tiers.end()) return nullptr;
    switch (tier) {
#if RAQ_SIMD_X86
        case KernelTier::Sse41:
            return &colsum_sse41;
        case KernelTier::Avx2:
        case KernelTier::AvxVnni:
            return &colsum_avx2;
#endif
        default:
            return nullptr;
    }
}

GemmU8Fn gemm_u8_kernel(KernelTier tier) {
    const std::vector<KernelTier>& tiers = available_tiers();
    if (std::find(tiers.begin(), tiers.end(), tier) == tiers.end()) return nullptr;
    switch (tier) {
        case KernelTier::Scalar:
            return &gemm_u8_scalar;
#if RAQ_SIMD_NEON
        case KernelTier::Neon:
            return &gemm_u8_neon;
#endif
        default:
            return nullptr;
    }
}

}  // namespace raq::exec::kernels_simd
