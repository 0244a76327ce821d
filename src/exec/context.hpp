// ExecContext: the per-thread mutable state of the engine — the tensor
// arena plus every conv scratch buffer (float and quantized).
// Contexts are reused across runs (buffers only grow, so steady-state
// serving does zero allocation) and must never be shared by concurrent
// runs: the plan is the shared immutable half, the context the private
// mutable half. The serve runtime keeps one long-lived context per
// device; tests exercise one per worker thread.
//
// Every tensor in the arena is channel-major, [C][N][H][W]; callers see
// NCHW. At n = 1 the two are the same bytes. For n > 1 the engine
// transposes the batch into `input`, each visited tensor into `visit`,
// and the result out to NCHW.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "tensor/tensor.hpp"

namespace raq::exec {

class ExecPlan;

/// Starts every buffer on a 64-byte cache line. The heap places a plain
/// vector at any 16-byte offset within a line, and which one follows from
/// everything the process allocated before, so the SIMD loops over the
/// arena and the conv scratch ran at a speed that changed from one build
/// or set-up to the next. Aligned, every process gets the same placement.
///
/// The buffer is a plain heap block one line longer than asked, with the
/// block's address kept just below the aligned start. The aligned
/// operator new (memalign) fragmented the heap instead: with a fresh
/// context per call, as quant::run_quantized makes, and small results
/// kept alive between calls, the process grew ~1.7 KB a call.
///
/// Blocks of kMmapBytes or more (glibc's default mmap threshold) come
/// straight from mmap, page-aligned, and go back with munmap. Through
/// malloc, freeing such a block (a capacity-100 arena is 3–6 MB) raises
/// glibc's dynamic mmap threshold, later blocks of that size come from
/// the brk heap, and the process kept ~4 MiB more from then on: whether
/// it did depended on the order of earlier frees, so peak RSS was
/// bimodal from run to run.
template <typename T>
struct CacheLineAllocator {
    using value_type = T;
    static constexpr std::size_t kLine = 64;
    static constexpr std::size_t kMmapBytes = 128 * 1024;

    CacheLineAllocator() = default;
    template <typename U>
    // NOLINTNEXTLINE(google-explicit-constructor): allocator rebinding converts implicitly
    CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

    T* allocate(std::size_t n) {
        if (n * sizeof(T) >= kMmapBytes) {
            void* block = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (block == MAP_FAILED) throw std::bad_alloc();
            return static_cast<T*>(block);
        }
        // operator new aligns a block to at least alignof(std::max_align_t),
        // so the start lies at least that far above it: room for the
        // block's address just below the start.
        void* block = ::operator new(n * sizeof(T) + kLine);
        const std::uintptr_t start =
            (reinterpret_cast<std::uintptr_t>(block) + kLine) & ~std::uintptr_t{kLine - 1};
        reinterpret_cast<void**>(start)[-1] = block;
        return reinterpret_cast<T*>(start);
    }
    void deallocate(T* p, std::size_t n) noexcept {
        if (n * sizeof(T) >= kMmapBytes)
            ::munmap(p, n * sizeof(T));
        else
            ::operator delete(reinterpret_cast<void**>(p)[-1]);
    }

    template <typename U>
    bool operator==(const CacheLineAllocator<U>&) const noexcept { return true; }
    template <typename U>
    bool operator!=(const CacheLineAllocator<U>&) const noexcept { return false; }
};

template <typename T>
using AlignedVector = std::vector<T, CacheLineAllocator<T>>;

/// Workspace of one convolution invocation, reused by every conv of a run.
struct ConvScratch {
    // Float conv scratch.
    AlignedVector<float> columns;  ///< im2col matrix [kdim, cols]
    AlignedVector<float> phases;   ///< one channel's phase planes (strided convs)

    // Quantized conv scratch.
    AlignedVector<std::uint8_t> qx;          ///< quantized input activation codes
    AlignedVector<std::uint8_t> u8_columns;  ///< integer im2col matrix
    AlignedVector<std::uint8_t> u8_phases;   ///< one channel's phase planes (strided convs)
    AlignedVector<std::int32_t> colsum;      ///< per-column activation code sums
    AlignedVector<std::uint8_t> packed;      ///< column panel in the tier's layout (packed GEMM)
    AlignedVector<std::uint8_t> wprep;       ///< weight matrix in the tier's layout (packed GEMM)
    AlignedVector<std::int32_t> acc32;       ///< narrow accumulator tile (fast path)
    AlignedVector<std::int64_t> acc64;       ///< full-width accumulator (injection/overflow-safe)
};

struct ExecContext {
    AlignedVector<float> arena;  ///< all intermediate tensors, plan-assigned offsets
    AlignedVector<float> input;  ///< the batch, channel-major (runs with n > 1)
    AlignedVector<float> visit;  ///< a visited tensor, NCHW (visited runs with n > 1)

    /// Per-run tensor table and shape cache. Shapes are re-derived only
    /// when (plan, batch size) changes, so a serve loop with a fixed
    /// batch pays the O(ops) inference walk once, not per request.
    std::vector<const float*> buffers;
    std::vector<tensor::Shape> shapes;
    std::uint64_t shapes_plan_serial = 0;  ///< ExecPlan::serial() cache key
    int shapes_batch_n = 0;

    ConvScratch scratch;  ///< conv workspace

    /// Grow-only resize: keeps steady-state runs allocation-free.
    template <typename T, typename Alloc>
    static void reserve(std::vector<T, Alloc>& buffer, std::size_t size) {
        if (buffer.size() < size) buffer.resize(size);
    }
};

}  // namespace raq::exec
