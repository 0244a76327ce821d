// ExecContext: the per-thread mutable state of the engine — the tensor
// arena plus every conv scratch buffer (float and quantized).
// Contexts are reused across runs (buffers only grow, so steady-state
// serving does zero allocation) and must never be shared by concurrent
// runs: the plan is the shared immutable half, the context the private
// mutable half. The serve runtime keeps one long-lived context per
// device; tests exercise one per worker thread.
#pragma once

#include <cstddef>
#include <cstdint>
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
template <typename T>
struct CacheLineAllocator {
    using value_type = T;
    static constexpr std::size_t kLine = 64;

    CacheLineAllocator() = default;
    template <typename U>
    // NOLINTNEXTLINE(google-explicit-constructor): allocator rebinding converts implicitly
    CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

    T* allocate(std::size_t n) {
        // operator new aligns a block to at least alignof(std::max_align_t),
        // so the start lies at least that far above it: room for the
        // block's address just below the start.
        void* block = ::operator new(n * sizeof(T) + kLine);
        const std::uintptr_t start =
            (reinterpret_cast<std::uintptr_t>(block) + kLine) & ~std::uintptr_t{kLine - 1};
        reinterpret_cast<void**>(start)[-1] = block;
        return reinterpret_cast<T*>(start);
    }
    void deallocate(T* p, std::size_t) noexcept {
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
    AlignedVector<float> product;  ///< GEMM result [out_c, cols] (batched runs)

    // Quantized conv scratch.
    AlignedVector<std::uint8_t> qx;          ///< quantized input activation codes
    AlignedVector<std::uint8_t> u8_columns;  ///< integer im2col matrix
    AlignedVector<std::int32_t> colsum;      ///< per-column activation code sums
    AlignedVector<std::uint8_t> packed;      ///< column panel in the tier's layout (packed GEMM)
    AlignedVector<std::uint8_t> wprep;       ///< weight matrix in the tier's layout (packed GEMM)
    AlignedVector<std::int32_t> acc32;       ///< narrow accumulator tile (fast path)
    AlignedVector<std::int64_t> acc64;       ///< full-width accumulator (injection/overflow-safe)
};

struct ExecContext {
    AlignedVector<float> arena;  ///< all intermediate tensors, plan-assigned offsets

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
