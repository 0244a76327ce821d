// ExecContext: the per-thread mutable state of one execution lane — the
// tensor arena plus every conv scratch buffer (float and quantized).
// Contexts are reused across runs (buffers only grow, so steady-state
// serving does zero allocation) and must never be shared by concurrent
// runs: the plan is the shared immutable half, the context the private
// mutable half. The serve runtime keeps one long-lived context per
// device; tests exercise one per worker thread.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace raq::exec {

class ExecPlan;

/// Workspace of one convolution invocation. The engine hands each conv a
/// scratch set that no concurrently running op touches: the context's own
/// set in serial execution, a lane-private one when a whole dependency
/// level fans out over the thread pool.
struct ConvScratch {
    // Float conv scratch.
    std::vector<float> columns;  ///< im2col matrix [kdim, cols]
    std::vector<float> product;  ///< GEMM result [out_c, cols] (batched runs)

    // Quantized conv scratch.
    std::vector<std::uint8_t> qx;          ///< quantized input activation codes
    std::vector<std::uint8_t> u8_columns;  ///< integer im2col matrix
    std::vector<std::int32_t> colsum;      ///< per-column activation code sums
    std::vector<std::uint8_t> packed;      ///< column panel in the tier's layout (packed GEMM)
    std::vector<std::uint8_t> wprep;       ///< weight matrix in the tier's layout (packed GEMM)
    std::vector<std::int32_t> acc32;       ///< narrow accumulator tile (fast path)
    std::vector<std::int64_t> acc64;       ///< full-width accumulator (injection/overflow-safe)
    /// Lane-private accumulator tiles for channel-split execution of one
    /// conv; persist across convs and runs so pool mode also allocates
    /// nothing in steady state. Indexed by ThreadPool lane.
    std::vector<std::vector<std::int32_t>> lane_acc32;
    std::vector<std::vector<std::int64_t>> lane_acc64;
    std::vector<std::vector<std::uint8_t>> lane_packed;
};

struct ExecContext {
    std::vector<float> arena;  ///< all intermediate tensors, plan-assigned offsets

    /// Per-run tensor table and shape cache. Shapes are re-derived only
    /// when (plan, batch size) changes, so a serve loop with a fixed
    /// batch pays the O(ops) inference walk once, not per request.
    std::vector<const float*> buffers;
    std::vector<tensor::Shape> shapes;
    std::uint64_t shapes_plan_serial = 0;  ///< ExecPlan::serial() cache key
    int shapes_batch_n = 0;

    /// Conv workspace for serial execution (and single-op levels).
    ConvScratch scratch;
    /// Lane-private conv workspaces for level-parallel execution, indexed
    /// by ThreadPool lane; grown on first fan-out, then reused forever.
    std::vector<ConvScratch> level_lanes;

    /// Grow-only resize: keeps steady-state runs allocation-free.
    template <typename T>
    static void reserve(std::vector<T>& buffer, std::size_t size) {
        if (buffer.size() < size) buffer.resize(size);
    }
};

}  // namespace raq::exec
