// ExecPlan: an ir::Graph compiled once into an executable schedule.
//
// The two seed interpreters re-derived everything per call: walked the op
// tree, inferred shapes, allocated every intermediate tensor and every
// conv workspace (im2col columns, colsum, accumulators) from the heap.
// Algorithm 1 re-runs inference for every candidate method at every ΔVth
// point, and the serving runtime re-runs it per batch per device — so all
// of that work is hoisted here, paid once per (graph topology, batch
// capacity):
//
//  - topological op schedule with dependency levels (ops on one level are
//    mutually independent; the levels label the per-level profile),
//  - tensor lifetime analysis (birth step, last-consumer step),
//  - arena buffer assignment: one flat float arena with best-fit reuse of
//    regions whose tensors are dead (intermediates alias each other, so
//    peak memory is the live-set maximum, not the tensor-count sum). An
//    op's output is allocated before its dying inputs are released, and a
//    freed region is reusable from the next op on,
//  - per-convolution geometry (output dims, im2col extents, whether the
//    integer accumulator fits 32 bits, the im2col path and its per-tap
//    shifts and masks).
//
// A plan is immutable after construction and can be shared by any number
// of concurrent executions, each with its own ExecContext.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ir/graph.hpp"
#include "tensor/tensor.hpp"

namespace raq::exec {

struct PlanOptions {
    /// Largest batch the plan's arena is sized for; runs may use any
    /// n in [1, batch_capacity].
    int batch_capacity = 1;
};

/// How a conv builds its column matrix from the channel-major input
/// (see kernels::im2col).
enum class Im2colPath : std::uint8_t {
    Direct,  ///< 1×1, stride 1, pad 0: the input block is the column matrix
    Shift,   ///< stride 1, "same" output: each tap a shifted, masked copy
             ///< of the channel block
    Phase,   ///< stride 2, output halving the input (resnet's 3×3 s2 p1 and
             ///< 1×1 s2 p0): each channel split once into 4 phase planes,
             ///< each tap a shifted, masked copy of one phase
    Gather,  ///< any other geometry: per-row gather
};

/// One kernel tap (ky, kx) of a Shift or Phase conv.
struct ConvTap {
    /// Source offset of column j within the (phase) channel block:
    /// column j reads element j + shift.
    std::ptrdiff_t shift = 0;
    int phase = 0;       ///< phase plane 2·py + px (Phase path)
    bool valid = false;  ///< some output reads an in-bounds pixel
    bool full = false;   ///< every output does (then shift is 0: a plain copy)
};

/// Precomputed geometry of one convolution, sized at batch capacity.
struct ConvGeom {
    int oh = 0, ow = 0;
    std::size_t kdim = 0;      ///< in_c * kh * kw (GEMM reduction depth)
    std::size_t hw = 0;        ///< oh * ow
    std::size_t cols_cap = 0;  ///< batch_capacity * oh * ow (GEMM columns)
    std::size_t in_floats_cap = 0;  ///< input tensor size at capacity
    std::size_t tile_cols = 0; ///< column-tile length of the integer GEMM
    bool zero_columns = false; ///< Gather path with pad > 0: padded slots must be zeroed
    bool acc32_safe = false;   ///< kdim * 255 * 255 fits an int32 accumulator
    Im2colPath path = Im2colPath::Gather;
    std::vector<ConvTap> taps;  ///< kh·kw, ky-major (Shift and Phase paths)
    /// Mask period: whole output planes, at least 64 slots when the
    /// capacity allows, so the masked copy runs long loops on small planes.
    std::size_t mask_len = 0;
    /// [tap][mask_len]: 0xFF where the tap reads an in-bounds pixel, else
    /// 0. Column j of a tap's row is masked by mask[j % mask_len].
    std::vector<std::uint8_t> mask;

    /// Phase path with one unshifted tap (a 1×1 strided conv): the phase
    /// split writes the column row itself.
    [[nodiscard]] bool split_into_columns() const {
        return path == Im2colPath::Phase && taps.size() == 1 && taps[0].shift == 0;
    }
    /// Phase-split scratch, in elements, for `cols` GEMM columns: the 4
    /// phase planes, then the input rows of one row phase.
    [[nodiscard]] std::size_t phase_elems(std::size_t cols) const {
        if (path != Im2colPath::Phase) return 0;
        return (split_into_columns() ? 0 : 4 * cols) + 2 * cols;
    }
};

/// Geometry of `conv` over an input of shape `in` (n = batch capacity).
/// ExecPlan computes one per conv at compile time.
[[nodiscard]] ConvGeom make_conv_geom(const ir::ConvAttrs& conv, const tensor::Shape& in);

/// One scheduled op: index into graph().ops() plus its dependency level.
struct OpStep {
    int op_index = 0;
    int level = 0;
};

class ExecPlan {
public:
    /// Compiles the schedule, lifetimes and arena layout. The graph is
    /// copied, so the plan is self-contained and outlives its source.
    ExecPlan(const ir::Graph& graph, PlanOptions options);
    /// Shares an already-owned graph instead of copying it — what the
    /// runners use when recompiling at a larger batch capacity.
    ExecPlan(std::shared_ptr<const ir::Graph> graph, PlanOptions options);

    [[nodiscard]] const ir::Graph& graph() const { return *graph_; }
    [[nodiscard]] const std::shared_ptr<const ir::Graph>& graph_shared() const {
        return graph_;
    }
    [[nodiscard]] const PlanOptions& options() const { return options_; }
    [[nodiscard]] int batch_capacity() const { return options_.batch_capacity; }

    /// Process-unique id (never reused, unlike addresses) — the cache key
    /// contexts use to tell plans apart across recompiles.
    [[nodiscard]] std::uint64_t serial() const { return serial_; }

    [[nodiscard]] const std::vector<OpStep>& schedule() const { return schedule_; }

    /// Arena offset (in floats) of a tensor, or kExternal for the graph
    /// input (which is read in place from the caller's batch view).
    static constexpr std::size_t kExternal = static_cast<std::size_t>(-1);
    [[nodiscard]] std::size_t offset_of(int tensor_id) const {
        return offsets_[static_cast<std::size_t>(tensor_id)];
    }

    /// Total arena size in floats at batch capacity.
    [[nodiscard]] std::size_t arena_floats() const { return arena_floats_; }
    /// Sum of all non-input tensor sizes at capacity — what a no-reuse
    /// layout would need. arena_floats() < this on any multi-op graph.
    [[nodiscard]] std::size_t total_tensor_floats() const { return total_tensor_floats_; }

    /// Conv geometry for the op at `op_index`; nullptr for non-conv ops.
    [[nodiscard]] const ConvGeom* conv_geom(int op_index) const {
        const ConvGeom& g = conv_geom_[static_cast<std::size_t>(op_index)];
        return g.kdim == 0 ? nullptr : &g;
    }

    /// Worst-case conv scratch requirements at capacity, for ExecContext
    /// pre-sizing (float path: im2col columns; quantized path: activation
    /// codes + u8 columns + colsum/accumulators; both: phase planes).
    /// Direct convs need no column matrix, so they do not count here.
    [[nodiscard]] std::size_t max_columns() const { return max_columns_; }
    [[nodiscard]] std::size_t max_phase_elems() const { return max_phase_elems_; }
    [[nodiscard]] std::size_t max_conv_in_floats() const { return max_conv_in_floats_; }
    [[nodiscard]] std::size_t max_cols() const { return max_cols_; }
    /// Largest ConvGeom::tile_cols of any conv — accumulator tiles sized
    /// here once mean zero per-call sizing work in the hot loop.
    [[nodiscard]] std::size_t max_tile_cols() const { return max_tile_cols_; }

    /// Per-tensor shapes for a concrete batch size n ≤ batch_capacity.
    [[nodiscard]] std::vector<tensor::Shape> shapes_for(int batch_n) const;

private:
    std::shared_ptr<const ir::Graph> graph_;  ///< owned: the plan is self-contained
    PlanOptions options_;
    std::uint64_t serial_ = 0;
    std::vector<OpStep> schedule_;
    std::vector<std::size_t> offsets_;   ///< per tensor id; kExternal for the input
    std::vector<ConvGeom> conv_geom_;    ///< per op index; kdim == 0 for non-conv
    std::size_t arena_floats_ = 0;
    std::size_t total_tensor_floats_ = 0;
    std::size_t max_columns_ = 0;
    std::size_t max_phase_elems_ = 0;
    std::size_t max_conv_in_floats_ = 0;
    std::size_t max_cols_ = 0;
    std::size_t max_tile_cols_ = 0;
};

}  // namespace raq::exec
