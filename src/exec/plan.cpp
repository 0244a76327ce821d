#include "exec/plan.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>

namespace raq::exec {

namespace {

/// Best-fit free-list allocator over a growable flat arena. Regions are
/// measured in floats; freeing coalesces with adjacent free regions so
/// long-lived plans do not fragment.
class ArenaAllocator {
public:
    std::size_t allocate(std::size_t size) {
        // Best fit: smallest free region that holds `size`.
        auto best = free_.end();
        for (auto it = free_.begin(); it != free_.end(); ++it) {
            if (it->second < size) continue;
            if (best == free_.end() || it->second < best->second) best = it;
        }
        if (best != free_.end()) {
            const std::size_t offset = best->first;
            const std::size_t remaining = best->second - size;
            free_.erase(best);
            if (remaining > 0) free_[offset + size] = remaining;
            return offset;
        }
        // No region fits: a free region that ends at the high-water mark
        // grows instead of a fresh region after it.
        std::size_t offset = high_water_;
        if (!free_.empty()) {
            const auto last = std::prev(free_.end());
            if (last->first + last->second == high_water_) {
                offset = last->first;
                free_.erase(last);
            }
        }
        high_water_ = offset + size;
        return offset;
    }

    void release(std::size_t offset, std::size_t size) {
        auto [it, inserted] = free_.emplace(offset, size);
        if (!inserted) throw std::logic_error("ArenaAllocator: double free");
        // Coalesce with the next free region.
        auto next = std::next(it);
        if (next != free_.end() && it->first + it->second == next->first) {
            it->second += next->second;
            free_.erase(next);
        }
        // Coalesce with the previous free region.
        if (it != free_.begin()) {
            auto prev = std::prev(it);
            if (prev->first + prev->second == it->first) {
                prev->second += it->second;
                free_.erase(it);
            }
        }
    }

    [[nodiscard]] std::size_t high_water() const { return high_water_; }

private:
    std::map<std::size_t, std::size_t> free_;  ///< offset -> size, offset-ordered
    std::size_t high_water_ = 0;
};

/// Column-tile length of the quantized integer GEMM: keep one
/// [kdim, tile] u8 column block resident in L2 while every output channel
/// of the range streams over it. Hoisted here so QuantBackend does zero
/// per-call sizing work.
constexpr std::size_t kGemmTileBytes = 256 * 1024;

std::size_t gemm_tile_cols(std::size_t kdim, std::size_t cols_cap) {
    // Round down to a multiple of 16 — the widest SIMD column group — so
    // interior tiles never leave a scalar column tail; when `cols` itself
    // is 16-aligned (hw is for all real layer sizes) no tail runs at all.
    std::size_t tile = kGemmTileBytes / std::max<std::size_t>(1, kdim);
    tile -= tile % 16;
    return std::min(cols_cap, std::max<std::size_t>(512, tile));
}

/// Shortest mask period, in slots: masks of planes smaller than this
/// repeat over several planes, so the masked copy is not a chain of short
/// loops on 4×4 and smaller planes.
constexpr std::size_t kMaskMinLen = 64;

}  // namespace

ConvGeom make_conv_geom(const ir::ConvAttrs& conv, const tensor::Shape& in) {
    ConvGeom g;
    g.oh = tensor::conv_out_dim(in.h, conv.kh, conv.stride, conv.pad);
    g.ow = tensor::conv_out_dim(in.w, conv.kw, conv.stride, conv.pad);
    g.kdim = static_cast<std::size_t>(conv.in_c) * static_cast<std::size_t>(conv.kh) *
             static_cast<std::size_t>(conv.kw);
    g.hw = static_cast<std::size_t>(g.oh) * static_cast<std::size_t>(g.ow);
    g.cols_cap = static_cast<std::size_t>(in.n) * g.hw;
    g.in_floats_cap = in.size();
    g.tile_cols = gemm_tile_cols(g.kdim, g.cols_cap);
    // Worst-case |acc| for unsigned 8-bit codes: kdim * 255 * 255.
    g.acc32_safe = g.kdim <= static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()) /
                                 (255u * 255u);
    const int s = conv.stride;
    if (conv.kh == 1 && conv.kw == 1 && s == 1 && conv.pad == 0) {
        g.path = Im2colPath::Direct;
        return g;
    }
    if (s == 1 && g.oh == in.h && g.ow == in.w) {
        g.path = Im2colPath::Shift;
    } else if (s == 2 && in.h == 2 * g.oh && in.w == 2 * g.ow) {
        g.path = Im2colPath::Phase;
    } else {
        g.zero_columns = conv.pad > 0;  // Gather
        return g;
    }

    // Tap (ky, kx) reads input (oy·s + ry, ox·s + rx) with ry = ky − pad,
    // rx = kx − pad. Writing ry = s·dy + py with py ∈ [0, s) (and rx
    // alike), that is element (oy + dy, ox + dx) of phase plane (py, px):
    // the plane of input pixels (s·a + py, s·b + px), laid out oh × ow
    // like the output (at s = 1 the input itself). Both paths' geometry
    // keeps every in-bounds read inside the plane (a = oy + dy < oh), so
    // the tap is one flat shift dy·ow + dx of the phase block, with the
    // out-of-bounds reads masked.
    const std::size_t taps = static_cast<std::size_t>(conv.kh) * static_cast<std::size_t>(conv.kw);
    const std::size_t reps = std::min<std::size_t>(
        static_cast<std::size_t>(in.n), std::max<std::size_t>(1, (kMaskMinLen + g.hw - 1) / g.hw));
    g.mask_len = reps * g.hw;
    g.taps.resize(taps);
    g.mask.assign(taps * g.mask_len, 0);
    for (int ky = 0; ky < conv.kh; ++ky)
        for (int kx = 0; kx < conv.kw; ++kx) {
            const std::size_t t = static_cast<std::size_t>(ky * conv.kw + kx);
            const int ry = ky - conv.pad, rx = kx - conv.pad;
            const int py = ((ry % s) + s) % s, px = ((rx % s) + s) % s;
            ConvTap& tap = g.taps[t];
            tap.shift = static_cast<std::ptrdiff_t>((ry - py) / s) * g.ow + (rx - px) / s;
            tap.phase = py * s + px;
            tap.full = true;
            std::uint8_t* mask = g.mask.data() + t * g.mask_len;
            for (int oy = 0; oy < g.oh; ++oy)
                for (int ox = 0; ox < g.ow; ++ox) {
                    const int iy = oy * s + ry, ix = ox * s + rx;
                    if (iy < 0 || iy >= in.h || ix < 0 || ix >= in.w) {
                        tap.full = false;
                        continue;
                    }
                    tap.valid = true;
                    mask[oy * g.ow + ox] = 0xFF;
                }
            for (std::size_t r = 1; r < reps; ++r)
                std::copy(mask, mask + g.hw, mask + r * g.hw);
        }
    return g;
}

ExecPlan::ExecPlan(const ir::Graph& graph, PlanOptions options)
    : ExecPlan(std::make_shared<const ir::Graph>(graph), options) {}

ExecPlan::ExecPlan(std::shared_ptr<const ir::Graph> graph, PlanOptions options)
    : graph_(std::move(graph)), options_(options) {
    static std::atomic<std::uint64_t> next_serial{1};
    serial_ = next_serial.fetch_add(1, std::memory_order_relaxed);
    if (!graph_) throw std::invalid_argument("ExecPlan: null graph");
    if (options_.batch_capacity < 1)
        throw std::invalid_argument("ExecPlan: batch_capacity must be >= 1");
    if (graph_->output_id() < 0) throw std::invalid_argument("ExecPlan: graph has no output");

    const auto& ops = graph_->ops();
    const std::size_t num_tensors = static_cast<std::size_t>(graph_->num_tensors());
    const auto shapes = ir::infer_shapes(*graph_, options_.batch_capacity);

    // ---- schedule + dependency levels. Ops are appended in topological
    // order by construction (an op may only consume existing tensors), so
    // the schedule is the op order; levels expose the independence
    // structure (two ops on one level share no data path).
    const std::vector<int> levels = ir::op_levels(*graph_);
    schedule_.reserve(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        schedule_.push_back(OpStep{static_cast<int>(i), levels[i]});

    // ---- tensor lifetimes: step producing each tensor and the step of
    // its last consumer. The graph output (and the external input) are
    // pinned for the whole run.
    constexpr int kLive = std::numeric_limits<int>::max();
    std::vector<int> last_use = ir::tensor_last_use(*graph_);
    last_use[static_cast<std::size_t>(graph_->output_id())] = kLive;
    last_use[static_cast<std::size_t>(graph_->input_id())] = kLive;  // external anyway

    // ---- arena assignment: allocate each op's output right before the op
    // runs (its inputs are still live, so an output region can never alias
    // an input region), release inputs right after their last consumer, so
    // a freed region is reusable from the next op on. The one exception: a
    // ReLU that is the only reader of its input takes the input's region
    // over, one joined lifetime (float runs apply it in place, runs on
    // codes skip it).
    std::vector<int> readers(num_tensors, 0);
    for (const ir::Op& op : ops)
        for (const int in : op.inputs) ++readers[static_cast<std::size_t>(in)];
    offsets_.assign(num_tensors, kExternal);
    ArenaAllocator arena;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const int out = ops[i].output;
        const std::size_t out_size = shapes[static_cast<std::size_t>(out)].size();
        total_tensor_floats_ += out_size;
        const int in0 = ops[i].inputs.at(0);
        const bool in_place = ops[i].kind == ir::OpKind::Relu &&
                              readers[static_cast<std::size_t>(in0)] == 1 &&
                              in0 != graph_->input_id() && in0 != graph_->output_id();
        offsets_[static_cast<std::size_t>(out)] =
            in_place ? offsets_[static_cast<std::size_t>(in0)] : arena.allocate(out_size);
        // Tensor produced but never consumed (and not the output): its
        // region is reusable immediately after this op.
        if (last_use[static_cast<std::size_t>(out)] < static_cast<int>(i))
            arena.release(offsets_[static_cast<std::size_t>(out)], out_size);
        std::vector<int> dead(ops[i].inputs);
        std::sort(dead.begin(), dead.end());
        dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
        for (const int in : dead) {
            if (last_use[static_cast<std::size_t>(in)] != static_cast<int>(i)) continue;
            if (in == graph_->input_id()) continue;  // external, not in the arena
            if (in_place) continue;                  // the region is the output's now
            arena.release(offsets_[static_cast<std::size_t>(in)],
                          shapes[static_cast<std::size_t>(in)].size());
        }
    }
    arena_floats_ = arena.high_water();

    // ---- conv geometry + worst-case scratch extents.
    conv_geom_.assign(ops.size(), ConvGeom{});
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const ir::Op& op = ops[i];
        if (op.kind != ir::OpKind::Conv2d) continue;
        ConvGeom& g = conv_geom_[i] =
            make_conv_geom(op.conv, shapes[static_cast<std::size_t>(op.inputs.at(0))]);
        max_tile_cols_ = std::max(max_tile_cols_, g.tile_cols);
        if (g.path != Im2colPath::Direct)
            max_columns_ = std::max(max_columns_, g.kdim * g.cols_cap);
        max_phase_elems_ = std::max(max_phase_elems_, g.phase_elems(g.cols_cap));
        max_conv_in_floats_ = std::max(max_conv_in_floats_, g.in_floats_cap);
        max_cols_ = std::max(max_cols_, g.cols_cap);
    }
}

std::vector<tensor::Shape> ExecPlan::shapes_for(int batch_n) const {
    if (batch_n < 1 || batch_n > options_.batch_capacity)
        throw std::invalid_argument("ExecPlan: batch size " + std::to_string(batch_n) +
                                    " outside [1, " +
                                    std::to_string(options_.batch_capacity) + "]");
    return ir::infer_shapes(*graph_, batch_n);
}

}  // namespace raq::exec
