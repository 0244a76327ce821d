// The seed interpreters, kept as the independent bit-identity references
// for the planned execution engine (src/exec/), the one executor in src/.
// Apart from the float GEMM (tensor::gemm, whose p-ascending order both
// rely on) they share no code with the engine: a full tree walk that
// materialises one Tensor per op, the seed's own float conv (im2col +
// GEMM + bias) and non-conv ops (the FP32 oracle, run_float_all), and the
// seed quantized conv (per-call workspace allocation, per-channel int64
// accumulation over the whole column matrix, ordered per-product injector
// hook). Shared by the tests and bench/exec_throughput.cpp so the
// references cannot silently diverge between the two.
//
// (Sole deliberate deviation from the seed: the accumulator-occupancy
// stat shifts the magnitude instead of the signed value — identical
// numbers, without the seed's signed-shift UB under UBSan.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "inject/bitflip.hpp"
#include "ir/graph.hpp"
#include "quant/quant_executor.hpp"
#include "quant/quantized_graph.hpp"
#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"

namespace raq::seedref {

inline tensor::Tensor conv_float(const ir::Op& op, const tensor::Tensor& in) {
    int oh = 0, ow = 0;
    std::vector<float> columns;
    tensor::im2col(in, op.conv.kh, op.conv.kw, op.conv.stride, op.conv.pad, columns, oh, ow);
    const std::size_t k = static_cast<std::size_t>(op.conv.in_c) *
                          static_cast<std::size_t>(op.conv.kh) *
                          static_cast<std::size_t>(op.conv.kw);
    const std::size_t cols = static_cast<std::size_t>(in.shape().n) *
                             static_cast<std::size_t>(oh) * static_cast<std::size_t>(ow);
    std::vector<float> product(static_cast<std::size_t>(op.conv.out_c) * cols);
    tensor::gemm(op.weights.data(), columns.data(), product.data(),
                 static_cast<std::size_t>(op.conv.out_c), k, cols);
    tensor::Tensor out({in.shape().n, op.conv.out_c, oh, ow});
    // product is [oc, n*oh*ow]; output layout is [n, oc, oh, ow].
    const std::size_t hw = static_cast<std::size_t>(oh) * static_cast<std::size_t>(ow);
    for (int n = 0; n < in.shape().n; ++n)
        for (int oc = 0; oc < op.conv.out_c; ++oc) {
            const float b = op.bias[static_cast<std::size_t>(oc)];
            const float* src = product.data() + static_cast<std::size_t>(oc) * cols +
                               static_cast<std::size_t>(n) * hw;
            float* dst = out.data() +
                         (static_cast<std::size_t>(n) * static_cast<std::size_t>(op.conv.out_c) +
                          static_cast<std::size_t>(oc)) *
                             hw;
            for (std::size_t i = 0; i < hw; ++i) dst[i] = src[i] + b;
        }
    return out;
}

inline tensor::Tensor maxpool(const ir::Op& op, const tensor::Tensor& in) {
    const auto& s = in.shape();
    const int oh = tensor::conv_out_dim(s.h, op.pool.kernel, op.pool.stride, 0);
    const int ow = tensor::conv_out_dim(s.w, op.pool.kernel, op.pool.stride, 0);
    tensor::Tensor out({s.n, s.c, oh, ow});
    for (int n = 0; n < s.n; ++n)
        for (int c = 0; c < s.c; ++c)
            for (int oy = 0; oy < oh; ++oy)
                for (int ox = 0; ox < ow; ++ox) {
                    float best = -std::numeric_limits<float>::infinity();
                    for (int ky = 0; ky < op.pool.kernel; ++ky)
                        for (int kx = 0; kx < op.pool.kernel; ++kx) {
                            const int iy = oy * op.pool.stride + ky;
                            const int ix = ox * op.pool.stride + kx;
                            if (iy < s.h && ix < s.w) best = std::max(best, in.at(n, c, iy, ix));
                        }
                    out.at(n, c, oy, ox) = best;
                }
    return out;
}

/// One non-convolution op in float; both interpreters share it.
inline tensor::Tensor apply_nonconv_op(const ir::Op& op,
                                       const std::vector<const tensor::Tensor*>& ins) {
    const tensor::Tensor& in0 = *ins.at(0);
    switch (op.kind) {
        case ir::OpKind::Conv2d:
            throw std::invalid_argument("apply_nonconv_op: conv not handled here");
        case ir::OpKind::Relu: {
            tensor::Tensor out = in0;
            for (auto& v : out.vec()) v = v > 0 ? v : 0.0f;
            return out;
        }
        case ir::OpKind::MaxPool2d:
            return maxpool(op, in0);
        case ir::OpKind::GlobalAvgPool: {
            const auto& s = in0.shape();
            tensor::Tensor out({s.n, s.c, 1, 1});
            const float inv = 1.0f / static_cast<float>(s.h * s.w);
            for (int n = 0; n < s.n; ++n)
                for (int c = 0; c < s.c; ++c) {
                    float acc = 0;
                    for (int y = 0; y < s.h; ++y)
                        for (int x = 0; x < s.w; ++x) acc += in0.at(n, c, y, x);
                    out.at(n, c, 0, 0) = acc * inv;
                }
            return out;
        }
        case ir::OpKind::Add: {
            const tensor::Tensor& in1 = *ins.at(1);
            tensor::Tensor out = in0;
            for (std::size_t i = 0; i < out.size(); ++i) out[i] += in1[i];
            return out;
        }
        case ir::OpKind::Concat: {
            const auto& s0 = in0.shape();
            int channels = 0;
            for (const tensor::Tensor* t : ins) channels += t->shape().c;
            tensor::Tensor out({s0.n, channels, s0.h, s0.w});
            const std::size_t hw =
                static_cast<std::size_t>(s0.h) * static_cast<std::size_t>(s0.w);
            for (int n = 0; n < s0.n; ++n) {
                std::size_t c_off = 0;
                for (const tensor::Tensor* t : ins) {
                    const std::size_t block = static_cast<std::size_t>(t->shape().c) * hw;
                    std::copy(t->data() + static_cast<std::size_t>(n) * block,
                              t->data() + static_cast<std::size_t>(n + 1) * block,
                              out.data() +
                                  (static_cast<std::size_t>(n) *
                                   static_cast<std::size_t>(channels)) *
                                      hw +
                                  c_off * hw);
                    c_off += static_cast<std::size_t>(t->shape().c);
                }
            }
            return out;
        }
    }
    throw std::invalid_argument("apply_nonconv_op: unknown op kind");
}

/// The seed tree walk: runs `graph` on `batch` and returns every tensor,
/// indexed by tensor id. `conv(op_index, op, input)` computes each conv.
template <typename ConvFn>
std::vector<tensor::Tensor> walk(const ir::Graph& graph, tensor::TensorView batch,
                                 ConvFn&& conv) {
    std::vector<tensor::Tensor> tensors(static_cast<std::size_t>(graph.num_tensors()));
    tensors[static_cast<std::size_t>(graph.input_id())] = tensor::Tensor(
        batch.shape, std::vector<float>(batch.data, batch.data + batch.size()));
    for (std::size_t i = 0; i < graph.ops().size(); ++i) {
        const ir::Op& op = graph.ops()[i];
        tensor::Tensor out;
        if (op.kind == ir::OpKind::Conv2d) {
            out = conv(i, op, tensors[static_cast<std::size_t>(op.inputs.at(0))]);
        } else {
            std::vector<const tensor::Tensor*> ins;
            ins.reserve(op.inputs.size());
            for (int id : op.inputs) ins.push_back(&tensors[static_cast<std::size_t>(id)]);
            out = apply_nonconv_op(op, ins);
        }
        tensors[static_cast<std::size_t>(op.output)] = std::move(out);
    }
    return tensors;
}

/// The FP32 oracle: every tensor of a float run, indexed by tensor id.
inline std::vector<tensor::Tensor> run_float_all(const ir::Graph& graph,
                                                 tensor::TensorView batch) {
    return walk(graph, batch, [](std::size_t, const ir::Op& op, const tensor::Tensor& in) {
        return conv_float(op, in);
    });
}

inline void im2col_u8(const std::vector<std::uint8_t>& qx, const tensor::Shape& s, int kh,
                      int kw, int stride, int pad, std::vector<std::uint8_t>& columns,
                      int& oh, int& ow) {
    oh = tensor::conv_out_dim(s.h, kh, stride, pad);
    ow = tensor::conv_out_dim(s.w, kw, stride, pad);
    const std::size_t rows = static_cast<std::size_t>(s.c) * static_cast<std::size_t>(kh) *
                             static_cast<std::size_t>(kw);
    const std::size_t cols = static_cast<std::size_t>(s.n) * static_cast<std::size_t>(oh) *
                             static_cast<std::size_t>(ow);
    columns.assign(rows * cols, 0);
    for (int n = 0; n < s.n; ++n)
        for (int c = 0; c < s.c; ++c)
            for (int ky = 0; ky < kh; ++ky)
                for (int kx = 0; kx < kw; ++kx) {
                    const std::size_t row =
                        (static_cast<std::size_t>(c) * static_cast<std::size_t>(kh) +
                         static_cast<std::size_t>(ky)) *
                            static_cast<std::size_t>(kw) +
                        static_cast<std::size_t>(kx);
                    for (int oy = 0; oy < oh; ++oy) {
                        const int iy = oy * stride - pad + ky;
                        if (iy < 0 || iy >= s.h) continue;
                        const std::size_t col_base =
                            (static_cast<std::size_t>(n) * static_cast<std::size_t>(oh) +
                             static_cast<std::size_t>(oy)) *
                            static_cast<std::size_t>(ow);
                        const std::size_t in_base =
                            ((static_cast<std::size_t>(n) * static_cast<std::size_t>(s.c) +
                              static_cast<std::size_t>(c)) *
                                 static_cast<std::size_t>(s.h) +
                             static_cast<std::size_t>(iy)) *
                            static_cast<std::size_t>(s.w);
                        for (int ox = 0; ox < ow; ++ox) {
                            const int ix = ox * stride - pad + kx;
                            if (ix < 0 || ix >= s.w) continue;
                            columns[row * cols + col_base + static_cast<std::size_t>(ox)] =
                                qx[in_base + static_cast<std::size_t>(ix)];
                        }
                    }
                }
}

inline tensor::Tensor conv_quantized(const ir::Op& op, const quant::QConv& qc,
                                     const common::Padding padding, const tensor::Tensor& in,
                                     inject::BitFlipInjector* injector,
                                     quant::QuantExecStats* stats) {
    const auto& s = in.shape();
    const std::uint8_t act_mask =
        static_cast<std::uint8_t>(0xFFu << (qc.act_mask_bits & 7));
    std::vector<std::uint8_t> qx(in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        qx[i] = static_cast<std::uint8_t>(qc.act.quantize(in[i])) & act_mask;

    std::vector<std::uint8_t> columns;
    int oh = 0, ow = 0;
    im2col_u8(qx, s, op.conv.kh, op.conv.kw, op.conv.stride, op.conv.pad, columns, oh, ow);
    const std::size_t kdim = static_cast<std::size_t>(op.conv.in_c) *
                             static_cast<std::size_t>(op.conv.kh) *
                             static_cast<std::size_t>(op.conv.kw);
    const std::size_t cols = static_cast<std::size_t>(s.n) * static_cast<std::size_t>(oh) *
                             static_cast<std::size_t>(ow);

    std::vector<std::int32_t> colsum(cols, 0);
    for (std::size_t k = 0; k < kdim; ++k) {
        const std::uint8_t* row = columns.data() + k * cols;
        for (std::size_t j = 0; j < cols; ++j) colsum[j] += row[j];
    }

    const int shift =
        padding == common::Padding::Lsb ? (8 - qc.act.bits) + (8 - qc.wq(0).bits) : 0;

    tensor::Tensor out({s.n, op.conv.out_c, oh, ow});
    const std::size_t hw = static_cast<std::size_t>(oh) * static_cast<std::size_t>(ow);
    std::vector<std::int64_t> acc(cols);
    for (int oc = 0; oc < op.conv.out_c; ++oc) {
        const std::uint8_t* wrow = qc.qweights.data() + static_cast<std::size_t>(oc) * kdim;
        std::fill(acc.begin(), acc.end(), 0);
        if (injector == nullptr) {
            for (std::size_t k = 0; k < kdim; ++k) {
                const std::int32_t w = wrow[k];
                if (w == 0) continue;
                const std::uint8_t* crow = columns.data() + k * cols;
                for (std::size_t j = 0; j < cols; ++j) acc[j] += w * crow[j];
            }
        } else {
            for (std::size_t k = 0; k < kdim; ++k) {
                const std::int32_t w = wrow[k];
                const std::uint8_t* crow = columns.data() + k * cols;
                for (std::size_t j = 0; j < cols; ++j) {
                    std::int64_t product = static_cast<std::int64_t>(w) * crow[j];
                    product = injector->apply(product);
                    acc[j] += product;
                }
            }
        }
        if (stats) stats->mac_count += kdim * cols;

        const quant::QuantParams& wq = qc.wq(oc);
        const float scale = qc.act.scale * wq.scale;
        const std::int32_t zw = wq.zero_point;
        const std::int64_t qb = qc.qbias[static_cast<std::size_t>(oc)];
        for (std::size_t j = 0; j < cols; ++j) {
            const std::int64_t corrected =
                acc[j] - static_cast<std::int64_t>(zw) * colsum[j] + qb;
            if (stats) {
                const std::int64_t mag = (corrected < 0 ? -corrected : corrected) << shift;
                stats->max_abs_accumulator = std::max(stats->max_abs_accumulator, mag);
                if (mag >= (std::int64_t{1} << 22)) ++stats->accumulator_overflows;
            }
            const std::size_t n = j / hw;
            const std::size_t pos = j % hw;
            out.data()[(n * static_cast<std::size_t>(op.conv.out_c) +
                        static_cast<std::size_t>(oc)) *
                           hw +
                       pos] = static_cast<float>(corrected) * scale;
        }
    }
    if (stats && injector) stats->flips = injector->flips_injected();
    return out;
}

inline tensor::Tensor run_quantized(const quant::QuantizedGraph& qgraph,
                                    const tensor::Tensor& batch,
                                    inject::BitFlipInjector* injector = nullptr,
                                    quant::QuantExecStats* stats = nullptr) {
    const ir::Graph& graph = qgraph.graph();
    auto tensors = walk(graph, batch, [&](std::size_t i, const ir::Op& op,
                                          const tensor::Tensor& in) {
        return conv_quantized(op, qgraph.conv(i), qgraph.config().padding, in, injector, stats);
    });
    return std::move(tensors[static_cast<std::size_t>(graph.output_id())]);
}

}  // namespace raq::seedref
