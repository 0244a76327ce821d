#include "ir/float_executor.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "exec/engine.hpp"
#include "tensor/gemm.hpp"

namespace raq::ir {

namespace {

tensor::Tensor conv_forward(const Op& op, const tensor::Tensor& in) {
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

tensor::Tensor maxpool_forward(const Op& op, const tensor::Tensor& in) {
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

/// The seed tree-walking interpreter. `eager_free` drops every
/// intermediate right after its last consumer (the input and the graph
/// output stay pinned); `visit` sees each tensor while it is live.
void walk(const Graph& graph, tensor::TensorView batch, bool eager_free,
          const std::function<void(int, const tensor::Tensor&)>& visit,
          std::vector<tensor::Tensor>* keep) {
    if (!(batch.shape.c == graph.input_shape().c && batch.shape.h == graph.input_shape().h &&
          batch.shape.w == graph.input_shape().w))
        throw std::invalid_argument("run_float: batch shape does not match graph input");

    const std::size_t num_tensors = static_cast<std::size_t>(graph.num_tensors());
    std::vector<int> remaining_uses(num_tensors, 0);
    if (eager_free)
        for (const Op& op : graph.ops())
            for (const int in : op.inputs) ++remaining_uses[static_cast<std::size_t>(in)];

    std::vector<tensor::Tensor> tensors(num_tensors);
    tensors[static_cast<std::size_t>(graph.input_id())] = tensor::Tensor(
        batch.shape, std::vector<float>(batch.data, batch.data + batch.size()));
    if (visit) visit(graph.input_id(), tensors[static_cast<std::size_t>(graph.input_id())]);

    for (const Op& op : graph.ops()) {
        tensor::Tensor out;
        if (op.kind == OpKind::Conv2d) {
            out = conv_forward(op, tensors[static_cast<std::size_t>(op.inputs.at(0))]);
        } else {
            std::vector<const tensor::Tensor*> ins;
            ins.reserve(op.inputs.size());
            for (int id : op.inputs) ins.push_back(&tensors[static_cast<std::size_t>(id)]);
            out = apply_nonconv_op(op, ins);
        }
        tensors[static_cast<std::size_t>(op.output)] = std::move(out);
        if (visit) visit(op.output, tensors[static_cast<std::size_t>(op.output)]);
        if (!eager_free) continue;
        for (const int in : op.inputs) {
            if (--remaining_uses[static_cast<std::size_t>(in)] > 0) continue;
            if (in == graph.input_id() || in == graph.output_id()) continue;
            tensors[static_cast<std::size_t>(in)] = tensor::Tensor{};  // release storage
        }
    }
    if (keep) *keep = std::move(tensors);
}

}  // namespace

tensor::Tensor apply_nonconv_op(const Op& op, const std::vector<const tensor::Tensor*>& ins) {
    const tensor::Tensor& in0 = *ins.at(0);
    switch (op.kind) {
        case OpKind::Conv2d:
            throw std::invalid_argument("apply_nonconv_op: conv not handled here");
        case OpKind::Relu: {
            tensor::Tensor out = in0;
            for (auto& v : out.vec()) v = v > 0 ? v : 0.0f;
            return out;
        }
        case OpKind::MaxPool2d:
            return maxpool_forward(op, in0);
        case OpKind::GlobalAvgPool: {
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
        case OpKind::Add: {
            const tensor::Tensor& in1 = *ins.at(1);
            tensor::Tensor out = in0;
            for (std::size_t i = 0; i < out.size(); ++i) out[i] += in1[i];
            return out;
        }
        case OpKind::Concat: {
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

std::vector<tensor::Tensor> run_float_all(const Graph& graph, tensor::TensorView batch) {
    std::vector<tensor::Tensor> tensors;
    walk(graph, batch, /*eager_free=*/false, nullptr, &tensors);
    return tensors;
}

void for_each_float_tensor(const Graph& graph, tensor::TensorView batch,
                           const std::function<void(int, const tensor::Tensor&)>& visit) {
    walk(graph, batch, /*eager_free=*/true, visit, nullptr);
}

tensor::Tensor run_float(const Graph& graph, tensor::TensorView batch) {
    exec::FloatRunner runner(graph, batch.shape.n);
    return runner.run(batch);
}

std::vector<int> argmax_classes(const tensor::Tensor& logits) {
    const auto& s = logits.shape();
    std::vector<int> out(static_cast<std::size_t>(s.n));
    for (int n = 0; n < s.n; ++n) {
        int best = 0;
        float best_v = logits.at(n, 0, 0, 0);
        for (int c = 1; c < s.c; ++c) {
            const float v = logits.at(n, c, 0, 0);
            if (v > best_v) {
                best_v = v;
                best = c;
            }
        }
        out[static_cast<std::size_t>(n)] = best;
    }
    return out;
}

double float_accuracy(const Graph& graph, tensor::TensorView images,
                      const std::vector<int>& labels) {
    if (static_cast<std::size_t>(images.shape.n) != labels.size())
        throw std::invalid_argument("float_accuracy: label count mismatch");
    // Bounded batches keep the arena (and its im2col workspaces) small: a
    // few MB at 32 on the mini networks, and no slower than 128. It
    // matters beyond this call, because the allocator keeps the freed
    // transient resident (each serving device's RequantJob runs this).
    // Per-sample logits do not depend on batching, so the accuracy is
    // bit-identical to a single whole-set run.
    const int total = images.shape.n;
    const int batch_size = std::min(total, 32);
    exec::FloatRunner runner(graph, batch_size);
    std::size_t correct = 0;
    for (int start = 0; start < total; start += batch_size) {
        const int count = std::min(batch_size, total - start);
        const auto preds = argmax_classes(runner.run(images.batch_view(start, count)));
        for (int i = 0; i < count; ++i)
            correct += (preds[static_cast<std::size_t>(i)] ==
                        labels[static_cast<std::size_t>(start + i)]);
    }
    return static_cast<double>(correct) / static_cast<double>(total);
}

}  // namespace raq::ir
