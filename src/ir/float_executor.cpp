#include "ir/float_executor.hpp"

#include <algorithm>
#include <stdexcept>

#include "exec/engine.hpp"

namespace raq::ir {

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
