// FP32 accuracy of the deployment IR: the baseline the paper reports
// accuracy loss against. Execution itself is the planned engine
// (exec::FloatRunner); the independent FP32 oracle the tests compare it
// against lives in tests/seed_interpreter_ref.hpp.
#pragma once

#include <vector>

#include "ir/graph.hpp"
#include "tensor/tensor.hpp"

namespace raq::ir {

/// Argmax class per sample from (N, classes, 1, 1) logits.
[[nodiscard]] std::vector<int> argmax_classes(const tensor::Tensor& logits);

/// Top-1 accuracy of the graph on (images, labels). Evaluates in batched
/// zero-copy slices through the planned engine; per-sample results (and
/// therefore the accuracy) are bit-identical to one whole-set run.
[[nodiscard]] double float_accuracy(const Graph& graph, tensor::TensorView images,
                                    const std::vector<int>& labels);

}  // namespace raq::ir
