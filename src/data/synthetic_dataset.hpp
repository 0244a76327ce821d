// Synthetic image classification dataset (ImageNet substitute).
//
// Substitution note (DESIGN.md §2): ImageNet and pretrained torchvision
// weights are unavailable offline, and the paper's conclusions rest on
// *relative* accuracy deltas under quantization/error injection across
// architectures — not on ImageNet absolute accuracy. This generator
// produces a 10-class task whose decision boundary needs convolutional
// texture + color + shape features:
//   each class owns a (orientation, spatial frequency, color palette,
//   shape mask) signature; each sample perturbs phase, translation,
//   amplitude and adds pixel noise. Classes are separable but only with
//   enough precision — low bit-width quantization degrades accuracy
//   smoothly, exactly the regime the paper studies.
#pragma once

#include <cstdint>
#include <vector>

#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace raq::data {

struct DatasetConfig {
    int num_classes = 10;
    int image_size = 16;   ///< square RGB images (3 x size x size)
    int train_size = 3000;
    int test_size = 1000;
    std::uint64_t seed = 0xDA7A5E7;
    float noise_stddev = 0.26f;  ///< pixel-wise Gaussian noise
};

/// The test split and all labels are rendered at construction. The
/// training split is rendered on demand, as a prefix: most processes read
/// only a calibration batch from its head, and the split is one
/// sequential RNG stream, so a prefix has the same bits whether or not the
/// rest is ever rendered. Every method is safe to call concurrently.
class SyntheticDataset {
public:
    explicit SyntheticDataset(const DatasetConfig& config = {});

    [[nodiscard]] const DatasetConfig& config() const { return config_; }

    [[nodiscard]] int train_size() const { return config_.train_size; }
    [[nodiscard]] int test_size() const { return config_.test_size; }

    /// Batch of training images [count, 3, s, s], starting at `first`.
    /// Renders the training split up to first + count.
    [[nodiscard]] tensor::Tensor train_batch(int first, int count) const
        RAQ_EXCLUDES(train_mutex_);
    [[nodiscard]] tensor::Tensor test_batch(int first, int count) const;
    [[nodiscard]] const std::vector<int>& train_labels() const { return train_labels_; }
    [[nodiscard]] const std::vector<int>& test_labels() const { return test_labels_; }

    /// A shuffled index order for one training epoch (deterministic in
    /// `epoch` and the dataset seed).
    [[nodiscard]] std::vector<int> epoch_order(int epoch) const;

    /// Gather an arbitrary index set into one batch (for shuffled SGD).
    /// Renders the whole training split.
    [[nodiscard]] tensor::Tensor gather_train(const std::vector<int>& indices) const
        RAQ_EXCLUDES(train_mutex_);

private:
    /// Render training samples [train_rendered_, n) in order.
    void render_train_locked(int n) const RAQ_REQUIRES(train_mutex_);

    DatasetConfig config_;
    std::vector<float> test_images_;  // flattened [test_size, 3, s, s]
    std::vector<int> train_labels_;
    std::vector<int> test_labels_;
    // The rendered training prefix and the stream that continues it; const
    // readers render, hence mutable.
    mutable common::Mutex train_mutex_;
    mutable std::vector<float> train_images_ RAQ_GUARDED_BY(train_mutex_);
    mutable common::Rng train_rng_ RAQ_GUARDED_BY(train_mutex_);
    mutable int train_rendered_ RAQ_GUARDED_BY(train_mutex_) = 0;
};

}  // namespace raq::data
