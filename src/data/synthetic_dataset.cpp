#include "data/synthetic_dataset.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"

namespace raq::data {

namespace {

constexpr double kPi = 3.14159265358979323846;

struct ClassSignature {
    double orientation;   ///< grating angle
    double frequency;     ///< cycles across the image
    float color[3][2];    ///< per-channel (base, modulation) palette
    int shape;            ///< 0 disc, 1 ring, 2 bar, 3 checker
};

/// Deterministic per-class signatures. Orientations/frequencies are
/// spaced closely enough that classes overlap in individual features and
/// the classifier must combine texture + color + shape — this keeps FP32
/// accuracy below saturation and makes low-bit quantization losses
/// graceful and measurable (the regime of the paper's Table 1).
ClassSignature make_signature(int cls, common::Rng& rng) {
    ClassSignature sig{};
    sig.orientation = (cls % 7) * (kPi / 7.0) + 0.05;
    sig.frequency = 2.6 + 0.9 * (cls % 4) + 0.45 * (cls / 4);
    for (int ch = 0; ch < 3; ++ch) {
        sig.color[ch][0] = 0.30f + 0.35f * static_cast<float>(rng.next_double());
        sig.color[ch][1] = 0.12f + 0.22f * static_cast<float>(rng.next_double());
    }
    sig.shape = cls % 4;
    return sig;
}

float shape_mask(int shape, double u, double v) {
    // u, v in [-1, 1]
    switch (shape) {
        case 0: return (u * u + v * v < 0.55) ? 1.0f : 0.35f;               // disc
        case 1: {
            const double r = std::sqrt(u * u + v * v);
            return (r > 0.35 && r < 0.8) ? 1.0f : 0.35f;                    // ring
        }
        case 2: return (std::abs(u) < 0.33) ? 1.0f : 0.35f;                 // bar
        default: return ((u > 0) == (v > 0)) ? 1.0f : 0.45f;                // checker
    }
}

void render_sample(const ClassSignature& sig, int size, float noise, common::Rng& rng,
                   float* out /* [3, size, size] */) {
    const double phase = rng.next_double() * 2.0 * kPi;
    const double dx = (rng.next_double() - 0.5) * 0.35;
    const double dy = (rng.next_double() - 0.5) * 0.35;
    const double amp = 0.75 + 0.5 * rng.next_double();
    const double cosq = std::cos(sig.orientation);
    const double sinq = std::sin(sig.orientation);
    for (int y = 0; y < size; ++y) {
        for (int x = 0; x < size; ++x) {
            const double u = 2.0 * (static_cast<double>(x) / (size - 1)) - 1.0 + dx;
            const double v = 2.0 * (static_cast<double>(y) / (size - 1)) - 1.0 + dy;
            const double t = u * cosq + v * sinq;
            const double grating =
                0.5 + 0.5 * std::sin(2.0 * kPi * sig.frequency * 0.5 * t + phase);
            const float mask = shape_mask(sig.shape, u, v);
            for (int ch = 0; ch < 3; ++ch) {
                const double base = sig.color[ch][0];
                const double mod = sig.color[ch][1] * amp * grating * mask;
                double value = base + mod + noise * rng.next_gaussian();
                if (value < 0.0) value = 0.0;
                if (value > 1.0) value = 1.0;
                out[(static_cast<std::size_t>(ch) * size + y) * size + x] =
                    static_cast<float>(value);
            }
        }
    }
}

std::size_t image_floats(const DatasetConfig& config) {
    return 3u * static_cast<std::size_t>(config.image_size) *
           static_cast<std::size_t>(config.image_size);
}

/// Render samples [first, last) of a split into `out`, drawing from the
/// split's stream `rng`, which must stand just after sample first − 1.
void render_range(const DatasetConfig& config, common::Rng& rng, int first, int last,
                  float* out) {
    common::Rng sig_rng(config.seed);
    std::vector<ClassSignature> signatures;
    signatures.reserve(static_cast<std::size_t>(config.num_classes));
    for (int c = 0; c < config.num_classes; ++c)
        signatures.push_back(make_signature(c, sig_rng));
    const std::size_t pixels = image_floats(config);
    for (int i = first; i < last; ++i) {
        const int cls = i % config.num_classes;  // balanced classes
        render_sample(signatures[static_cast<std::size_t>(cls)], config.image_size,
                      config.noise_stddev, rng,
                      out + static_cast<std::size_t>(i - first) * pixels);
    }
}

std::vector<int> balanced_labels(int count, int num_classes) {
    std::vector<int> labels(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) labels[static_cast<std::size_t>(i)] = i % num_classes;
    return labels;
}

}  // namespace

SyntheticDataset::SyntheticDataset(const DatasetConfig& config)
    : config_(config), train_rng_(config.seed ^ 0x7241AAu) {
    if (config_.num_classes < 2 || config_.image_size < 4)
        throw std::invalid_argument("SyntheticDataset: degenerate configuration");
    train_labels_ = balanced_labels(config_.train_size, config_.num_classes);
    test_labels_ = balanced_labels(config_.test_size, config_.num_classes);
    common::Rng test_rng(config_.seed ^ 0x7E57BBu);
    test_images_.resize(static_cast<std::size_t>(config_.test_size) * image_floats(config_));
    render_range(config_, test_rng, 0, config_.test_size, test_images_.data());
}

void SyntheticDataset::render_train_locked(int n) const {
    if (n <= train_rendered_) return;
    const std::size_t pixels = image_floats(config_);
    train_images_.resize(static_cast<std::size_t>(n) * pixels);
    render_range(config_, train_rng_, train_rendered_, n,
                 train_images_.data() + static_cast<std::size_t>(train_rendered_) * pixels);
    train_rendered_ = n;
}

tensor::Tensor SyntheticDataset::train_batch(int first, int count) const {
    if (first < 0 || first + count > config_.train_size)
        throw std::out_of_range("SyntheticDataset: train batch out of range");
    const std::size_t pixels = image_floats(config_);
    tensor::Tensor batch(
        {count, 3, config_.image_size, config_.image_size});
    const common::MutexLock lock(train_mutex_);
    render_train_locked(first + count);
    std::copy(train_images_.begin() + static_cast<long>(first * pixels),
              train_images_.begin() + static_cast<long>((first + count) * pixels),
              batch.data());
    return batch;
}

tensor::Tensor SyntheticDataset::test_batch(int first, int count) const {
    if (first < 0 || first + count > config_.test_size)
        throw std::out_of_range("SyntheticDataset: test batch out of range");
    const std::size_t pixels = 3u * static_cast<std::size_t>(config_.image_size) *
                               static_cast<std::size_t>(config_.image_size);
    tensor::Tensor batch(
        {count, 3, config_.image_size, config_.image_size});
    std::copy(test_images_.begin() + static_cast<long>(first * pixels),
              test_images_.begin() + static_cast<long>((first + count) * pixels),
              batch.data());
    return batch;
}

std::vector<int> SyntheticDataset::epoch_order(int epoch) const {
    std::vector<int> order(static_cast<std::size_t>(config_.train_size));
    std::iota(order.begin(), order.end(), 0);
    common::Rng rng(config_.seed + 0x9E3779B9u * static_cast<std::uint64_t>(epoch + 1));
    for (std::size_t i = order.size(); i > 1; --i) {
        const std::size_t j = static_cast<std::size_t>(rng.next_below(i));
        std::swap(order[i - 1], order[j]);
    }
    return order;
}

tensor::Tensor SyntheticDataset::gather_train(const std::vector<int>& indices) const {
    for (const int idx : indices)
        if (idx < 0 || idx >= config_.train_size)
            throw std::out_of_range("SyntheticDataset: gather index out of range");
    const std::size_t pixels = image_floats(config_);
    tensor::Tensor batch({static_cast<int>(indices.size()), 3, config_.image_size,
                          config_.image_size});
    const common::MutexLock lock(train_mutex_);
    render_train_locked(config_.train_size);
    for (std::size_t i = 0; i < indices.size(); ++i) {
        const std::size_t idx = static_cast<std::size_t>(indices[i]);
        std::copy(train_images_.begin() + static_cast<long>(idx * pixels),
                  train_images_.begin() + static_cast<long>((idx + 1) * pixels),
                  batch.data() + i * pixels);
    }
    return batch;
}

}  // namespace raq::data
