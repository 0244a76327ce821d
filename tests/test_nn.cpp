#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "common/rng.hpp"
#include "data/synthetic_dataset.hpp"
#include "exec/engine.hpp"
#include "nn/model_cache.hpp"
#include "nn/trainer.hpp"
#include "nn/zoo.hpp"

namespace {

using namespace raq;
using nn::BatchNorm2d;
using nn::Conv2d;
using nn::GlobalAvgPool;
using nn::Linear;
using nn::MaxPool2d;
using nn::Module;
using nn::Param;
using nn::ReLU;
using tensor::Shape;
using tensor::Tensor;

Tensor random_tensor(const Shape& s, std::uint64_t seed) {
    Tensor t(s);
    common::Rng rng(seed);
    for (auto& v : t.vec()) v = static_cast<float>(rng.next_gaussian());
    return t;
}

/// Scalar loss L = sum(out * coeffs) used for finite-difference checks.
double weighted_sum(const Tensor& out, const std::vector<float>& coeffs) {
    double acc = 0;
    for (std::size_t i = 0; i < out.size(); ++i) acc += static_cast<double>(out[i]) * coeffs[i];
    return acc;
}

/// Verify module input gradients and parameter gradients against central
/// finite differences on a handful of randomly chosen entries.
void check_gradients(Module& module, const Shape& in_shape, std::uint64_t seed,
                     double tolerance = 2e-2) {
    Tensor x = random_tensor(in_shape, seed);
    Tensor out = module.forward(x, /*training=*/true);
    std::vector<float> coeffs(out.size());
    common::Rng rng(seed ^ 0xC0FFEE);
    for (auto& c : coeffs) c = static_cast<float>(rng.next_gaussian());

    Tensor grad_out(out.shape());
    for (std::size_t i = 0; i < grad_out.size(); ++i) grad_out[i] = coeffs[i];
    std::vector<Param*> params;
    module.collect_params(params);
    for (Param* p : params) std::fill(p->grad.begin(), p->grad.end(), 0.0f);
    const Tensor grad_in = module.backward(grad_out);

    const float eps = 1e-2f;
    // Input gradients.
    for (int probe = 0; probe < 6; ++probe) {
        const auto idx = static_cast<std::size_t>(rng.next_below(x.size()));
        Tensor xp = x, xm = x;
        xp[idx] += eps;
        xm[idx] -= eps;
        const double lp = weighted_sum(module.forward(xp, true), coeffs);
        const double lm = weighted_sum(module.forward(xm, true), coeffs);
        const double numeric = (lp - lm) / (2 * eps);
        EXPECT_NEAR(grad_in[idx], numeric,
                    tolerance * std::max(1.0, std::abs(numeric)))
            << "input idx " << idx;
    }
    // Parameter gradients (trainable only).
    for (Param* p : params) {
        if (!p->trainable || p->value.empty()) continue;
        for (int probe = 0; probe < 4; ++probe) {
            const auto idx = static_cast<std::size_t>(rng.next_below(p->value.size()));
            const float saved = p->value[idx];
            p->value[idx] = saved + eps;
            const double lp = weighted_sum(module.forward(x, true), coeffs);
            p->value[idx] = saved - eps;
            const double lm = weighted_sum(module.forward(x, true), coeffs);
            p->value[idx] = saved;
            const double numeric = (lp - lm) / (2 * eps);
            EXPECT_NEAR(p->grad[idx], numeric,
                        tolerance * std::max(1.0, std::abs(numeric)))
                << p->name << " idx " << idx;
        }
    }
}

TEST(Gradients, Conv2d) {
    Conv2d conv(3, 4, 3, 1, 1, 42, "t.conv");
    check_gradients(conv, {2, 3, 5, 5}, 1);
}

TEST(Gradients, Conv2dStrided) {
    Conv2d conv(2, 3, 3, 2, 1, 43, "t.conv2");
    check_gradients(conv, {2, 2, 6, 6}, 2);
}

TEST(Gradients, Linear) {
    Linear fc(12, 5, 44, "t.fc");
    check_gradients(fc, {3, 12, 1, 1}, 3);
}

TEST(Gradients, BatchNorm) {
    BatchNorm2d bn(4, "t.bn");
    check_gradients(bn, {4, 4, 3, 3}, 4, /*tolerance=*/5e-2);
}

TEST(Gradients, ReLU) {
    ReLU relu;
    check_gradients(relu, {2, 3, 4, 4}, 5);
}

TEST(Gradients, MaxPool) {
    MaxPool2d pool(2, 2);
    check_gradients(pool, {2, 2, 6, 6}, 6);
}

TEST(Gradients, GlobalAvgPool) {
    GlobalAvgPool gap;
    check_gradients(gap, {2, 3, 4, 4}, 7);
}

TEST(Gradients, ResidualBlockWithProjection) {
    auto main = std::make_unique<nn::Sequential>();
    main->add(std::make_unique<Conv2d>(3, 4, 3, 2, 1, 48, "rb.c1"));
    main->add(std::make_unique<BatchNorm2d>(4, "rb.bn1"));
    main->add(std::make_unique<ReLU>());
    main->add(std::make_unique<Conv2d>(4, 4, 3, 1, 1, 49, "rb.c2"));
    auto shortcut = std::make_unique<nn::Sequential>();
    shortcut->add(std::make_unique<Conv2d>(3, 4, 1, 2, 0, 50, "rb.proj"));
    nn::ResidualBlock block(std::move(main), std::move(shortcut));
    check_gradients(block, {2, 3, 6, 6}, 8, /*tolerance=*/5e-2);
}

TEST(Gradients, FireModule) {
    // Zero-initialized biases put many pre-activations exactly on the
    // ReLU kink (the squeeze output is sparse), where finite differences
    // are ill-posed. Jitter all parameters off the kinks first.
    nn::FireModule fire(4, 2, 3, 51, "t.fire");
    std::vector<Param*> params;
    fire.collect_params(params);
    common::Rng jitter(123);
    for (Param* p : params)
        for (auto& v : p->value) v += 0.2f + 0.1f * static_cast<float>(jitter.next_gaussian());
    check_gradients(fire, {2, 4, 4, 4}, 9, /*tolerance=*/5e-2);
}

TEST(BatchNorm, NormalizesTrainingBatch) {
    BatchNorm2d bn(2, "t.bn2");
    Tensor x = random_tensor({8, 2, 4, 4}, 11);
    for (auto& v : x.vec()) v = v * 3.0f + 5.0f;  // mean 5, std 3
    const Tensor y = bn.forward(x, true);
    double sum = 0, sq = 0;
    for (int n = 0; n < 8; ++n)
        for (int h = 0; h < 4; ++h)
            for (int w = 0; w < 4; ++w) {
                sum += y.at(n, 0, h, w);
                sq += static_cast<double>(y.at(n, 0, h, w)) * y.at(n, 0, h, w);
            }
    const double m = sum / (8 * 16);
    EXPECT_NEAR(m, 0.0, 1e-3);
    EXPECT_NEAR(sq / (8 * 16) - m * m, 1.0, 1e-2);
}

TEST(BatchNorm, FoldedAffineMatchesInferenceForward) {
    BatchNorm2d bn(3, "t.bn3");
    // Push the running stats away from the defaults.
    Tensor x = random_tensor({16, 3, 4, 4}, 12);
    for (int i = 0; i < 10; ++i) bn.forward(x, true);
    std::vector<float> scale, shift;
    bn.folded_affine(scale, shift);
    const Tensor y = bn.forward(x, /*training=*/false);
    for (int probe = 0; probe < 20; ++probe) {
        const int n = probe % 16, c = probe % 3, h = probe % 4, w = (probe * 7) % 4;
        EXPECT_NEAR(y.at(n, c, h, w),
                    scale[static_cast<std::size_t>(c)] * x.at(n, c, h, w) +
                        shift[static_cast<std::size_t>(c)],
                    1e-4);
    }
}

TEST(Zoo, AllNetworksConstructAndExport) {
    for (const auto& name : nn::all_networks()) {
        auto net = nn::make_network(name);
        EXPECT_GT(net.num_weights(), 1000u) << name;
        auto graph = net.export_ir();
        EXPECT_GT(graph.macs_per_sample(), 10000u) << name;
        EXPECT_GT(graph.num_conv_ops(), 3) << name;
        // Deterministic rebuild: same name -> same weights.
        auto net2 = nn::make_network(name);
        auto p1 = net.parameters();
        auto p2 = net2.parameters();
        ASSERT_EQ(p1.size(), p2.size());
        EXPECT_EQ(p1[0]->value, p2[0]->value) << name;
    }
    EXPECT_THROW(nn::make_network("not-a-net"), std::invalid_argument);
}

TEST(Zoo, DepthOrderingWithinFamilies) {
    auto macs = [](const char* name) {
        auto net = nn::make_network(name);
        return net.export_ir().macs_per_sample();
    };
    EXPECT_LT(macs("resnet50-mini"), macs("resnet101-mini"));
    EXPECT_LT(macs("resnet101-mini"), macs("resnet152-mini"));
    EXPECT_LT(macs("vgg13-mini"), macs("vgg16-mini"));
    EXPECT_LT(macs("vgg16-mini"), macs("vgg19-mini"));
    EXPECT_LT(macs("resnet20-mini"), macs("resnet32-mini"));
    EXPECT_LT(macs("resnet32-mini"), macs("resnet44-mini"));
    // Wide variants widen the bottleneck (more MACs than the plain ones).
    EXPECT_GT(macs("wide-resnet50-mini"), macs("resnet50-mini"));
    EXPECT_GT(macs("wide-resnet101-mini"), macs("resnet101-mini"));
}

TEST(Training, TinyNetworkLearnsTheTask) {
    data::DatasetConfig dc;
    dc.train_size = 900;
    dc.test_size = 200;
    const data::SyntheticDataset ds(dc);
    auto net = nn::make_network("vgg13-mini");
    nn::TrainConfig cfg;
    cfg.epochs = 4;
    nn::SgdTrainer trainer(cfg);
    const auto result = trainer.fit(net, ds);
    EXPECT_GT(result.test_accuracy, 0.60) << "chance level is 0.10";
    EXPECT_LT(result.final_train_loss, 1.2);
}

TEST(Training, CrossEntropyGradientSumsToZeroPerSample) {
    Tensor logits = random_tensor({4, 10, 1, 1}, 21);
    Tensor grad;
    const std::vector<int> labels{1, 3, 5, 9};
    const double loss = nn::cross_entropy_loss(logits, labels, grad);
    EXPECT_GT(loss, 0.0);
    for (int n = 0; n < 4; ++n) {
        double sum = 0;
        for (int c = 0; c < 10; ++c) sum += grad.at(n, c, 0, 0);
        EXPECT_NEAR(sum, 0.0, 1e-6);
    }
}

TEST(Network, SaveLoadRoundTrip) {
    const std::string path = "/tmp/raq_test_net.bin";
    auto net = nn::make_network("alexnet-mini");
    // Perturb weights so we are not just reloading the init.
    for (Param* p : net.parameters())
        for (auto& v : p->value) v += 0.125f;
    net.save(path);
    auto net2 = nn::make_network("alexnet-mini");
    net2.load(path);
    const auto p1 = net.parameters();
    const auto p2 = net2.parameters();
    ASSERT_EQ(p1.size(), p2.size());
    for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p1[i]->value, p2[i]->value);
    // Wrong-model load is rejected.
    auto other = nn::make_network("vgg13-mini");
    EXPECT_THROW(other.load(path), std::runtime_error);
    std::filesystem::remove(path);
}

TEST(Network, IrExportMatchesModuleInference) {
    data::DatasetConfig dc;
    dc.train_size = 300;
    dc.test_size = 100;
    const data::SyntheticDataset ds(dc);
    auto net = nn::make_network("resnet20-mini");
    nn::TrainConfig cfg;
    cfg.epochs = 1;
    nn::SgdTrainer trainer(cfg);
    trainer.fit(net, ds);  // realistic BN running stats

    const Tensor batch = ds.test_batch(0, 32);
    const Tensor module_logits = net.forward(batch, /*training=*/false);
    const auto graph = net.export_ir();
    const Tensor ir_logits = exec::FloatRunner(graph, batch.shape().n).run(batch);
    ASSERT_EQ(module_logits.size(), ir_logits.size());
    for (std::size_t i = 0; i < module_logits.size(); ++i)
        ASSERT_NEAR(module_logits[i], ir_logits[i], 5e-3f) << "logit " << i;
}

TEST(ModelCache, TrainsOnceThenLoads) {
    const std::string dir = "/tmp/raq_test_cache";
    std::filesystem::remove_all(dir);
    data::DatasetConfig dc;
    dc.train_size = 256;
    dc.test_size = 64;
    {
        nn::ModelCache cache(dir, dc);
        auto& net = cache.get("alexnet-mini");  // trains (small data, fast)
        EXPECT_TRUE(std::filesystem::exists(cache.model_path("alexnet-mini")));
        auto& again = cache.get("alexnet-mini");
        EXPECT_EQ(&net, &again);  // same instance
    }
    {
        nn::ModelCache cache(dir, dc);
        EXPECT_NO_THROW(cache.get("alexnet-mini"));  // loads from disk
    }
    std::filesystem::remove_all(dir);
}

}  // namespace
