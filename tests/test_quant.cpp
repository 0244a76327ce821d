#include <gtest/gtest.h>

#include "data/synthetic_dataset.hpp"
#include "ir/float_executor.hpp"
#include "nn/trainer.hpp"
#include "nn/zoo.hpp"
#include "quant/evaluate.hpp"
#include "quant/methods.hpp"
#include "quant/quant_executor.hpp"

namespace {

using namespace raq;
using quant::Method;
using quant::QuantConfig;
using quant::QuantParams;

TEST(QuantParams, RoundTripWithinHalfStep) {
    const QuantParams p = QuantParams::from_range(-1.0f, 3.0f, 8);
    for (float x : {-1.0f, -0.5f, 0.0f, 1.2345f, 2.999f}) {
        const auto q = p.quantize(x);
        EXPECT_GE(q, 0);
        EXPECT_LE(q, p.qmax());
        EXPECT_NEAR(p.dequantize(q), x, p.scale * 0.51f);
    }
}

TEST(QuantParams, ClampsOutOfRange) {
    const QuantParams p = QuantParams::activation_range(2.0f, 8);
    EXPECT_EQ(p.quantize(-5.0f), 0);
    EXPECT_EQ(p.quantize(100.0f), 255);
    EXPECT_EQ(p.zero_point, 0);
}

TEST(QuantParams, SymmetricCentersZero) {
    const QuantParams p = QuantParams::symmetric(1.0f, 8);
    EXPECT_EQ(p.zero_point, 128);
    EXPECT_EQ(p.quantize(0.0f), 128);
    EXPECT_NEAR(p.dequantize(p.quantize(0.5f)), 0.5f, p.scale);
    EXPECT_NEAR(p.dequantize(p.quantize(-0.5f)), -0.5f, p.scale);
}

TEST(QuantParams, FewerBitsCoarserScale) {
    const QuantParams p8 = QuantParams::from_range(0.0f, 1.0f, 8);
    const QuantParams p4 = QuantParams::from_range(0.0f, 1.0f, 4);
    EXPECT_GT(p4.scale, p8.scale);
    EXPECT_EQ(p4.qmax(), 15);
}

TEST(QuantConfig, FromCompressionFollowsPaperMapping) {
    const auto cfg = QuantConfig::from_compression({3, 2, common::Padding::Lsb});
    EXPECT_EQ(cfg.act_bits, 5);
    EXPECT_EQ(cfg.weight_bits, 6);
    EXPECT_EQ(cfg.bias_bits, 11);
    EXPECT_EQ(cfg.padding, common::Padding::Lsb);
    EXPECT_EQ(cfg.to_string(), "W6A5B11/LSB");
    EXPECT_THROW(QuantConfig::from_compression({8, 0, common::Padding::Msb}),
                 std::invalid_argument);
}

TEST(Aciq, LaplaceClipGrowsWithBits) {
    double prev = 0.0;
    for (int bits = 2; bits <= 8; ++bits) {
        const double clip = quant::aciq_laplace_clip(1.0, bits);
        EXPECT_GT(clip, prev) << "bits " << bits;
        prev = clip;
    }
    // Scale equivariance: clip(b) = b * clip(1).
    EXPECT_NEAR(quant::aciq_laplace_clip(2.5, 4), 2.5 * quant::aciq_laplace_clip(1.0, 4),
                1e-6 * quant::aciq_laplace_clip(2.5, 4) + 1e-9);
}

/// Shared fixture: one small trained model + calibration, reused by all
/// accuracy-sensitive quantization tests.
class QuantizedModel : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        data::DatasetConfig dc;
        dc.train_size = 900;
        dc.test_size = 300;
        dataset_ = new data::SyntheticDataset(dc);
        auto net = nn::make_network("vgg13-mini");
        nn::TrainConfig cfg;
        cfg.epochs = 4;
        nn::SgdTrainer trainer(cfg);
        trainer.fit(net, *dataset_);
        graph_ = new ir::Graph(net.export_ir());
        test_images_ = new tensor::Tensor(dataset_->test_batch(0, 300));
        test_labels_ = new std::vector<int>(dataset_->test_labels());
        calib_ = new quant::CalibrationData(quant::calibrate(
            *graph_, dataset_->train_batch(0, 64),
            {dataset_->train_labels().begin(), dataset_->train_labels().begin() + 64}));
        fp32_ = ir::float_accuracy(*graph_, *test_images_, *test_labels_);
    }
    static void TearDownTestSuite() {
        delete dataset_;
        delete graph_;
        delete test_images_;
        delete test_labels_;
        delete calib_;
    }

    static data::SyntheticDataset* dataset_;
    static ir::Graph* graph_;
    static tensor::Tensor* test_images_;
    static std::vector<int>* test_labels_;
    static quant::CalibrationData* calib_;
    static double fp32_;
};

data::SyntheticDataset* QuantizedModel::dataset_ = nullptr;
ir::Graph* QuantizedModel::graph_ = nullptr;
tensor::Tensor* QuantizedModel::test_images_ = nullptr;
std::vector<int>* QuantizedModel::test_labels_ = nullptr;
quant::CalibrationData* QuantizedModel::calib_ = nullptr;
double QuantizedModel::fp32_ = 0.0;

TEST_F(QuantizedModel, Fp32BaselineIsStrong) { EXPECT_GT(fp32_, 0.82); }

TEST_F(QuantizedModel, EightBitIsNearLossless) {
    for (const auto method : quant::all_methods()) {
        const auto q = quant::quantize_graph(*graph_, method, QuantConfig{}, *calib_);
        const double acc = quant::quantized_accuracy(q, *test_images_, *test_labels_);
        EXPECT_GT(acc, fp32_ - 0.02) << quant::method_name(method);
    }
}

TEST_F(QuantizedModel, LsbAndMsbPaddingAreNumericallyIdentical) {
    // Padding only affects data placement in the MAC register (Eq. 5);
    // without injected errors the computation is exact either way.
    auto cfg_msb = QuantConfig::from_compression({2, 3, common::Padding::Msb});
    auto cfg_lsb = QuantConfig::from_compression({2, 3, common::Padding::Lsb});
    const auto q_msb = quant::quantize_graph(*graph_, Method::M5_AciqNoBias, cfg_msb, *calib_);
    const auto q_lsb = quant::quantize_graph(*graph_, Method::M5_AciqNoBias, cfg_lsb, *calib_);
    const auto a = quant::quantized_accuracy(q_msb, *test_images_, *test_labels_);
    const auto b = quant::quantized_accuracy(q_lsb, *test_images_, *test_labels_);
    EXPECT_DOUBLE_EQ(a, b);
}

TEST_F(QuantizedModel, LapqOnACallersRunnerMatchesItsOwn) {
    // The Algorithm 1 search lends LAPQ its eval runner (batch capacity
    // 100, above the 64-image calibration batch); the clips must not move.
    const auto cfg = QuantConfig::from_compression({2, 2, common::Padding::Msb});
    const auto own = quant::quantize_graph(*graph_, Method::M3_Lapq, cfg, *calib_);
    quant::QuantRunner runner(std::make_shared<const quant::QuantizedGraph>(quant::quantize_graph(
                                  *graph_, Method::M5_AciqNoBias, cfg, *calib_)),
                              100);
    const auto lent = quant::quantize_graph(*graph_, Method::M3_Lapq, cfg, *calib_, &runner);
    const auto same = [](const QuantParams& a, const QuantParams& b) {
        return a.scale == b.scale && a.zero_point == b.zero_point && a.bits == b.bits;
    };
    for (std::size_t i = 0; i < graph_->ops().size(); ++i) {
        if (graph_->ops()[i].kind != ir::OpKind::Conv2d) continue;
        const quant::QConv& a = own.conv(i);
        const quant::QConv& b = lent.conv(i);
        EXPECT_TRUE(same(a.act, b.act)) << "conv op " << i;
        EXPECT_EQ(a.qweights, b.qweights) << "conv op " << i;
        EXPECT_EQ(a.qbias, b.qbias) << "conv op " << i;
        ASSERT_EQ(a.weight_q.size(), b.weight_q.size()) << "conv op " << i;
        for (std::size_t q = 0; q < a.weight_q.size(); ++q)
            EXPECT_TRUE(same(a.weight_q[q], b.weight_q[q])) << "conv op " << i << " wq " << q;
    }
}

TEST_F(QuantizedModel, AggressiveCompressionDegradesMore) {
    // Accuracy loss must grow (weakly) along the compression schedule the
    // selector produces: (0,0) -> (2,2) -> (4,4).
    double prev_acc = 1.1;
    for (const int bits_removed : {0, 2, 4}) {
        const auto cfg = QuantConfig::from_compression(
            {bits_removed, bits_removed, common::Padding::Msb});
        const auto q = quant::quantize_graph(*graph_, Method::M2_MinMaxAsymmetric, cfg, *calib_);
        const double acc = quant::quantized_accuracy(q, *test_images_, *test_labels_);
        EXPECT_LE(acc, prev_acc + 0.02) << bits_removed;
        prev_acc = acc;
    }
    EXPECT_LT(prev_acc, fp32_);  // (4,4) with minmax must visibly hurt
}

TEST_F(QuantizedModel, AciqBeatsMinMaxAtLowBitWidths) {
    // The design rationale of the method library (paper §5): analytic
    // per-channel clipping dominates naive per-tensor min/max at low
    // bit-widths. A single configuration is noisy (both methods are far
    // from FP32 there), so compare the average over three low-bit
    // configurations.
    double sum_naive = 0.0, sum_aciq = 0.0;
    for (const auto comp : {common::Compression{4, 4, common::Padding::Msb},
                            common::Compression{3, 4, common::Padding::Msb},
                            common::Compression{4, 5, common::Padding::Msb}}) {
        const auto cfg = QuantConfig::from_compression(comp);
        const auto naive =
            quant::quantize_graph(*graph_, Method::M1_UniformSymmetric, cfg, *calib_);
        const auto aciq = quant::quantize_graph(*graph_, Method::M4_Aciq, cfg, *calib_);
        sum_naive += quant::quantized_accuracy(naive, *test_images_, *test_labels_);
        sum_aciq += quant::quantized_accuracy(aciq, *test_images_, *test_labels_);
    }
    EXPECT_GT(sum_aciq, sum_naive);
}

TEST_F(QuantizedModel, QuantizedExecutorTracksStats) {
    const auto q = quant::quantize_graph(*graph_, Method::M5_AciqNoBias, QuantConfig{}, *calib_);
    quant::QuantExecStats stats;
    tensor::Tensor batch = dataset_->test_batch(0, 8);
    (void)quant::run_quantized(q, batch, nullptr, &stats);
    EXPECT_EQ(stats.mac_count, graph_->macs_per_sample() * 8);
    EXPECT_GT(stats.max_abs_accumulator, 0);
    // The paper sizes the accumulator at 22 bits to prevent overflow.
    EXPECT_EQ(stats.accumulator_overflows, 0u);
}

TEST_F(QuantizedModel, InjectionAtHighRateDestroysAccuracy) {
    const auto q = quant::quantize_graph(*graph_, Method::M5_AciqNoBias, QuantConfig{}, *calib_);
    quant::EvalOptions opts;
    opts.injection.flip_probability = 1e-2;
    opts.repetitions = 2;
    const double acc = quant::quantized_accuracy(q, *test_images_, *test_labels_, opts);
    EXPECT_LT(acc, 0.5);
}

TEST_F(QuantizedModel, InjectionAtNegligibleRateIsHarmless) {
    const auto q = quant::quantize_graph(*graph_, Method::M5_AciqNoBias, QuantConfig{}, *calib_);
    quant::EvalOptions opts;
    opts.injection.flip_probability = 1e-7;
    const double with = quant::quantized_accuracy(q, *test_images_, *test_labels_, opts);
    const double without = quant::quantized_accuracy(q, *test_images_, *test_labels_);
    EXPECT_NEAR(with, without, 0.02);
}

TEST_F(QuantizedModel, InjectedFlipCountMatchesProbability) {
    const auto q = quant::quantize_graph(*graph_, Method::M5_AciqNoBias, QuantConfig{}, *calib_);
    inject::InjectionConfig cfg;
    cfg.flip_probability = 1e-3;
    cfg.seed = 99;
    inject::BitFlipInjector injector(cfg);
    quant::QuantExecStats stats;
    tensor::Tensor batch = dataset_->test_batch(0, 16);
    (void)quant::run_quantized(q, batch, &injector, &stats);
    const double expected = 1e-3 * static_cast<double>(stats.mac_count);
    EXPECT_NEAR(static_cast<double>(injector.flips_injected()), expected, 0.2 * expected);
}

TEST_F(QuantizedModel, LsbMaskingIsWorseThanRequantization) {
    // The §7 precision-scaling ablation, as a regression test.
    auto masked = quant::quantize_graph(*graph_, Method::M2_MinMaxAsymmetric, QuantConfig{},
                                        *calib_);
    const int mask_bits = 4;
    for (std::size_t op = 0; op < masked.graph().ops().size(); ++op) {
        if (masked.graph().ops()[op].kind != ir::OpKind::Conv2d) continue;
        auto& qc = masked.conv(op);
        qc.act_mask_bits = mask_bits;
        for (auto& w : qc.qweights) w &= static_cast<std::uint8_t>(0xFFu << mask_bits);
    }
    const double masked_acc = quant::quantized_accuracy(masked, *test_images_, *test_labels_);
    const auto cfg = QuantConfig::from_compression({mask_bits, mask_bits, common::Padding::Msb});
    const auto requant = quant::quantize_graph(*graph_, Method::M4_Aciq, cfg, *calib_);
    const double requant_acc =
        quant::quantized_accuracy(requant, *test_images_, *test_labels_);
    EXPECT_GT(requant_acc, masked_acc + 0.05);
}

TEST_F(QuantizedModel, WeightMseShrinksWithMoreBits) {
    double prev = 1e18;
    for (int bits : {3, 5, 8}) {
        QuantConfig cfg;
        cfg.weight_bits = bits;
        const auto q = quant::quantize_graph(*graph_, Method::M2_MinMaxAsymmetric, cfg, *calib_);
        const double mse = q.weight_mse();
        EXPECT_LT(mse, prev);
        prev = mse;
    }
}

TEST(QuantValidation, MismatchedCalibrationRejected) {
    auto net = nn::make_network("alexnet-mini");
    auto graph = net.export_ir();
    quant::CalibrationData bogus;
    bogus.per_tensor.resize(1);
    EXPECT_THROW(
        quant::quantize_graph(graph, Method::M2_MinMaxAsymmetric, QuantConfig{}, bogus),
        std::invalid_argument);
}

}  // namespace
