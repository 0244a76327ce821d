#include <gtest/gtest.h>

#include "aging/aging_model.hpp"
#include "cell/library.hpp"
#include "core/aging_aware_quantizer.hpp"
#include "core/compression_selector.hpp"
#include "core/lifetime.hpp"
#include "core/requant_job.hpp"
#include "data/synthetic_dataset.hpp"
#include "netlist/builders.hpp"
#include "nn/trainer.hpp"
#include "nn/zoo.hpp"
#include "quant/methods.hpp"

namespace {

using namespace raq;

class Selector : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        mac_ = new netlist::Netlist(netlist::build_mac_circuit());
        lib_ = new cell::Library(cell::Library::finfet14());
        selector_ = new core::CompressionSelector(*mac_, *lib_);
    }
    static void TearDownTestSuite() {
        delete selector_;
        delete lib_;
        delete mac_;
    }
    static netlist::Netlist* mac_;
    static cell::Library* lib_;
    static core::CompressionSelector* selector_;
};

netlist::Netlist* Selector::mac_ = nullptr;
cell::Library* Selector::lib_ = nullptr;
core::CompressionSelector* Selector::selector_ = nullptr;

TEST_F(Selector, FreshChipNeedsNoCompression) {
    const auto choice = selector_->select(0.0);
    ASSERT_TRUE(choice.has_value());
    EXPECT_TRUE(choice->compression.is_none());
    EXPECT_NEAR(choice->normalized_delay, 1.0, 1e-9);
}

// The feasible set only shrinks as ΔVth grows, so timing is met and the
// selected norm never decreases at every point of a fine grid, not only at
// the Table 2 levels (α + β alone is not monotone).
constexpr int kGridSteps = 200;  // 0 to 50 mV in 0.25 mV steps

TEST_F(Selector, SelectedCompressionAlwaysMeetsTiming) {
    for (int step = 0; step <= kGridSteps; ++step) {
        const double dvth = 0.25 * step;
        const auto choice = selector_->select(dvth);
        ASSERT_TRUE(choice.has_value()) << dvth;
        EXPECT_LE(choice->delay_ps, selector_->fresh_critical_path_ps() + 1e-6) << dvth;
        EXPECT_LE(choice->normalized_delay, 1.0 + 1e-9) << dvth;
    }
}

TEST_F(Selector, CompressionNormGrowsWithAging) {
    double prev_norm = -1.0;
    for (int step = 0; step <= kGridSteps; ++step) {
        const double dvth = 0.25 * step;
        const auto choice = selector_->select(dvth);
        ASSERT_TRUE(choice.has_value()) << dvth;
        EXPECT_GE(choice->compression.norm(), prev_norm - 1e-9) << dvth;
        prev_norm = choice->compression.norm();
    }
    EXPECT_GT(prev_norm, 0.0);  // end of life demands real compression
}

TEST_F(Selector, FeasibleSetShrinksWithAging) {
    std::size_t prev = selector_->feasible(10.0).size();
    EXPECT_GT(prev, 0u);
    for (const double dvth : {20.0, 30.0, 40.0, 50.0}) {
        const auto count = selector_->feasible(dvth).size();
        EXPECT_LE(count, prev) << dvth;
        prev = count;
    }
}

TEST_F(Selector, SelectionIsMinimalNorm) {
    // No feasible candidate may have a strictly smaller norm than the
    // selected one.
    const auto choice = selector_->select(50.0);
    ASSERT_TRUE(choice.has_value());
    for (const auto& candidate : selector_->feasible(50.0))
        EXPECT_GE(candidate.compression.norm() + 1e-12, choice->compression.norm());
}

TEST_F(Selector, GuardbandRelaxesSelection) {
    const auto strict = selector_->select(50.0, 0.0);
    const auto relaxed = selector_->select(50.0, 0.09);
    ASSERT_TRUE(strict.has_value());
    ASSERT_TRUE(relaxed.has_value());
    EXPECT_LE(relaxed->compression.norm(), strict->compression.norm());
    const auto full_gb = selector_->select(50.0, 0.25);
    ASSERT_TRUE(full_gb.has_value());
    EXPECT_TRUE(full_gb->compression.is_none());
}

TEST_F(Selector, SweepCoversBothPaddings) {
    const auto grid = selector_->sweep(2, 2);
    EXPECT_EQ(grid.size(), 9u * 2u);
    for (const auto& point : grid) {
        EXPECT_GT(point.delay_ps, 0.0);
        EXPECT_LE(point.normalized_delay, 1.0 + 1e-9);  // compression never slows
    }
}

TEST_F(Selector, RejectsBadArguments) {
    EXPECT_THROW(selector_->feasible(10.0, 0.0, 9), std::invalid_argument);
}

TEST_F(Selector, LifetimeSchedulerReproducesGuardband) {
    const aging::AgingModel model;
    const core::LifetimeScheduler scheduler(*selector_, model);
    EXPECT_NEAR(scheduler.required_guardband_fraction(), 0.23, 0.02);
    const auto schedule = scheduler.standard_schedule();
    ASSERT_EQ(schedule.size(), 6u);
    EXPECT_NEAR(schedule.front().baseline_normalized_delay, 1.0, 1e-9);
    EXPECT_NEAR(schedule.back().baseline_normalized_delay, 1.23, 0.02);
    for (const auto& point : schedule) {
        ASSERT_TRUE(point.ours_feasible) << point.dvth_mv;
        EXPECT_LE(point.ours_normalized_delay, 1.0 + 1e-9) << point.dvth_mv;
        if (point.dvth_mv > 0.0) {
            EXPECT_GT(point.baseline_normalized_delay, 1.0) << point.dvth_mv;
        }
    }
}

TEST(AlgorithmOne, EndToEndOnTrainedModel) {
    const netlist::Netlist mac = netlist::build_mac_circuit();
    const cell::Library lib = cell::Library::finfet14();
    const core::CompressionSelector selector(mac, lib);

    data::DatasetConfig dc;
    dc.train_size = 900;
    dc.test_size = 250;
    const data::SyntheticDataset ds(dc);
    auto net = nn::make_network("resnet20-mini");
    nn::TrainConfig tcfg;
    tcfg.epochs = 3;
    nn::SgdTrainer trainer(tcfg);
    trainer.fit(net, ds);
    auto graph = net.export_ir();

    const auto test_images = ds.test_batch(0, 250);
    const std::vector<int> test_labels(ds.test_labels().begin(),
                                       ds.test_labels().begin() + 250);
    const auto calib_images = ds.train_batch(0, 48);
    const std::vector<int> calib_labels(ds.train_labels().begin(),
                                        ds.train_labels().begin() + 48);

    core::AagInputs in;
    in.graph = &graph;
    in.test_images = &test_images;
    in.test_labels = &test_labels;
    in.calib_images = &calib_images;
    in.calib_labels = &calib_labels;

    const core::AgingAwareQuantizer quantizer(selector);
    const auto mild = quantizer.run(in, 10.0);
    const auto severe = quantizer.run(in, 50.0);

    EXPECT_GT(mild.fp32_accuracy, 0.8);
    EXPECT_EQ(mild.all_methods.size(), 5u);
    // Graceful degradation: end-of-life loss stays bounded...
    EXPECT_LT(severe.accuracy_loss, 15.0);
    // ...and the stronger compression cannot be *better* by much.
    EXPECT_GE(severe.accuracy_loss, mild.accuracy_loss - 2.0);
    // The best method is recorded consistently.
    double best_acc = 0.0;
    for (const auto& outcome : severe.all_methods) best_acc = std::max(best_acc, outcome.accuracy);
    EXPECT_DOUBLE_EQ(best_acc, severe.quantized_accuracy);

    // With a loose accuracy threshold, Algorithm 1 stops at the first
    // satisfying method rather than sweeping all five.
    core::AagInputs thresholded = in;
    thresholded.accuracy_loss_threshold = 50.0;
    const auto early = quantizer.run(thresholded, 50.0);
    EXPECT_LE(early.all_methods.size(), 5u);
    EXPECT_LE(early.all_methods.back().accuracy_loss, 50.0);

    // Missing inputs are rejected.
    core::AagInputs incomplete;
    EXPECT_THROW(quantizer.run(incomplete, 10.0), std::invalid_argument);
}

TEST(RequantJobTest, BuildsVersionedStatesMatchingAlgorithmOne) {
    const netlist::Netlist mac = netlist::build_mac_circuit();
    const cell::Library lib = cell::Library::finfet14();
    const core::CompressionSelector selector(mac, lib);

    data::DatasetConfig dc;
    dc.train_size = 600;
    dc.test_size = 200;
    const data::SyntheticDataset ds(dc);
    auto net = nn::make_network("alexnet-mini");
    nn::TrainConfig tcfg;
    tcfg.epochs = 2;
    nn::SgdTrainer trainer(tcfg);
    trainer.fit(net, ds);
    const auto graph = net.export_ir();

    const auto calib_images = ds.train_batch(0, 48);
    const std::vector<int> calib_labels(ds.train_labels().begin(),
                                        ds.train_labels().begin() + 48);
    const auto calib = quant::calibrate(graph, calib_images, calib_labels);
    const auto eval_images = ds.test_batch(0, 100);
    const std::vector<int> eval_labels(ds.test_labels().begin(),
                                       ds.test_labels().begin() + 100);

    // Fast path: compression from the selector, M5, generation stamped.
    const core::RequantJob fast(graph, calib, selector, {});
    const auto fresh = fast.build(0.0, 1);
    ASSERT_TRUE(fresh.has_value());
    EXPECT_EQ(fresh->generation, 1u);
    EXPECT_EQ(fresh->method, quant::Method::M5_AciqNoBias);
    EXPECT_EQ(fresh->dvth_mv, 0.0);
    EXPECT_TRUE(fresh->compression.is_none());
    ASSERT_NE(fresh->qgraph, nullptr);

    const auto aged = fast.build(30.0, 2);
    ASSERT_TRUE(aged.has_value());
    EXPECT_EQ(aged->generation, 2u);
    const auto expected = selector.select(30.0);
    ASSERT_TRUE(expected.has_value());
    EXPECT_EQ(aged->compression.alpha, expected->compression.alpha);
    EXPECT_EQ(aged->compression.beta, expected->compression.beta);

    // Full Algorithm 1 without an eval set is a construction-time error,
    // not a silent fast-path fallback.
    core::RequantJobConfig full_cfg;
    full_cfg.full_algorithm1 = true;
    EXPECT_THROW(core::RequantJob(graph, calib, selector, full_cfg),
                 std::invalid_argument);
    const std::vector<int> short_labels(10, 0);
    EXPECT_THROW(core::RequantJob(graph, calib, selector, full_cfg, &eval_images,
                                  &short_labels),
                 std::invalid_argument);

    // Full path selects the same method Algorithm 1 (the one-shot
    // reporting entry point) selects at the same aging level: the
    // extracted search is the same code.
    const core::RequantJob full(graph, calib, selector, full_cfg, &eval_images,
                                &eval_labels);
    const auto full_state = full.build(30.0, 3);
    ASSERT_TRUE(full_state.has_value());

    core::AagInputs in;
    in.graph = &graph;
    in.test_images = &eval_images;
    in.test_labels = &eval_labels;
    in.calib_images = &calib_images;
    in.calib_labels = &calib_labels;
    const core::AgingAwareQuantizer quantizer(selector);
    const auto reference = quantizer.run(in, 30.0);
    EXPECT_EQ(full_state->method, reference.selected_method);
    EXPECT_NEAR(full.fp32_accuracy(), reference.fp32_accuracy, 1e-12);

    // The deployed graph is the search's own winner, and it is exactly what
    // quantizing the selected method afresh produces.
    ASSERT_NE(full_state->qgraph, nullptr);
    const quant::QuantizedGraph requantized = quant::quantize_graph(
        graph, full_state->method,
        quant::QuantConfig::from_compression(full_state->compression), calib);
    const auto same_params = [](const quant::QuantParams& a, const quant::QuantParams& b) {
        return a.scale == b.scale && a.zero_point == b.zero_point && a.bits == b.bits;
    };
    int convs = 0;
    for (std::size_t i = 0; i < graph.ops().size(); ++i) {
        if (graph.ops()[i].kind != ir::OpKind::Conv2d) continue;
        ++convs;
        const quant::QConv& got = full_state->qgraph->conv(i);
        const quant::QConv& want = requantized.conv(i);
        EXPECT_EQ(got.qweights, want.qweights) << "conv op " << i;
        EXPECT_EQ(got.qbias, want.qbias) << "conv op " << i;
        EXPECT_TRUE(same_params(got.act, want.act)) << "conv op " << i;
        ASSERT_EQ(got.weight_q.size(), want.weight_q.size()) << "conv op " << i;
        for (std::size_t q = 0; q < want.weight_q.size(); ++q)
            EXPECT_TRUE(same_params(got.weight_q[q], want.weight_q[q]))
                << "conv op " << i << " weight_q " << q;
    }
    EXPECT_GT(convs, 0);
}

}  // namespace
