#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "aging/aging_model.hpp"
#include "cell/library.hpp"
#include "core/aging_aware_quantizer.hpp"
#include "core/compression_selector.hpp"
#include "core/lifetime.hpp"
#include "core/requant_job.hpp"
#include "data/synthetic_dataset.hpp"
#include "ir/float_executor.hpp"
#include "netlist/builders.hpp"
#include "nn/trainer.hpp"
#include "nn/zoo.hpp"
#include "quant/evaluate.hpp"
#include "quant/methods.hpp"
#include "quant/quant_executor.hpp"

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

// ---- The method search's race against the natural-order loop ----------

/// One race over synthetic per-image correctness (`correct[m][k]`: does
/// method m classify eval image k correctly), recording every batch the
/// race scores.
struct SyntheticRace {
    std::size_t winner = 0;
    std::vector<core::RaceTally> tallies;
    std::vector<std::pair<int, int>> batches;  ///< (start, count) in call order
};

SyntheticRace race(const std::vector<std::vector<int>>& correct, int pass) {
    const int n = static_cast<int>(correct.front().size());
    SyntheticRace r;
    r.tallies.resize(correct.size());
    r.winner = core::run_method_race(r.tallies, n, pass, [&](std::size_t m, int start, int count) {
        r.batches.emplace_back(start, count);
        int hits = 0;
        for (int k = start; k < start + count; ++k)
            hits += correct[m][static_cast<std::size_t>(k)];
        return hits;
    });
    return r;
}

/// The natural-order loop's rule over final counts: the first method
/// reaching `pass`, else the first with the most correct.
std::size_t natural_order_choice(const std::vector<std::vector<int>>& correct, int pass) {
    std::size_t best = 0;
    int best_count = -1;
    for (std::size_t m = 0; m < correct.size(); ++m) {
        int count = 0;
        for (const int c : correct[m]) count += c;
        if (count >= pass) return m;
        if (count > best_count) {
            best = m;
            best_count = count;
        }
    }
    return best;
}

/// Per-image correctness with the given per-batch counts: the first
/// `hits[b]` images of batch b are correct.
std::vector<int> from_batches(const std::vector<int>& hits, int n) {
    std::vector<int> row(static_cast<std::size_t>(n), 0);
    for (std::size_t b = 0; b < hits.size(); ++b)
        for (int k = 0; k < hits[b]; ++k)
            row[b * core::kRaceBatch + static_cast<std::size_t>(k)] = 1;
    return row;
}

TEST(MethodRace, ExactTiesGoToTheEarlierMethod) {
    constexpr int kN = 300;
    // All five tie at 150: the natural-order loop keeps M1.
    std::vector<std::vector<int>> tied(5, from_batches({50, 50, 50}, kN));
    tied[2] = from_batches({90, 30, 30}, kN);
    const SyntheticRace all = race(tied, kN + 1);
    EXPECT_EQ(all.winner, 0u);
    EXPECT_EQ(all.tallies[0].scored, kN);
    EXPECT_EQ(all.tallies[0].correct, 150);

    // M2 and M4 tie for the most: M2, the earlier one, wins.
    const std::vector<std::vector<int>> later_tie = {
        from_batches({40, 40, 40}, kN), from_batches({60, 50, 50}, kN),
        from_batches({10, 10, 10}, kN), from_batches({80, 40, 40}, kN),
        from_batches({30, 30, 30}, kN)};
    EXPECT_EQ(race(later_tie, kN + 1).winner, 1u);
    EXPECT_EQ(natural_order_choice(later_tie, kN + 1), 1u);
}

TEST(MethodRace, AMethodThatCanAtBestTieIsNeverScoredToTheEnd) {
    constexpr int kN = 300;
    // M1 finishes with 200. M2's first batch leaves it a bound of exactly
    // 200: it can at best tie, which M1 wins, so it is never finished.
    const std::vector<std::vector<int>> correct = {
        from_batches({70, 70, 60}, kN), from_batches({0, 100, 100}, kN),
        from_batches({0, 0, 0}, kN), from_batches({0, 0, 0}, kN), from_batches({0, 0, 0}, kN)};
    const SyntheticRace r = race(correct, kN + 1);
    EXPECT_EQ(r.winner, 0u);
    EXPECT_EQ(r.tallies[0].scored, kN);
    EXPECT_EQ(r.tallies[1].scored, 100);
    for (std::size_t m = 2; m < 5; ++m) EXPECT_EQ(r.tallies[m].scored, 100) << m;
}

TEST(MethodRace, ALaterMethodMeetingTheThresholdWinsWhileAnEarlierOneIsUnfinished) {
    constexpr int kN = 300;
    constexpr int kPass = 250;
    // M1's first batch scores 0, so its bound (200) can no longer reach
    // the threshold; M2 meets it (260) with M1 one batch in, and M3-M5,
    // though perfect, are never scored: the first method meeting the
    // threshold is chosen.
    const std::vector<std::vector<int>> correct = {
        from_batches({0, 100, 100}, kN), from_batches({100, 100, 60}, kN),
        from_batches({100, 100, 100}, kN), from_batches({100, 100, 100}, kN),
        from_batches({100, 100, 100}, kN)};
    const SyntheticRace r = race(correct, kPass);
    EXPECT_EQ(r.winner, 1u);
    EXPECT_EQ(natural_order_choice(correct, kPass), 1u);
    EXPECT_EQ(r.tallies[0].scored, 100);
    EXPECT_EQ(r.tallies[1].scored, kN);
    EXPECT_EQ(r.tallies[1].correct, 260);
    for (std::size_t m = 2; m < 5; ++m) EXPECT_EQ(r.tallies[m].scored, 0) << m;
    // Without the threshold, M3 (the first perfect method) wins instead.
    EXPECT_EQ(race(correct, kN + 1).winner, 2u);
}

TEST(MethodRace, ScoresContiguousBatchesWhenNIsNotAMultipleOfTheBatch) {
    for (const int n : {1, 42, 99, 100, 101, 250}) {
        SCOPED_TRACE("n = " + std::to_string(n));
        std::vector<std::vector<int>> correct(5, std::vector<int>(static_cast<std::size_t>(n), 1));
        correct[0].assign(static_cast<std::size_t>(n), 0);  // M1 drops out first
        const SyntheticRace r = race(correct, n + 1);
        EXPECT_EQ(r.winner, 1u);
        EXPECT_EQ(r.tallies[1].correct, n);
        // M2's batches tile [0, n): full batches, then one short one.
        int next = 0;
        for (const auto& [start, count] : r.batches) {
            if (start == 0) next = 0;
            EXPECT_EQ(start, next);
            EXPECT_EQ(count, std::min(core::kRaceBatch, n - start));
            next = start + count;
        }
        EXPECT_EQ(r.tallies[1].scored, n);
    }
}

TEST(MethodRace, EveryMethodPerfectScoresOnlyTheFirst) {
    constexpr int kN = 250;
    const std::vector<std::vector<int>> perfect(5, std::vector<int>(kN, 1));
    for (const int pass : {kN + 1, kN, 1}) {
        const SyntheticRace r = race(perfect, pass);
        EXPECT_EQ(r.winner, 0u) << pass;
        EXPECT_EQ(r.tallies[0].scored, kN) << pass;
        for (std::size_t m = 1; m < 5; ++m) EXPECT_EQ(r.tallies[m].scored, 0) << pass;
    }
}

TEST(MethodRace, RandomCorrectnessAlwaysPicksTheNaturalOrderChoice) {
    // Near-tied random methods at several sizes and thresholds: the race's
    // winner, and its finished count, are the natural-order loop's.
    std::mt19937 rng(7);
    for (const int n : {1, 42, 100, 250, 500})
        for (int trial = 0; trial < 60; ++trial) {
            std::vector<std::vector<int>> correct(5, std::vector<int>(static_cast<std::size_t>(n)));
            std::bernoulli_distribution p(std::uniform_real_distribution<double>(0.3, 0.7)(rng));
            for (auto& row : correct)
                for (auto& c : row) c = p(rng) ? 1 : 0;
            const int pass = trial % 3 == 0 ? n + 1
                                            : std::uniform_int_distribution<int>(0, n)(rng);
            const SyntheticRace r = race(correct, pass);
            const std::size_t want = natural_order_choice(correct, pass);
            ASSERT_EQ(r.winner, want) << "n " << n << " trial " << trial;
            int want_count = 0;
            for (const int c : correct[want]) want_count += c;
            ASSERT_EQ(r.tallies[want].scored, n);
            ASSERT_EQ(r.tallies[want].correct, want_count);
        }
}

/// The natural-order loop, kept as the race's reference: quantize every
/// method in library order, score it on the whole eval set, and stop at
/// the first one that meets the threshold.
core::MethodSearchResult natural_order_search(const ir::Graph& graph,
                                              const quant::QuantConfig& config,
                                              const quant::CalibrationData& calib,
                                              const tensor::Tensor& images,
                                              const std::vector<int>& labels,
                                              double fp32_accuracy,
                                              std::optional<double> threshold) {
    core::MethodSearchResult result;
    bool have_best = false;
    std::unique_ptr<quant::QuantRunner> runner;
    for (const quant::Method method : quant::all_methods()) {
        auto qgraph = std::make_shared<const quant::QuantizedGraph>(
            quant::quantize_graph(graph, method, config, calib, runner.get()));
        if (!runner)
            runner = std::make_unique<quant::QuantRunner>(
                qgraph, std::min(100, images.shape().n));
        else
            runner->rebind(qgraph);
        const double acc = quant::quantized_accuracy(*runner, images, labels);
        core::MethodOutcome outcome;
        outcome.method = method;
        outcome.accuracy = acc;
        outcome.accuracy_loss = 100.0 * (fp32_accuracy - acc);
        result.all_methods.push_back(outcome);
        result.images_scored += images.shape().n;
        const bool meets = threshold && outcome.accuracy_loss <= *threshold;
        if (!have_best || acc > result.accuracy || meets) {
            result.accuracy = acc;
            result.selected = method;
            result.qgraph = std::move(qgraph);
            have_best = true;
        }
        if (meets) break;
    }
    return result;
}

bool same_params(const quant::QuantParams& a, const quant::QuantParams& b) {
    return a.scale == b.scale && a.zero_point == b.zero_point && a.bits == b.bits;
}

void expect_same_payload(const quant::QuantizedGraph& got, const quant::QuantizedGraph& want,
                         const std::string& what) {
    const auto& ops = want.graph().ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].kind != ir::OpKind::Conv2d) continue;
        const quant::QConv& g = got.conv(i);
        const quant::QConv& w = want.conv(i);
        EXPECT_EQ(g.qweights, w.qweights) << what << " conv op " << i;
        EXPECT_EQ(g.qbias, w.qbias) << what << " conv op " << i;
        EXPECT_TRUE(same_params(g.act, w.act)) << what << " conv op " << i;
        EXPECT_EQ(g.act_mask_bits, w.act_mask_bits) << what << " conv op " << i;
        ASSERT_EQ(g.weight_q.size(), w.weight_q.size()) << what << " conv op " << i;
        for (std::size_t q = 0; q < w.weight_q.size(); ++q)
            EXPECT_TRUE(same_params(g.weight_q[q], w.weight_q[q])) << what << " conv op " << i;
    }
}

void expect_same_outcomes(const std::vector<core::MethodOutcome>& got,
                          const std::vector<core::MethodOutcome>& want, const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t m = 0; m < want.size(); ++m) {
        EXPECT_EQ(got[m].method, want[m].method) << what << " entry " << m;
        // Bit-equal doubles, not merely close ones.
        EXPECT_EQ(got[m].accuracy, want[m].accuracy) << what << " entry " << m;
        EXPECT_EQ(got[m].accuracy_loss, want[m].accuracy_loss) << what << " entry " << m;
    }
}

TEST_F(Selector, MethodRaceEqualsTheNaturalOrderLoopOnEveryZooTopology) {
    // Untrained networks score near chance on random images and labels,
    // so methods often tie. At two aging levels, with no threshold, with
    // thresholds that the best or the median method just meets, and with
    // one that none meets, the race (RequantJob's mode) and the report
    // mode (AgingAwareQuantizer's) choose what the natural-order loop
    // chooses: the same method, the same accuracy bits and the same
    // deployed payload, and in report mode (through the quantizer, which
    // calibrates and evaluates FP32 itself) the same full result. (Near
    // chance, no method's bound falls below the winner's count before
    // its last batch, so here the race saves few images; the MethodRace
    // tests pin down what it skips.)
    constexpr int kEval = 150;  // a full batch and a short one
    constexpr int kCalib = 16;
    const core::AgingAwareQuantizer quantizer(*selector_);
    int races = 0;
    for (const std::string& name : nn::all_networks()) {
        const ir::Graph graph = nn::make_network(name).export_ir();  // untrained
        const tensor::Shape in = graph.input_shape();
        std::mt19937 rng(31);
        std::uniform_real_distribution<float> pixel(-1.0f, 2.0f);
        std::uniform_int_distribution<int> label(0, 9);
        const auto random_set = [&](int n, std::vector<int>& labels) {
            tensor::Tensor t({n, in.c, in.h, in.w});
            for (auto& v : t.vec()) v = pixel(rng);
            labels.resize(static_cast<std::size_t>(n));
            for (int& l : labels) l = label(rng);
            return t;
        };
        std::vector<int> eval_labels, calib_labels;
        const tensor::Tensor eval_images = random_set(kEval, eval_labels);
        const tensor::Tensor calib_images = random_set(kCalib, calib_labels);
        const quant::CalibrationData calib = quant::calibrate(graph, calib_images, calib_labels);
        const double fp32 = ir::float_accuracy(graph, eval_images, eval_labels);

        for (const double dvth : {10.0, 50.0}) {
            const auto choice = selector_->select(dvth);
            ASSERT_TRUE(choice.has_value());
            const quant::QuantConfig config =
                quant::QuantConfig::from_compression(choice->compression);
            const core::MethodSearchResult all =
                natural_order_search(graph, config, calib, eval_images, eval_labels, fp32, {});
            std::vector<double> losses;
            for (const auto& outcome : all.all_methods) losses.push_back(outcome.accuracy_loss);
            std::sort(losses.begin(), losses.end());
            const std::optional<double> thresholds[] = {
                std::nullopt, losses[0], losses[2], losses[0] - 0.1};

            for (const std::optional<double>& threshold : thresholds) {
                const std::string what =
                    name + " @" + std::to_string(dvth) + " mV threshold " +
                    (threshold ? std::to_string(*threshold) : std::string("none"));
                const core::MethodSearchResult want =
                    threshold ? natural_order_search(graph, config, calib, eval_images,
                                                     eval_labels, fp32, threshold)
                              : all;
                const core::MethodSearchResult got = core::search_methods(
                    graph, config, calib, eval_images, eval_labels, fp32, threshold, false);
                EXPECT_EQ(got.selected, want.selected) << what;
                EXPECT_EQ(got.accuracy, want.accuracy) << what;
                ASSERT_NE(got.qgraph, nullptr) << what;
                expect_same_payload(*got.qgraph, *want.qgraph, what);
                // Race mode reports no per-method accuracy: some are unfinished.
                EXPECT_TRUE(got.all_methods.empty()) << what;
                EXPECT_GE(got.images_scored, kEval) << what;
                EXPECT_LE(got.images_scored, want.images_scored) << what;
                ++races;

                core::AagInputs inputs;
                inputs.graph = &graph;
                inputs.test_images = &eval_images;
                inputs.test_labels = &eval_labels;
                inputs.calib_images = &calib_images;
                inputs.calib_labels = &calib_labels;
                inputs.accuracy_loss_threshold = threshold;
                const core::AagResult aag = quantizer.run(inputs, dvth);
                EXPECT_EQ(aag.selected_method, want.selected) << what << " quantizer";
                EXPECT_EQ(aag.fp32_accuracy, fp32) << what << " quantizer";
                EXPECT_EQ(aag.quantized_accuracy, want.accuracy) << what << " quantizer";
                EXPECT_EQ(aag.accuracy_loss, 100.0 * (fp32 - want.accuracy)) << what;
                expect_same_outcomes(aag.all_methods, want.all_methods, what + " quantizer");
            }
        }
    }
    EXPECT_EQ(races, 13 * 2 * 4);
}

}  // namespace
