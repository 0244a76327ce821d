#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <thread>

#include "data/synthetic_dataset.hpp"
#include "nn/zoo.hpp"
#include "quant/calibration.hpp"
#include "seed_interpreter_ref.hpp"

namespace {

using namespace raq;

data::DatasetConfig tiny_config() {
    data::DatasetConfig cfg;
    cfg.train_size = 200;
    cfg.test_size = 100;
    return cfg;
}

TEST(Dataset, DeterministicForSameSeed) {
    const data::SyntheticDataset a(tiny_config()), b(tiny_config());
    const auto ba = a.train_batch(0, 10);
    const auto bb = b.train_batch(0, 10);
    EXPECT_EQ(ba.vec(), bb.vec());
    EXPECT_EQ(a.test_labels(), b.test_labels());
}

TEST(Dataset, DifferentSeedsDiffer) {
    auto cfg2 = tiny_config();
    cfg2.seed = 999;
    const data::SyntheticDataset a(tiny_config()), b(cfg2);
    EXPECT_NE(a.train_batch(0, 10).vec(), b.train_batch(0, 10).vec());
}

TEST(Dataset, PixelsInUnitRangeAndLabelsBalanced) {
    const data::SyntheticDataset ds(tiny_config());
    const auto batch = ds.train_batch(0, 200);
    for (const float v : batch.vec()) {
        ASSERT_GE(v, 0.0f);
        ASSERT_LE(v, 1.0f);
    }
    std::vector<int> counts(10, 0);
    for (const int label : ds.train_labels()) counts[static_cast<std::size_t>(label)]++;
    for (const int c : counts) EXPECT_EQ(c, 20);  // balanced round-robin
}

TEST(Dataset, EpochOrderIsAPermutationAndVaries) {
    const data::SyntheticDataset ds(tiny_config());
    const auto e0 = ds.epoch_order(0);
    const auto e1 = ds.epoch_order(1);
    EXPECT_EQ(std::set<int>(e0.begin(), e0.end()).size(), e0.size());
    EXPECT_EQ(e0.size(), 200u);
    EXPECT_NE(e0, e1);
    EXPECT_EQ(ds.epoch_order(0), e0);  // deterministic per epoch
}

TEST(Dataset, BatchBoundsChecked) {
    const data::SyntheticDataset ds(tiny_config());
    EXPECT_THROW(ds.train_batch(190, 20), std::out_of_range);
    EXPECT_THROW(ds.test_batch(-1, 5), std::out_of_range);
    EXPECT_THROW(ds.gather_train({5000}), std::out_of_range);
}

TEST(Dataset, GatherMatchesContiguousBatch) {
    const data::SyntheticDataset ds(tiny_config());
    const auto batch = ds.train_batch(3, 4);
    const auto gathered = ds.gather_train({3, 4, 5, 6});
    EXPECT_EQ(batch.vec(), gathered.vec());
}

TEST(Dataset, LazyTrainPrefixMatchesAFullRender) {
    // The training split renders on demand as a prefix of one RNG stream:
    // a short batch first, then the whole split, must give the same bytes
    // as a fresh dataset that renders the whole split at once.
    const data::SyntheticDataset lazy(tiny_config()), fresh(tiny_config());
    std::vector<int> all(static_cast<std::size_t>(lazy.train_size()));
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
    const auto head = lazy.train_batch(0, 64);
    const auto lazy_all = lazy.gather_train(all);
    const auto fresh_all = fresh.gather_train(all);
    ASSERT_EQ(lazy_all.vec().size(), fresh_all.vec().size());
    EXPECT_EQ(std::memcmp(lazy_all.data(), fresh_all.data(),
                          lazy_all.vec().size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(head.data(), fresh_all.data(), head.vec().size() * sizeof(float)),
              0);
}

TEST(Dataset, ConcurrentGrowingPrefixesRaceCleanly) {
    // Four threads request ever longer prefixes of one dataset at once;
    // every batch must equal the same prefix of a full render.
    const data::SyntheticDataset reference(tiny_config());
    const auto full = reference.train_batch(0, reference.train_size());
    const data::SyntheticDataset shared(tiny_config());
    constexpr int kThreads = 4;
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int n = 5 + t; n <= shared.train_size(); n += 7 + 2 * t) {
                const auto batch = shared.train_batch(0, n);
                if (std::memcmp(batch.data(), full.data(), batch.vec().size() * sizeof(float)))
                    ++mismatches[static_cast<std::size_t>(t)];
            }
        });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(mismatches, std::vector<int>(kThreads, 0));
}

TEST(IrGraph, RejectsMalformedGraphs) {
    ir::Graph graph;
    EXPECT_THROW(graph.add(ir::Op{}), std::logic_error);  // no input yet
    graph.add_input({1, 3, 8, 8});
    ir::Op bad;
    bad.kind = ir::OpKind::Relu;
    bad.inputs = {42};
    EXPECT_THROW(graph.add(bad), std::out_of_range);
    ir::Op conv;
    conv.kind = ir::OpKind::Conv2d;
    conv.inputs = {0};
    conv.conv = {3, 4, 3, 3, 1, 1};
    conv.weights.resize(7);  // wrong size
    conv.bias.resize(4);
    EXPECT_THROW(graph.add(conv), std::invalid_argument);
    EXPECT_THROW(graph.set_output(9), std::out_of_range);
}

TEST(IrGraph, ShapeInferenceMatchesExecution) {
    auto net = nn::make_network("squeezenet1.1-mini");
    const auto graph = net.export_ir();
    const auto shapes = ir::infer_shapes(graph, 3);
    const data::SyntheticDataset ds(tiny_config());
    const auto tensors = seedref::run_float_all(graph, ds.test_batch(0, 3));
    for (std::size_t i = 0; i < tensors.size(); ++i) {
        if (tensors[i].size() == 0) continue;
        EXPECT_EQ(tensors[i].shape(), shapes[i]) << "tensor " << i;
    }
}

TEST(IrGraph, SummaryMentionsEveryOpKindUsed) {
    auto net = nn::make_network("squeezenet1.1-mini");
    const auto graph = net.export_ir();
    const auto text = graph.summary();
    for (const char* needle : {"conv2d", "relu", "maxpool2d", "gap", "concat", "macs/sample"})
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
}

TEST(IrGraph, ResnetExportContainsAddsAndFoldsBn) {
    auto net = nn::make_network("resnet20-mini");
    const auto graph = net.export_ir();
    int adds = 0;
    for (const auto& op : graph.ops()) {
        adds += (op.kind == ir::OpKind::Add);
        // BN folding leaves no standalone batchnorm-ish op kinds; every
        // conv must carry a bias vector.
        if (op.kind == ir::OpKind::Conv2d) {
            EXPECT_EQ(op.bias.size(), static_cast<std::size_t>(op.conv.out_c));
        }
    }
    EXPECT_EQ(adds, 9);  // 3 stages x 3 basic blocks
}

TEST(Calibration, StatsAreConsistent) {
    const std::vector<float> xs{1.0f, 2.0f, 3.0f, 4.0f};
    const auto s = quant::compute_stats(xs.data(), xs.size());
    EXPECT_FLOAT_EQ(s.min, 1.0f);
    EXPECT_FLOAT_EQ(s.max, 4.0f);
    EXPECT_FLOAT_EQ(s.mean, 2.5f);
    EXPECT_FLOAT_EQ(s.abs_dev, 1.0f);
    EXPECT_NEAR(s.stddev, std::sqrt(1.25f), 1e-5);
    EXPECT_THROW((void)quant::compute_stats(xs.data(), 0), std::invalid_argument);
}

TEST(Calibration, CoversEveryTensorOfTheGraph) {
    auto net = nn::make_network("alexnet-mini");
    const auto graph = net.export_ir();
    const data::SyntheticDataset ds(tiny_config());
    std::vector<int> labels(ds.train_labels().begin(), ds.train_labels().begin() + 16);
    const auto calib = quant::calibrate(graph, ds.train_batch(0, 16), labels);
    EXPECT_EQ(calib.per_tensor.size(), static_cast<std::size_t>(graph.num_tensors()));
    // Input tensor stats reflect the [0,1] image range.
    const auto& in_stats = calib.per_tensor[static_cast<std::size_t>(graph.input_id())];
    EXPECT_GE(in_stats.min, 0.0f);
    EXPECT_LE(in_stats.max, 1.0f);
    EXPECT_GT(in_stats.stddev, 0.0f);
}

}  // namespace
