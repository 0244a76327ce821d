// Tests for the epoll network front-end: BoundedChannel close-and-drain
// edge cases, the wire protocol, end-to-end socket serving (bit-identity
// with in-process execution, admission-control shedding, the shutdown
// cascade), and traffic-driven aging.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "aging/aging_model.hpp"
#include "cell/library.hpp"
#include "core/compression_selector.hpp"
#include "data/synthetic_dataset.hpp"
#include "net/load_gen.hpp"
#include "net/server.hpp"
#include "netlist/builders.hpp"
#include "nn/trainer.hpp"
#include "nn/zoo.hpp"
#include "quant/methods.hpp"
#include "quant/quant_executor.hpp"
#include "serve/bounded_channel.hpp"
#include "serve/server.hpp"
#include "sim/traffic.hpp"

namespace {

using namespace raq;

// ---------------------------------------------------------------------
// BoundedChannel close-and-drain protocol (direct unit tests — every
// serving queue and the net admission path are instances of this).
// ---------------------------------------------------------------------

TEST(BoundedChannel, TryPushReportsOkFullClosed) {
    serve::BoundedChannel<int> ch(2);
    EXPECT_EQ(ch.try_push(1), serve::ChannelPush::Ok);
    EXPECT_EQ(ch.try_push(2), serve::ChannelPush::Ok);
    EXPECT_EQ(ch.try_push(3), serve::ChannelPush::Full);
    EXPECT_EQ(ch.size(), 2u);

    int out = 0;
    ASSERT_TRUE(ch.pop(out));
    EXPECT_EQ(out, 1);
    EXPECT_EQ(ch.try_push(4), serve::ChannelPush::Ok);

    ch.close();
    EXPECT_EQ(ch.try_push(5), serve::ChannelPush::Closed);
    // Accepted items drain after close, in order.
    ASSERT_TRUE(ch.pop(out));
    EXPECT_EQ(out, 2);
    ASSERT_TRUE(ch.pop(out));
    EXPECT_EQ(out, 4);
    EXPECT_FALSE(ch.pop(out));
}

TEST(BoundedChannel, CloseWithFullBufferReleasesBlockedProducer) {
    serve::BoundedChannel<int> ch(1);
    EXPECT_EQ(ch.try_push(10), serve::ChannelPush::Ok);

    std::atomic<bool> started{false};
    std::atomic<int> push_result{-1};
    std::thread producer([&] {
        started.store(true);
        int item = 11;
        push_result.store(ch.push(std::move(item)) ? 1 : 0);
    });
    while (!started.load()) std::this_thread::yield();
    // Give the producer time to actually block on the full channel.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(push_result.load(), -1);

    ch.close();
    producer.join();
    // The blocked producer observed the close: push == false, item kept.
    EXPECT_EQ(push_result.load(), 0);

    // What was accepted before the close is still there to drain.
    int out = 0;
    ASSERT_TRUE(ch.pop(out));
    EXPECT_EQ(out, 10);
    EXPECT_FALSE(ch.pop(out));
}

TEST(BoundedChannel, ConcurrentClosersAndProducersAllReturn) {
    serve::BoundedChannel<int> ch(4);
    constexpr int kProducers = 8;
    constexpr int kClosers = 4;

    std::atomic<int> accepted{0};
    std::atomic<int> refused{0};
    std::vector<std::thread> threads;
    threads.reserve(kProducers + kClosers);
    for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&, p] {
            for (int i = 0; i < 64; ++i) {
                int item = p * 1000 + i;
                if (ch.push(std::move(item)))
                    accepted.fetch_add(1);
                else
                    refused.fetch_add(1);
                int out = 0;
                (void)ch.pop(out);  // keep the channel moving until closed
            }
        });
    }
    for (int c = 0; c < kClosers; ++c)
        threads.emplace_back([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            ch.close();
        });
    for (auto& t : threads) t.join();

    EXPECT_TRUE(ch.closed());
    // Every push call returned with a definite verdict.
    EXPECT_EQ(accepted.load() + refused.load(), kProducers * 64);
    // The drain leaves nothing accepted behind.
    int out = 0;
    std::size_t drained = 0;
    while (ch.pop(out)) ++drained;
    EXPECT_LE(drained, 4u);
}

TEST(BoundedChannel, PopAfterCloseDrainsInFifoOrder) {
    serve::BoundedChannel<int> ch(8);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(ch.try_push(int(i)), serve::ChannelPush::Ok);
    ch.close();
    for (int i = 0; i < 5; ++i) {
        int out = -1;
        ASSERT_TRUE(ch.pop(out));
        EXPECT_EQ(out, i);
    }
    int out = -1;
    EXPECT_FALSE(ch.pop(out));
    EXPECT_TRUE(ch.pop_batch(4).empty());
}

// ---------------------------------------------------------------------
// Traffic-driven aging primitives.
// ---------------------------------------------------------------------

TEST(Traffic, DutyCycleMonitorTracksSlidingBusyFraction) {
    sim::DutyCycleMonitor monitor(1000);
    EXPECT_DOUBLE_EQ(monitor.busy_fraction(500), 0.0);  // nothing recorded

    monitor.record_busy(0, 500);
    // Lifetime shorter than the window: denominator clips to 500.
    EXPECT_NEAR(monitor.busy_fraction(500), 1.0, 1e-12);
    // Window [0, 1000] holds 500 busy out of 1000 observed.
    EXPECT_NEAR(monitor.busy_fraction(1000), 0.5, 1e-12);
    // Window [500, 1500] only overlaps the tail of nothing: idle since.
    EXPECT_NEAR(monitor.busy_fraction(1500), 0.0, 1e-12);

    monitor.record_busy(1500, 1750);
    // Window [750, 1750]: 250 busy of 1000.
    EXPECT_NEAR(monitor.busy_fraction(1750), 0.25, 1e-12);
}

TEST(Traffic, DutyAgingFactorIsOneAtSaturationAndDecaysWhenIdle) {
    constexpr double kActivation = 0.035;
    constexpr double kSelfHeat = 15.0;
    EXPECT_DOUBLE_EQ(sim::duty_aging_factor(1.0, kSelfHeat, kActivation), 1.0);
    const double half = sim::duty_aging_factor(0.5, kSelfHeat, kActivation);
    const double idle = sim::duty_aging_factor(0.0, kSelfHeat, kActivation);
    EXPECT_LT(idle, half);
    EXPECT_LT(half, 1.0);
    EXPECT_GT(idle, 0.0);
    EXPECT_NEAR(idle, std::exp(-kActivation * kSelfHeat), 1e-12);
    // Out-of-range fractions clamp instead of extrapolating.
    EXPECT_DOUBLE_EQ(sim::duty_aging_factor(1.7, kSelfHeat, kActivation), 1.0);
    EXPECT_DOUBLE_EQ(sim::duty_aging_factor(-0.3, kSelfHeat, kActivation), idle);
}

// ---------------------------------------------------------------------
// Wire protocol round trips.
// ---------------------------------------------------------------------

TEST(Protocol, InferResponseRoundTrips) {
    net::InferReply reply;
    reply.predicted_class = 7;
    reply.device_id = 3;
    reply.generation = 42;
    reply.partition = 5;
    reply.latency_us = 123.5;
    reply.logits = {0.25f, -1.5f, 3.0f};

    std::vector<std::uint8_t> wire;
    net::encode_infer_response(wire, 0xBEEF, reply);

    // Strip the u32 length prefix, decode the payload.
    ASSERT_GT(wire.size(), 4u);
    std::uint32_t len = 0;
    std::memcpy(&len, wire.data(), 4);
    ASSERT_EQ(wire.size(), 4u + len);

    net::Response decoded;
    ASSERT_TRUE(net::decode_response(wire.data() + 4, len, net::Op::Infer, decoded));
    EXPECT_EQ(decoded.status, net::Status::Ok);
    EXPECT_EQ(decoded.tag, 0xBEEFu);
    EXPECT_EQ(decoded.infer.predicted_class, 7);
    EXPECT_EQ(decoded.infer.device_id, 3u);
    EXPECT_EQ(decoded.infer.generation, 42u);
    EXPECT_EQ(decoded.infer.partition, 5u);
    EXPECT_DOUBLE_EQ(decoded.infer.latency_us, 123.5);
    ASSERT_EQ(decoded.infer.logits.size(), 3u);
    EXPECT_EQ(decoded.infer.logits[1], -1.5f);

    // Truncated payloads are rejected at every cut point, never read
    // past the end.
    for (std::uint32_t cut = 0; cut < len; ++cut) {
        net::Response partial;
        EXPECT_FALSE(net::decode_response(wire.data() + 4, cut, net::Op::Infer, partial))
            << "cut " << cut;
    }
}

TEST(Protocol, BlobResponseRoundTripsForAnyOp) {
    std::vector<std::uint8_t> wire;
    net::encode_blob_response(wire, net::Status::Busy, 9, "queue saturated");
    std::uint32_t len = 0;
    std::memcpy(&len, wire.data(), 4);

    // A non-OK status decodes as a blob even on an INFER tag.
    net::Response decoded;
    ASSERT_TRUE(net::decode_response(wire.data() + 4, len, net::Op::Infer, decoded));
    EXPECT_EQ(decoded.status, net::Status::Busy);
    EXPECT_EQ(decoded.tag, 9u);
    EXPECT_EQ(decoded.blob, "queue saturated");

    // An unknown status byte is malformed, not misclassified.
    std::vector<std::uint8_t> bogus(wire.begin() + 4, wire.end());
    bogus[0] = 250;
    EXPECT_FALSE(net::decode_response(bogus.data(), bogus.size(), net::Op::Infer, decoded));
}

TEST(Protocol, EncodeSampleReconstructionMatchesDequant) {
    tensor::Tensor sample({1, 2, 3, 3});
    for (std::size_t i = 0; i < sample.size(); ++i)
        sample[i] = -1.0f + 0.13f * static_cast<float>(i);
    const net::EncodedSample enc = net::encode_sample(sample, 1);
    ASSERT_EQ(enc.payload.size(), sample.size());
    ASSERT_EQ(enc.reference.size(), sample.size());
    for (std::size_t i = 0; i < sample.size(); ++i) {
        const float expect =
            net::dequant(enc.payload[i], enc.header.scale, enc.header.zero_point);
        EXPECT_EQ(enc.reference[i], expect) << "pixel " << i;
        // u8 quantization error stays within one step.
        EXPECT_NEAR(enc.reference[i], sample[i], enc.header.scale + 1e-6f);
    }
}

// ---------------------------------------------------------------------
// try_submit / completion-hook semantics (in-process).
// ---------------------------------------------------------------------

// Shared deployment context, trained once for the whole file (same
// pattern as test_serve.cpp).
class Net : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        data::DatasetConfig dc;
        dc.train_size = 600;
        dc.test_size = 200;
        dataset_ = new data::SyntheticDataset(dc);

        auto net = nn::make_network("alexnet-mini");
        nn::TrainConfig tcfg;
        tcfg.epochs = 2;
        nn::SgdTrainer trainer(tcfg);
        trainer.fit(net, *dataset_);
        graph_ = new ir::Graph(net.export_ir());

        const auto calib_images = dataset_->train_batch(0, 48);
        const std::vector<int> calib_labels(dataset_->train_labels().begin(),
                                            dataset_->train_labels().begin() + 48);
        calib_ = new quant::CalibrationData(
            quant::calibrate(*graph_, calib_images, calib_labels));

        mac_ = new netlist::Netlist(netlist::build_mac_circuit());
        library_ = new cell::Library(cell::Library::finfet14());
        selector_ = new core::CompressionSelector(*mac_, *library_);
        aging_ = new aging::AgingModel();

        eval_images_ = new tensor::Tensor(dataset_->test_batch(0, 100));
        eval_labels_ = new std::vector<int>(dataset_->test_labels().begin(),
                                            dataset_->test_labels().begin() + 100);
    }
    static void TearDownTestSuite() {
        delete eval_labels_;
        delete eval_images_;
        delete aging_;
        delete selector_;
        delete library_;
        delete mac_;
        delete calib_;
        delete graph_;
        delete dataset_;
    }

    [[nodiscard]] static serve::ServeContext context() {
        serve::ServeContext ctx;
        ctx.graph = graph_;
        ctx.calib = calib_;
        ctx.selector = selector_;
        ctx.aging = aging_;
        ctx.eval_images = eval_images_;
        ctx.eval_labels = eval_labels_;
        return ctx;
    }

    /// Wire-encode the first `n` test images (round-robin targets for
    /// the load generator).
    [[nodiscard]] static std::vector<net::EncodedSample> encoded_samples(int n) {
        std::vector<net::EncodedSample> samples;
        samples.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            const tensor::Tensor image = dataset_->test_batch(i, 1);
            samples.push_back(net::encode_sample(image, 1));
        }
        return samples;
    }

    static data::SyntheticDataset* dataset_;
    static ir::Graph* graph_;
    static quant::CalibrationData* calib_;
    static netlist::Netlist* mac_;
    static cell::Library* library_;
    static core::CompressionSelector* selector_;
    static aging::AgingModel* aging_;
    static tensor::Tensor* eval_images_;
    static std::vector<int>* eval_labels_;
};

data::SyntheticDataset* Net::dataset_ = nullptr;
ir::Graph* Net::graph_ = nullptr;
quant::CalibrationData* Net::calib_ = nullptr;
netlist::Netlist* Net::mac_ = nullptr;
cell::Library* Net::library_ = nullptr;
core::CompressionSelector* Net::selector_ = nullptr;
aging::AgingModel* Net::aging_ = nullptr;
tensor::Tensor* Net::eval_images_ = nullptr;
std::vector<int>* Net::eval_labels_ = nullptr;

TEST_F(Net, TrySubmitFiresCompletionHookAndClosesWithServer) {
    serve::ServeConfig cfg;
    cfg.num_devices = 1;
    cfg.num_workers = 1;
    serve::NpuServer server(context(), cfg);

    std::promise<void> done;
    auto fired = done.get_future();
    auto attempt = server.try_submit(dataset_->test_batch(0, 1),
                                     [&done] { done.set_value(); });
    ASSERT_EQ(attempt.status, serve::NpuServer::TrySubmit::Status::Accepted);
    const serve::InferenceResult result = attempt.future.get();
    EXPECT_FALSE(result.logits.empty());
    // The hook fires after the promise is satisfied — never lost.
    EXPECT_EQ(fired.wait_for(std::chrono::seconds(5)), std::future_status::ready);

    server.shutdown();
    auto after = server.try_submit(dataset_->test_batch(1, 1));
    EXPECT_EQ(after.status, serve::NpuServer::TrySubmit::Status::Closed);
}

// ---------------------------------------------------------------------
// End-to-end socket serving.
// ---------------------------------------------------------------------

TEST_F(Net, SocketServingIsLosslessAndBitIdenticalToInProcess) {
    constexpr int kRequests = 32;

    // Serial reference: the exact graph a fresh device deploys.
    const auto choice = selector_->select(0.0);
    ASSERT_TRUE(choice.has_value());
    const auto qconfig = quant::QuantConfig::from_compression(choice->compression);
    const auto reference = quant::quantize_graph(*graph_, quant::Method::M5_AciqNoBias,
                                                 qconfig, *calib_);

    serve::ServeConfig cfg;
    cfg.num_devices = 2;
    cfg.num_workers = 2;
    cfg.max_batch = 8;
    cfg.telemetry.metrics = true;
    serve::NpuServer npu(context(), cfg);

    net::NetConfig ncfg;
    ncfg.num_loops = 2;
    net::Server front(npu, ncfg);
    ASSERT_GT(front.port(), 0);

    const auto samples = encoded_samples(kRequests);

    net::LoadGenConfig lcfg;
    lcfg.port = front.port();
    lcfg.connections = 8;
    lcfg.model = net::TrafficModel::ClosedLoop;
    lcfg.total_requests = kRequests;
    lcfg.capture = true;
    const net::LoadReport report = net::run_load(lcfg, samples);

    EXPECT_EQ(report.sent, static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(report.ok, static_cast<std::uint64_t>(kRequests));
    EXPECT_TRUE(report.lossless()) << report.to_string();
    EXPECT_GT(report.p99_ms, 0.0);

    // Socket-served logits are bit-identical to serial in-process
    // execution of the SAME reconstructed tensor (the shared dequant).
    ASSERT_EQ(report.captured.size(), static_cast<std::size_t>(kRequests));
    for (const net::CapturedResult& cap : report.captured) {
        const net::EncodedSample& sample = samples[cap.sample_index];
        const tensor::Tensor serial = quant::run_quantized(reference, sample.reference);
        ASSERT_EQ(cap.logits.size(), serial.size()) << "sample " << cap.sample_index;
        for (std::size_t c = 0; c < serial.size(); ++c)
            EXPECT_EQ(cap.logits[c], serial[c])
                << "sample " << cap.sample_index << " class " << c;
    }

    // A METRICS scrape over the wire carries both the front-end's and
    // the serving runtime's series.
    const std::string scrape = net::fetch_metrics("127.0.0.1", front.port());
    EXPECT_NE(scrape.find("raq_net_requests_total"), std::string::npos);
    EXPECT_NE(scrape.find("raq_net_connections_total"), std::string::npos);
    EXPECT_NE(scrape.find("raq_device_requests_total"), std::string::npos);

    front.stop();
    npu.shutdown();

    const net::NetStats stats = front.stats();
    EXPECT_GE(stats.connections, 8u);
    EXPECT_GE(stats.requests, static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(stats.responses, stats.requests);
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.protocol_errors, 0u);
    EXPECT_GT(stats.bytes_read, 0u);
    EXPECT_GT(stats.bytes_written, 0u);

    // The reliability timeline recorded the front-end lifecycle.
    const std::string timeline = npu.export_timeline();
    EXPECT_NE(timeline.find("net-listen"), std::string::npos);
    EXPECT_NE(timeline.find("net-drain"), std::string::npos);
}

TEST_F(Net, MixedClassFramesRouteToLanesAndReportPerClass) {
    constexpr int kRequests = 48;
    serve::ServeConfig cfg;
    cfg.num_devices = 2;
    cfg.num_workers = 2;
    cfg.max_batch = 8;
    cfg.telemetry.metrics = true;
    serve::NpuServer npu(context(), cfg);

    net::NetConfig ncfg;
    net::Server front(npu, ncfg);
    ASSERT_GT(front.port(), 0);

    // Half the requests go out as legacy Op::Infer frames (interactive by
    // default), half as batch-class Op::InferClass frames.
    net::LoadGenConfig lcfg;
    lcfg.port = front.port();
    lcfg.connections = 4;
    lcfg.model = net::TrafficModel::ClosedLoop;
    lcfg.total_requests = kRequests;
    lcfg.interactive_frac = 0.5;
    const net::LoadReport report = net::run_load(lcfg, encoded_samples(16));

    EXPECT_TRUE(report.lossless()) << report.to_string();
    EXPECT_EQ(report.ok, static_cast<std::uint64_t>(kRequests));
    // The class split is a seeded draw — both classes must be present and
    // they must add up exactly.
    EXPECT_GT(report.ok_interactive, 0u);
    EXPECT_GT(report.ok_batch, 0u);
    EXPECT_EQ(report.ok_interactive + report.ok_batch, report.ok);
    EXPECT_GT(report.interactive_p99_ms, 0.0);
    EXPECT_GT(report.batch_p99_ms, 0.0);

    // Both lanes show up as labeled series in the scrape, and the batch
    // lane really admitted the InferClass frames.
    const std::string scrape = net::fetch_metrics("127.0.0.1", front.port());
    EXPECT_NE(scrape.find("raq_requests_submitted_total{class=\"interactive\"}"),
              std::string::npos);
    EXPECT_NE(scrape.find("raq_requests_submitted_total{class=\"batch\"}"),
              std::string::npos);
    EXPECT_EQ(npu.scheduler().stats().admitted[1], report.ok_batch);

    front.stop();
    npu.shutdown();
}

TEST_F(Net, WrongModelIdIsRejectedNotServed) {
    serve::ServeConfig cfg;
    cfg.num_devices = 1;
    cfg.num_workers = 1;
    serve::NpuServer npu(context(), cfg);
    net::Server front(npu, net::NetConfig{});

    // Encode against a model id the front-end does not serve.
    std::vector<net::EncodedSample> samples;
    samples.push_back(net::encode_sample(dataset_->test_batch(0, 1), 7));

    net::LoadGenConfig lcfg;
    lcfg.port = front.port();
    lcfg.connections = 1;
    lcfg.model = net::TrafficModel::ClosedLoop;
    lcfg.total_requests = 4;
    const net::LoadReport report = net::run_load(lcfg, samples);

    EXPECT_EQ(report.bad, 4u);
    EXPECT_EQ(report.ok, 0u);
    EXPECT_TRUE(report.lossless()) << report.to_string();

    front.stop();
    npu.shutdown();
}

TEST_F(Net, NonFiniteScaleIsRejectedNotServed) {
    // A NaN dequantization scale would turn every pixel into NaN: the
    // request is answered BadRequest, like an unknown model id, and the
    // connection stays open for the rest.
    serve::ServeConfig cfg;
    cfg.num_devices = 1;
    cfg.num_workers = 1;
    serve::NpuServer npu(context(), cfg);
    net::Server front(npu, net::NetConfig{});

    std::vector<net::EncodedSample> samples;
    samples.push_back(net::encode_sample(dataset_->test_batch(0, 1)));
    samples.back().header.scale = std::numeric_limits<float>::quiet_NaN();

    net::LoadGenConfig lcfg;
    lcfg.port = front.port();
    lcfg.connections = 1;
    lcfg.model = net::TrafficModel::ClosedLoop;
    lcfg.total_requests = 4;
    const net::LoadReport report = net::run_load(lcfg, samples);

    EXPECT_EQ(report.bad, 4u);
    EXPECT_EQ(report.ok, 0u);
    EXPECT_TRUE(report.lossless()) << report.to_string();

    front.stop();
    npu.shutdown();
}

TEST_F(Net, OverloadShedsWithBusyAndStaysLossless) {
    // A deliberately tiny service: one worker, a 2-deep admission queue.
    serve::ServeConfig cfg;
    cfg.num_devices = 1;
    cfg.num_workers = 1;
    cfg.max_batch = 2;
    cfg.queue_capacity = 2;
    cfg.telemetry.metrics = true;
    serve::NpuServer npu(context(), cfg);
    net::Server front(npu, net::NetConfig{});

    const auto samples = encoded_samples(8);

    // Open-loop Poisson far beyond what one worker can drain: offered
    // load is a property of the trace, so the excess MUST be shed.
    net::LoadGenConfig lcfg;
    lcfg.port = front.port();
    lcfg.connections = 4;
    lcfg.model = net::TrafficModel::Poisson;
    lcfg.rate_rps = 4000.0;
    lcfg.duration_s = 1.0;
    const net::LoadReport report = net::run_load(lcfg, samples);

    EXPECT_GT(report.sent, 0u);
    EXPECT_GT(report.ok, 0u);
    EXPECT_GT(report.busy, 0u) << report.to_string();
    // The no-blackhole guarantee: every request answered exactly once.
    EXPECT_TRUE(report.lossless()) << report.to_string();
    EXPECT_EQ(report.errors, 0u) << report.to_string();

    front.stop();
    npu.shutdown();

    const net::NetStats stats = front.stats();
    EXPECT_EQ(stats.shed, report.busy);
    // Overload left its mark on the reliability timeline (rate-limited).
    const std::string timeline = npu.export_timeline();
    EXPECT_NE(timeline.find("net-overload"), std::string::npos);
}

TEST_F(Net, ShutdownCascadeAnswersEverythingThenRefusesConnections) {
    serve::ServeConfig cfg;
    cfg.num_devices = 1;
    cfg.num_workers = 1;
    serve::NpuServer npu(context(), cfg);
    net::Server front(npu, net::NetConfig{});
    const std::uint16_t port = front.port();

    const auto samples = encoded_samples(8);
    net::LoadGenConfig lcfg;
    lcfg.port = port;
    lcfg.connections = 2;
    lcfg.model = net::TrafficModel::ClosedLoop;
    lcfg.total_requests = 8;
    const net::LoadReport report = net::run_load(lcfg, samples);
    EXPECT_EQ(report.ok, 8u);
    EXPECT_TRUE(report.lossless());

    front.stop();
    // Idempotent.
    front.stop();

    // Every parsed request got a serialized response before the drain
    // finished.
    const net::NetStats stats = front.stats();
    EXPECT_EQ(stats.responses, stats.requests);

    // The listener is gone: a fresh scrape cannot connect.
    EXPECT_TRUE(net::fetch_metrics("127.0.0.1", port).empty());

    // The NpuServer outlives the front-end and still serves in-process.
    auto future = npu.submit(dataset_->test_batch(0, 1));
    EXPECT_FALSE(future.get().logits.empty());
    npu.shutdown();
}

// ---------------------------------------------------------------------
// Traffic-driven aging, end to end: a fleet pinned at saturation by a
// closed loop accrues measurably more stress per served request than a
// quiet fleet trickled by a low-rate open loop over a longer wall span.
// ---------------------------------------------------------------------

TEST_F(Net, HeavyTrafficFleetAgesFasterThanQuietFleet) {
    constexpr int kHeavyRequests = 48;
    constexpr int kQuietRequests = 20;

    serve::ServeConfig cfg;
    cfg.num_devices = 1;
    cfg.num_workers = 1;
    cfg.max_batch = 4;
    cfg.device.traffic_aging.enabled = true;
    cfg.device.traffic_aging.window_us = 250'000;
    cfg.device.traffic_aging.self_heat_c = 40.0;  // pronounced busy-idle delta

    // Scale aging so the saturated run lands around 8 mV over its 48
    // requests (same probe trick as test_serve.cpp).
    {
        serve::NpuServer probe(context(), cfg);
        const auto& dev = probe.device(0);
        const double busy_hours_per_request =
            static_cast<double>(dev.per_image_cycles()) * dev.clock_period_ps() * 1e-12 /
            3600.0;
        cfg.device.age_acceleration = aging_->years_for_dvth(8.0) * 8760.0 /
                                      (kHeavyRequests * busy_hours_per_request);
        probe.shutdown();
    }

    const auto run_fleet = [&](const net::LoadGenConfig& lcfg_in,
                               std::uint64_t expect_ok) -> serve::DeviceStats {
        serve::NpuServer npu(context(), cfg);
        net::Server front(npu, net::NetConfig{});
        net::LoadGenConfig lcfg = lcfg_in;
        lcfg.port = front.port();
        const auto samples = encoded_samples(16);
        const net::LoadReport report = net::run_load(lcfg, samples);
        EXPECT_EQ(report.ok, expect_ok) << report.to_string();
        EXPECT_TRUE(report.lossless()) << report.to_string();
        front.stop();
        npu.shutdown();
        return npu.device(0).stats();
    };

    // Heavy fleet: 4 closed-loop connections keep the device saturated.
    net::LoadGenConfig heavy;
    heavy.connections = 4;
    heavy.model = net::TrafficModel::ClosedLoop;
    heavy.total_requests = kHeavyRequests;
    const serve::DeviceStats heavy_stats = run_fleet(heavy, kHeavyRequests);

    // Quiet fleet: a low-rate Poisson trickle — mostly idle wall time.
    net::LoadGenConfig quiet;
    quiet.connections = 2;
    quiet.model = net::TrafficModel::Poisson;
    quiet.rate_rps = 10.0;
    quiet.total_requests = kQuietRequests;
    quiet.duration_s = 60.0;  // quota governs; rate spreads it over ~2 s
    const serve::DeviceStats quiet_stats = run_fleet(quiet, kQuietRequests);

    EXPECT_EQ(heavy_stats.requests, static_cast<std::uint64_t>(kHeavyRequests));
    EXPECT_EQ(quiet_stats.requests, static_cast<std::uint64_t>(kQuietRequests));

    // The monitors saw genuinely different utilization.
    EXPECT_GT(heavy_stats.duty_fraction, quiet_stats.duty_fraction);

    // Per served request, the hot fleet accrued measurably more
    // effective stress hours — the duty factor, isolated from the
    // request-count difference.
    const double heavy_hours_per_req =
        heavy_stats.operating_hours / static_cast<double>(heavy_stats.requests);
    const double quiet_hours_per_req =
        quiet_stats.operating_hours / static_cast<double>(quiet_stats.requests);
    EXPECT_GT(heavy_hours_per_req, quiet_hours_per_req * 1.05)
        << "heavy duty " << heavy_stats.duty_fraction << " quiet duty "
        << quiet_stats.duty_fraction;

    // And therefore more ΔVth.
    EXPECT_GT(heavy_stats.dvth_mv, quiet_stats.dvth_mv);
    EXPECT_GT(heavy_stats.dvth_mv, 1.0);  // the acceleration actually bit
}

}  // namespace
