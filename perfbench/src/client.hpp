// The benchmark's own closed-loop load generator, built only on the
// net/protocol.hpp wire format. Each client keeps exactly one request
// outstanding on its own TCP connection (send, wait for the reply,
// record, send the next), and keeps for every reply the sample, class,
// serving device, generation and logits, so the output checks can
// replay each reply against the deployment that served it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "data/synthetic_dataset.hpp"
#include "harness.hpp"
#include "net/protocol.hpp"
#include "tensor/tensor.hpp"

namespace raq::perfbench {

/// One sample as it travels: its request frame, encoded once (the tag
/// and class bytes are patched per request), and the tensor the server
/// reconstructs from the frame's bytes — the input of the in-process
/// and bit-identity references.
struct WireSample {
    std::vector<std::uint8_t> frame;
    tensor::Tensor reference;
    int label = 0;
};

/// The dataset's test images as wire samples. `class_frames` selects
/// the class-tagged INFER frame (Op::InferClass); otherwise plain INFER.
[[nodiscard]] std::vector<WireSample> make_wire_samples(const data::SyntheticDataset& data,
                                                        bool class_frames);

/// One OK reply.
struct Reply {
    std::uint32_t sample = 0;
    std::uint8_t klass = 0;
    std::uint32_t device = 0;
    std::uint64_t generation = 0;
    std::int32_t predicted = -1;
    double latency_us = 0.0;  ///< client-side round trip
};

/// What one client saw over one phase.
struct ClientLog {
    std::vector<Reply> replies;  ///< OK replies only
    std::vector<float> logits;   ///< replies.size() × logits_per_reply
    std::size_t logits_per_reply = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;  ///< non-OK status, transport failure or bad frame
    std::string error;         ///< first failure, for the log
    std::vector<Tracer::Span> spans;  ///< one per request when tracing
};

/// A connected client socket (TCP_NODELAY), closed on destruction.
class Connection {
public:
    explicit Connection(std::uint16_t port);
    ~Connection();
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;
    [[nodiscard]] int fd() const { return fd_; }

private:
    int fd_ = -1;
};

/// The request stream of one client: request i sends sample
/// order[i % order.size()] with class classes[i % classes.size()].
struct ClientPlan {
    const std::vector<WireSample>* samples = nullptr;
    std::vector<std::uint32_t> order;
    std::vector<std::uint8_t> classes;
    bool class_frames = false;
    std::uint64_t tag_base = 0;
    Clock::time_point deadline;
    bool trace = false;
};

/// How one round trip ended.
enum class Trip {
    Ok,      ///< an OK reply
    Failed,  ///< a non-OK reply; the loop goes on
    Broken,  ///< the transport is unusable; the loop stops
};

/// Send sample `sample` as class `klass` with request tag `tag` and wait
/// for its reply. On Ok the reply is filled in; otherwise `error` says
/// why.
using RoundTrip = std::function<Trip(std::uint32_t sample, std::uint8_t klass,
                                     std::uint64_t tag, net::InferReply& reply,
                                     std::string& error)>;

/// Run the closed loop until the deadline (the request in flight at the
/// deadline completes and counts). `span` names the per-request span a
/// tracing plan records.
[[nodiscard]] ClientLog run_closed_loop(const ClientPlan& plan, const char* span,
                                        const RoundTrip& round_trip);

/// The closed loop over a socket: one INFER frame out, one reply in.
[[nodiscard]] ClientLog run_client(Connection& conn, const ClientPlan& plan);

}  // namespace raq::perfbench
