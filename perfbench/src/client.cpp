#include "client.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "net/protocol.hpp"

namespace raq::perfbench {

namespace {

constexpr std::size_t kTagOffset = 4 + 1;        // after length and op
constexpr std::size_t kClassOffset = 4 + 1 + 8;  // InferClass: after the tag

bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
    while (size > 0) {
        const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

bool recv_all(int fd, std::uint8_t* data, std::size_t size) {
    while (size > 0) {
        const ssize_t n = ::recv(fd, data, size, 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

}  // namespace

std::vector<WireSample> make_wire_samples(const data::SyntheticDataset& data,
                                          bool class_frames) {
    std::vector<WireSample> out;
    out.reserve(static_cast<std::size_t>(data.test_size()));
    for (int i = 0; i < data.test_size(); ++i) {
        const tensor::Tensor image = data.test_batch(i, 1);
        const tensor::Shape shape = image.shape();
        const float* px = image.data();
        const std::size_t n = image.size();
        const auto [lo_it, hi_it] = std::minmax_element(px, px + n);
        const float lo = *lo_it, hi = *hi_it;
        net::InferHeader header;
        header.model_id = 1;
        header.c = static_cast<std::uint16_t>(shape.c);
        header.h = static_cast<std::uint16_t>(shape.h);
        header.w = static_cast<std::uint16_t>(shape.w);
        header.scale = hi > lo ? (hi - lo) / 255.0f : 1.0f;
        header.zero_point = -lo / header.scale;

        WireSample sample;
        sample.label = data.test_labels()[static_cast<std::size_t>(i)];
        sample.reference = tensor::Tensor(shape);
        std::vector<std::uint8_t> payload(n);
        for (std::size_t k = 0; k < n; ++k) {
            const float q = std::round(px[k] / header.scale + header.zero_point);
            payload[k] = static_cast<std::uint8_t>(std::clamp(q, 0.0f, 255.0f));
            sample.reference.data()[k] =
                net::dequant(payload[k], header.scale, header.zero_point);
        }
        if (class_frames)
            net::encode_infer_class_request(sample.frame, 0, 0, header, payload);
        else
            net::encode_infer_request(sample.frame, 0, header, payload);
        out.push_back(std::move(sample));
    }
    return out;
}

Connection::Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd_);
        throw std::runtime_error("connect() to the benchmark listener failed");
    }
}

Connection::~Connection() {
    if (fd_ >= 0) ::close(fd_);
}

ClientLog run_closed_loop(const ClientPlan& plan, const char* span,
                          const RoundTrip& round_trip) {
    ClientLog log;
    // Sized for a whole phase, so the timed loop does not reallocate.
    log.replies.reserve(std::size_t{1} << 16);
    log.logits.reserve(std::size_t{16} << 16);
    net::InferReply r;
    std::string error;
    for (std::uint64_t i = 0;; ++i) {
        const Clock::time_point sent = Clock::now();
        if (sent >= plan.deadline) break;
        const std::uint32_t sample = plan.order[i % plan.order.size()];
        const std::uint8_t klass =
            plan.classes.empty() ? 0 : plan.classes[i % plan.classes.size()];
        const std::uint64_t tag = plan.tag_base + i;
        ++log.attempted;
        const std::int64_t span_start = plan.trace ? now_ns() : 0;
        Trip trip = round_trip(sample, klass, tag, r, error);
        const Clock::time_point done = Clock::now();
        if (plan.trace) log.spans.push_back({span, span_start, now_ns(), -1, tag});
        if (trip == Trip::Ok) {
            if (log.logits_per_reply == 0) log.logits_per_reply = r.logits.size();
            if (r.logits.size() != log.logits_per_reply) {
                trip = Trip::Failed;
                error = "reply logit count changed";
            }
        }
        if (trip != Trip::Ok) {
            ++log.failed;
            if (log.error.empty()) log.error = error;
            if (trip == Trip::Broken) break;
            continue;
        }
        Reply reply;
        reply.sample = sample;
        reply.klass = klass;
        reply.device = r.device_id;
        reply.generation = r.generation;
        reply.predicted = r.predicted_class;
        reply.latency_us = 1e6 * seconds_between(sent, done);
        log.replies.push_back(reply);
        log.logits.insert(log.logits.end(), r.logits.begin(), r.logits.end());
    }
    return log;
}

ClientLog run_client(Connection& conn, const ClientPlan& plan) {
    const net::Op op = plan.class_frames ? net::Op::InferClass : net::Op::Infer;
    std::vector<std::uint8_t> frame;
    std::vector<std::uint8_t> payload;
    net::Response response;
    return run_closed_loop(
        plan, "net.request",
        [&](std::uint32_t sample, std::uint8_t klass, std::uint64_t tag, net::InferReply& reply,
            std::string& error) {
            frame = (*plan.samples)[sample].frame;
            std::memcpy(frame.data() + kTagOffset, &tag, sizeof(tag));
            if (plan.class_frames) frame[kClassOffset] = klass;
            std::uint32_t length = 0;
            if (!send_all(conn.fd(), frame.data(), frame.size()) ||
                !recv_all(conn.fd(), reinterpret_cast<std::uint8_t*>(&length), sizeof(length)) ||
                length > net::kMaxFrameBytes) {
                error = "transport failure";
                return Trip::Broken;
            }
            payload.resize(length);
            if (!recv_all(conn.fd(), payload.data(), length)) {
                error = "transport failure";
                return Trip::Broken;
            }
            if (!net::decode_response(payload.data(), payload.size(), op, response) ||
                response.tag != tag) {
                error = "malformed or mismatched reply";
                return Trip::Broken;
            }
            if (response.status != net::Status::Ok) {
                error = "status " + std::to_string(static_cast<int>(response.status)) + ": " +
                        response.blob;
                return Trip::Failed;
            }
            std::swap(reply, response.infer);
            return Trip::Ok;
        });
}

}  // namespace raq::perfbench
