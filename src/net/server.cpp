#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "obs/clock.hpp"

namespace raq::net {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

/// One request admitted on a connection, awaiting its future.
struct InFlight {
    std::uint64_t tag = 0;
    std::uint64_t seq = 0;  ///< loop-unique id the completion hook posts back
    std::future<serve::InferenceResult> future;
};

/// Per-connection non-blocking read/write state machine. Owned by
/// exactly one event loop; never touched by another thread.
struct Connection {
    int fd = -1;
    std::vector<std::uint8_t> rbuf;  ///< frame reassembly buffer
    std::size_t rlen = 0;            ///< valid bytes in rbuf
    std::vector<std::uint8_t> wbuf;  ///< pending response bytes
    std::size_t wpos = 0;            ///< flushed prefix of wbuf
    std::deque<InFlight> inflight;
    bool want_write = false;  ///< EPOLLOUT registered
    bool peer_closed = false; ///< read side done; flush + resolve, then close
};

struct Server::EventLoop {
    Server* srv = nullptr;
    int index = 0;
    int epfd = -1;
    int wake_fd = -1;
    std::thread thread;

    /// Cross-thread inbox (acceptor posts fds, completion hooks post
    /// seqs), drained by the loop thread after an eventfd wake.
    struct Completion {
        std::uint64_t seq = 0;
        std::int64_t done_us = 0;  ///< when the promise resolved
    };
    common::Mutex inbox_mutex;
    std::vector<int> pending_fds RAQ_GUARDED_BY(inbox_mutex);
    std::vector<Completion> completions RAQ_GUARDED_BY(inbox_mutex);

    /// Loop-thread-private state (thread-confined, deliberately
    /// unguarded: only the loop thread touches it after construction;
    /// stop() reads nothing here until after thread.join()).
    std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns;
    std::uint64_t next_conn_id = 1;  ///< 0 is the wake token
    std::uint64_t next_seq = 1;
    /// seq → owning conn id; survives the conn (orphaned entries park in
    /// `orphans` so their futures are still consumed after a disconnect
    /// — an accepted request is never blackholed, even client-side).
    std::unordered_map<std::uint64_t, std::uint64_t> seq_owner;
    std::unordered_map<std::uint64_t, InFlight> orphans;
    /// Admitted-but-unresolved requests in this loop (drain gate).
    std::int64_t inflight_count = 0;

    void run();
    void wake() const {
        const std::uint64_t one = 1;
        // The counter saturating (EAGAIN) still leaves the fd readable.
        [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof(one));
    }
    void drain_inbox() RAQ_EXCLUDES(inbox_mutex);
    void add_connection(int fd);
    void handle_readable(Connection& conn, std::uint64_t conn_id);
    /// Returns false on a protocol error (caller closes the connection).
    bool handle_frame(Connection& conn, std::uint64_t conn_id,
                      const std::uint8_t* payload, std::size_t size);
    void handle_completion(std::uint64_t seq, std::int64_t done_us);
    void respond_inflight(Connection& conn, InFlight& entry, std::int64_t done_us);
    /// Flush wbuf; manages EPOLLOUT interest. Returns false when the
    /// connection died mid-write (already destroyed).
    bool flush(Connection& conn, std::uint64_t conn_id);
    void update_interest(const Connection& conn, std::uint64_t conn_id) const;
    void destroy(std::uint64_t conn_id);
    [[nodiscard]] bool drained() const;
};

// ---------------------------------------------------------------------
// Server

Server::Server(serve::NpuServer& npu, const NetConfig& config)
    : npu_(npu), config_(config) {
    if (config.num_loops < 1) throw std::invalid_argument("net::Server: num_loops >= 1");
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("net::Server: socket() failed");
    const int enable = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config.port);
    if (::inet_pton(AF_INET, config.host.c_str(), &addr.sin_addr) != 1) {
        ::close(listen_fd_);
        throw std::runtime_error("net::Server: bad host address " + config.host);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, config.backlog) != 0) {
        ::close(listen_fd_);
        throw std::runtime_error("net::Server: cannot bind/listen on " + config.host +
                                 ":" + std::to_string(config.port));
    }
    socklen_t addr_len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
    port_ = ntohs(addr.sin_port);
    set_nonblocking(listen_fd_);

    register_metrics();

    loops_.reserve(static_cast<std::size_t>(config.num_loops));
    for (int i = 0; i < config.num_loops; ++i) {
        auto loop = std::make_unique<EventLoop>();
        loop->srv = this;
        loop->index = i;
        loop->epfd = ::epoll_create1(0);
        loop->wake_fd = ::eventfd(0, EFD_NONBLOCK);
        if (loop->epfd < 0 || loop->wake_fd < 0)
            throw std::runtime_error("net::Server: epoll/eventfd setup failed");
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = 0;  // the wake token
        ::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
        loops_.push_back(std::move(loop));
    }
    for (auto& loop : loops_) {
        EventLoop* raw = loop.get();
        raw->thread = std::thread([raw] { raw->run(); });
    }
    acceptor_ = std::thread([this] { acceptor_loop(); });

    if (obs::Telemetry* t = npu_.telemetry()) {
        obs::ReliabilityEvent re;
        re.t_us = obs::monotonic_us();
        re.kind = obs::EventKind::NetListen;
        re.value = static_cast<double>(port_);
        re.detail = config_.host + ":" + std::to_string(port_) + " loops=" +
                    std::to_string(config_.num_loops);
        t->timeline().record(std::move(re));
    }
}

Server::~Server() {
    stop();
    for (auto& loop : loops_) {
        if (loop->epfd >= 0) ::close(loop->epfd);
        if (loop->wake_fd >= 0) ::close(loop->wake_fd);
    }
}

void Server::register_metrics() {
    obs::Telemetry* t = npu_.telemetry();
    if (!t) return;
    obs::MetricsRegistry& reg = t->metrics();
    m_connections_ = &reg.counter("raq_net_connections_total");
    m_active_ = &reg.gauge("raq_net_connections_active");
    m_requests_ = &reg.counter("raq_net_requests_total");
    m_responses_ = &reg.counter("raq_net_responses_total");
    m_shed_ = &reg.counter("raq_net_shed_total");
    m_protocol_errors_ = &reg.counter("raq_net_protocol_errors_total");
    m_bytes_read_ = &reg.counter("raq_net_bytes_read_total");
    m_bytes_written_ = &reg.counter("raq_net_bytes_written_total");
    m_socket_wait_us_ =
        &reg.histogram("raq_net_socket_wait_us", {}, obs::default_us_buckets());
}

void Server::acceptor_loop() {
    while (!stopping_.load(std::memory_order_acquire)) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        // 100 ms tick: bounded staleness on the stop flag without a
        // wake pipe for one rarely-stopped thread.
        const int ready = ::poll(&pfd, 1, 100);
        if (ready <= 0) continue;
        for (;;) {
            const int fd = ::accept(listen_fd_, nullptr, nullptr);
            if (fd < 0) break;  // EAGAIN (or a transient error) — next tick
            set_nonblocking(fd);
            const int nodelay = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
            connections_.fetch_add(1, std::memory_order_relaxed);
            if (m_connections_) m_connections_->add(1);
            EventLoop& loop =
                *loops_[next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size()];
            {
                const common::MutexLock lock(loop.inbox_mutex);
                loop.pending_fds.push_back(fd);
            }
            loop.wake();
        }
    }
}

void Server::stop() {
    if (stopping_.exchange(true)) return;
    // Cascade: stop accepting → drain connections (in-flight futures
    // resolve, responses flush, new INFERs answered SHUTTING_DOWN) →
    // loops exit → join. The queue itself drains inside the NpuServer,
    // which must outlive this call.
    acceptor_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;
    draining_.store(true, std::memory_order_release);
    for (auto& loop : loops_) loop->wake();
    for (auto& loop : loops_) loop->thread.join();
    if (obs::Telemetry* t = npu_.telemetry()) {
        obs::ReliabilityEvent re;
        re.t_us = obs::monotonic_us();
        re.kind = obs::EventKind::NetDrain;
        re.value = static_cast<double>(responses_.load(std::memory_order_relaxed));
        re.detail = "drained; shed=" + std::to_string(shed_.load(std::memory_order_relaxed));
        t->timeline().record(std::move(re));
    }
}

NetStats Server::stats() const {
    NetStats s;
    s.connections = connections_.load(std::memory_order_relaxed);
    s.requests = requests_.load(std::memory_order_relaxed);
    s.responses = responses_.load(std::memory_order_relaxed);
    s.shed = shed_.load(std::memory_order_relaxed);
    s.shutdown_rejects = shutdown_rejects_.load(std::memory_order_relaxed);
    s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
    s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
    return s;
}

// ---------------------------------------------------------------------
// EventLoop

void Server::EventLoop::run() {
    epoll_event events[64];
    std::int64_t drain_deadline_us = -1;
    for (;;) {
        const int n = ::epoll_wait(epfd, events, 64, 100);
        for (int i = 0; i < n; ++i) {
            const std::uint64_t id = events[i].data.u64;
            if (id == 0) {
                std::uint64_t drained = 0;
                [[maybe_unused]] const ssize_t r =
                    ::read(wake_fd, &drained, sizeof(drained));
                continue;  // inbox drained below, once per wait round
            }
            const auto it = conns.find(id);
            if (it == conns.end()) continue;  // destroyed earlier this round
            Connection& conn = *it->second;
            if (events[i].events & (EPOLLHUP | EPOLLERR)) {
                destroy(id);
                continue;
            }
            if (events[i].events & EPOLLOUT) {
                if (!flush(conn, id)) continue;
            }
            if (events[i].events & EPOLLIN) handle_readable(conn, id);
        }
        drain_inbox();
        if (srv->draining_.load(std::memory_order_acquire)) {
            if (drain_deadline_us < 0)
                drain_deadline_us =
                    obs::monotonic_us() + 1000ll * srv->config_.drain_deadline_ms;
            if (drained() || obs::monotonic_us() > drain_deadline_us) break;
        }
    }
    // Close every connection socket; epfd/wake_fd stay open until the
    // Server destructor (a straggling completion hook may still write
    // the eventfd after a deadline-forced exit).
    for (auto& [id, conn] : conns) {
        ::close(conn->fd);
        if (srv->m_active_) srv->m_active_->add(-1.0);
    }
    conns.clear();
}

bool Server::EventLoop::drained() const {
    if (inflight_count != 0) return false;
    for (const auto& [id, conn] : conns)
        if (conn->wpos < conn->wbuf.size()) return false;
    return true;
}

void Server::EventLoop::drain_inbox() {
    std::vector<int> fds;
    std::vector<Completion> done;
    {
        const common::MutexLock lock(inbox_mutex);
        fds.swap(pending_fds);
        done.swap(completions);
    }
    for (const int fd : fds) add_connection(fd);
    for (const Completion& c : done) handle_completion(c.seq, c.done_us);
}

void Server::EventLoop::add_connection(int fd) {
    const std::uint64_t id = next_conn_id++;
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        return;
    }
    conns.emplace(id, std::move(conn));
    if (srv->m_active_) srv->m_active_->add(1.0);
}

void Server::EventLoop::handle_readable(Connection& conn, std::uint64_t conn_id) {
    if (conn.peer_closed) return;
    for (;;) {
        if (conn.rbuf.size() < conn.rlen + kReadChunk)
            conn.rbuf.resize(conn.rlen + kReadChunk);
        const ssize_t n =
            ::recv(conn.fd, conn.rbuf.data() + conn.rlen, kReadChunk, 0);
        if (n > 0) {
            conn.rlen += static_cast<std::size_t>(n);
            srv->bytes_read_.fetch_add(static_cast<std::uint64_t>(n),
                                       std::memory_order_relaxed);
            if (srv->m_bytes_read_) srv->m_bytes_read_->add(static_cast<double>(n));
            continue;
        }
        if (n == 0) {
            // Peer finished sending. Outstanding responses still flush;
            // the connection closes once everything in flight resolves.
            conn.peer_closed = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        destroy(conn_id);
        return;
    }
    // Parse complete frames in place.
    std::size_t off = 0;
    bool ok = true;
    while (conn.rlen - off >= 4) {
        std::uint32_t len = 0;
        std::memcpy(&len, conn.rbuf.data() + off, 4);
        if (len == 0 || len > srv->config_.max_frame_bytes) {
            ok = false;
            break;
        }
        if (conn.rlen - off - 4 < len) break;  // incomplete frame
        if (!handle_frame(conn, conn_id, conn.rbuf.data() + off + 4, len)) {
            ok = false;
            break;
        }
        off += 4 + len;
    }
    if (!ok) {
        srv->protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        if (srv->m_protocol_errors_) srv->m_protocol_errors_->add(1);
        destroy(conn_id);
        return;
    }
    if (off > 0) {
        std::memmove(conn.rbuf.data(), conn.rbuf.data() + off, conn.rlen - off);
        conn.rlen -= off;
    }
    if (!flush(conn, conn_id)) return;
    if (conn.peer_closed && conn.inflight.empty() && conn.wpos >= conn.wbuf.size())
        destroy(conn_id);
}

bool Server::EventLoop::handle_frame(Connection& conn, std::uint64_t conn_id,
                                     const std::uint8_t* payload, std::size_t size) {
    Reader r(payload, size);
    std::uint8_t op_byte = 0;
    std::uint64_t tag = 0;
    if (!r.read(op_byte) || !r.read(tag)) return false;
    srv->requests_.fetch_add(1, std::memory_order_relaxed);
    if (srv->m_requests_) srv->m_requests_->add(1);

    if (op_byte == static_cast<std::uint8_t>(Op::Metrics)) {
        encode_blob_response(conn.wbuf, Status::Ok, tag, srv->npu_.export_metrics());
        srv->responses_.fetch_add(1, std::memory_order_relaxed);
        if (srv->m_responses_) srv->m_responses_->add(1);
        return true;
    }
    // Class-tagged INFER frames carry one class byte after the tag;
    // legacy Infer frames default to the interactive lane.
    serve::RequestClass klass = serve::RequestClass::Interactive;
    if (op_byte == static_cast<std::uint8_t>(Op::InferClass)) {
        std::uint8_t class_byte = 0;
        if (!r.read(class_byte) ||
            class_byte >= static_cast<std::uint8_t>(serve::kNumRequestClasses))
            return false;
        klass = static_cast<serve::RequestClass>(class_byte);
    } else if (op_byte != static_cast<std::uint8_t>(Op::Infer)) {
        return false;
    }

    InferHeader hdr;
    if (!r.read(hdr.model_id) || !r.read(hdr.c) || !r.read(hdr.h) || !r.read(hdr.w) ||
        !r.read(hdr.scale) || !r.read(hdr.zero_point))
        return false;
    const std::size_t pixels = static_cast<std::size_t>(hdr.c) * hdr.h * hdr.w;
    const std::uint8_t* bytes = nullptr;
    if (pixels == 0 || r.remaining() != pixels || !r.bytes(pixels, bytes)) return false;
    if (hdr.model_id != srv->config_.model_id) {
        encode_blob_response(conn.wbuf, Status::BadRequest, tag,
                             "unknown model id " + std::to_string(hdr.model_id));
        srv->responses_.fetch_add(1, std::memory_order_relaxed);
        if (srv->m_responses_) srv->m_responses_->add(1);
        return true;
    }
    // A NaN or infinite scale or zero-point dequantizes to NaN pixels:
    // meaningless logits, not a request to serve.
    if (!std::isfinite(hdr.scale) || !std::isfinite(hdr.zero_point)) {
        encode_blob_response(conn.wbuf, Status::BadRequest, tag,
                             "non-finite dequantization scale or zero-point");
        srv->responses_.fetch_add(1, std::memory_order_relaxed);
        if (srv->m_responses_) srv->m_responses_->add(1);
        return true;
    }

    if (srv->draining_.load(std::memory_order_acquire)) {
        encode_blob_response(conn.wbuf, Status::ShuttingDown, tag, "draining");
        srv->shutdown_rejects_.fetch_add(1, std::memory_order_relaxed);
        srv->responses_.fetch_add(1, std::memory_order_relaxed);
        if (srv->m_responses_) srv->m_responses_->add(1);
        return true;
    }

    // Zero-copy hand-off: dequantize the wire payload straight into the
    // tensor the batcher consumes. No intermediate image buffer exists
    // between the socket read and the admission queue.
    tensor::Tensor image(tensor::Shape{1, hdr.c, hdr.h, hdr.w});
    float* dst = image.data();
    for (std::size_t i = 0; i < pixels; ++i)
        dst[i] = dequant(bytes[i], hdr.scale, hdr.zero_point);

    const std::uint64_t seq = next_seq++;
    serve::NpuServer::TrySubmit admitted = srv->npu_.try_submit(
        std::move(image),
        [this, seq] {
            const std::int64_t now = obs::monotonic_us();
            {
                const common::MutexLock lock(inbox_mutex);
                completions.push_back({seq, now});
            }
            wake();
        },
        klass);
    switch (admitted.status) {
        case serve::NpuServer::TrySubmit::Status::Accepted: {
            // The hook cannot race this bookkeeping: completions are
            // only *processed* by this thread, later in drain_inbox().
            InFlight entry;
            entry.tag = tag;
            entry.seq = seq;
            entry.future = std::move(admitted.future);
            conn.inflight.push_back(std::move(entry));
            seq_owner.emplace(seq, conn_id);
            ++inflight_count;
            return true;
        }
        case serve::NpuServer::TrySubmit::Status::Saturated: {
            encode_blob_response(conn.wbuf, Status::Busy, tag, "queue saturated");
            srv->shed_.fetch_add(1, std::memory_order_relaxed);
            srv->responses_.fetch_add(1, std::memory_order_relaxed);
            if (srv->m_shed_) srv->m_shed_->add(1);
            if (srv->m_responses_) srv->m_responses_->add(1);
            if (obs::Telemetry* t = srv->npu_.telemetry()) {
                // Rate-limit the timeline event to ~1/s: overload sheds
                // thousands of requests; the timeline wants the episode.
                const std::int64_t now = obs::monotonic_us();
                std::int64_t last =
                    srv->last_overload_event_us_.load(std::memory_order_relaxed);
                if (now - last > 1'000'000 &&
                    srv->last_overload_event_us_.compare_exchange_strong(
                        last, now, std::memory_order_relaxed)) {
                    obs::ReliabilityEvent re;
                    re.t_us = now;
                    re.kind = obs::EventKind::NetOverload;
                    re.value = static_cast<double>(
                        srv->shed_.load(std::memory_order_relaxed));
                    re.detail = "admission queue saturated; shedding BUSY";
                    t->timeline().record(std::move(re));
                }
            }
            return true;
        }
        case serve::NpuServer::TrySubmit::Status::Closed: {
            encode_blob_response(conn.wbuf, Status::ShuttingDown, tag, "server closed");
            srv->shutdown_rejects_.fetch_add(1, std::memory_order_relaxed);
            srv->responses_.fetch_add(1, std::memory_order_relaxed);
            if (srv->m_responses_) srv->m_responses_->add(1);
            return true;
        }
    }
    return false;
}

void Server::EventLoop::handle_completion(std::uint64_t seq, std::int64_t done_us) {
    const auto owner = seq_owner.find(seq);
    if (owner == seq_owner.end()) return;  // already consumed
    const std::uint64_t conn_id = owner->second;
    seq_owner.erase(owner);

    const auto orphan = orphans.find(seq);
    if (orphan != orphans.end()) {
        // Connection died before its request resolved: consume the
        // future (the serving side completed it — nothing leaks), drop
        // the response.
        try {
            orphan->second.future.get();
        } catch (...) {
        }
        orphans.erase(orphan);
        --inflight_count;
        return;
    }
    const auto it = conns.find(conn_id);
    if (it == conns.end()) return;
    Connection& conn = *it->second;
    for (auto entry = conn.inflight.begin(); entry != conn.inflight.end(); ++entry) {
        if (entry->seq != seq) continue;
        respond_inflight(conn, *entry, done_us);
        conn.inflight.erase(entry);
        --inflight_count;
        if (!flush(conn, conn_id)) return;
        if (conn.peer_closed && conn.inflight.empty() && conn.wpos >= conn.wbuf.size())
            destroy(conn_id);
        return;
    }
}

void Server::EventLoop::respond_inflight(Connection& conn, InFlight& entry,
                                         std::int64_t done_us) {
    try {
        serve::InferenceResult result = entry.future.get();
        InferReply reply;
        reply.predicted_class = result.predicted_class;
        reply.device_id = static_cast<std::uint32_t>(result.device_id);
        reply.generation = result.generation;
        reply.partition = result.partition;
        reply.latency_us = result.latency_us;
        reply.logits = std::move(result.logits);
        encode_infer_response(conn.wbuf, entry.tag, reply);
    } catch (const std::exception& e) {
        encode_blob_response(conn.wbuf, Status::Error, entry.tag, e.what());
    } catch (...) {
        encode_blob_response(conn.wbuf, Status::Error, entry.tag, "serving failed");
    }
    srv->responses_.fetch_add(1, std::memory_order_relaxed);
    if (srv->m_responses_) srv->m_responses_->add(1);
    // Resolution → serialization delay: how long a finished result sat
    // waiting for the event loop (the front-end's own queueing cost).
    if (srv->m_socket_wait_us_)
        srv->m_socket_wait_us_->observe(
            static_cast<double>(obs::monotonic_us() - done_us));
}

bool Server::EventLoop::flush(Connection& conn, std::uint64_t conn_id) {
    while (conn.wpos < conn.wbuf.size()) {
        const ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.wpos,
                                 conn.wbuf.size() - conn.wpos, MSG_NOSIGNAL);
        if (n > 0) {
            conn.wpos += static_cast<std::size_t>(n);
            srv->bytes_written_.fetch_add(static_cast<std::uint64_t>(n),
                                          std::memory_order_relaxed);
            if (srv->m_bytes_written_) srv->m_bytes_written_->add(static_cast<double>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            if (!conn.want_write) {
                conn.want_write = true;
                update_interest(conn, conn_id);
            }
            return true;
        }
        destroy(conn_id);
        return false;
    }
    conn.wbuf.clear();
    conn.wpos = 0;
    if (conn.want_write) {
        conn.want_write = false;
        update_interest(conn, conn_id);
    }
    return true;
}

void Server::EventLoop::update_interest(const Connection& conn,
                                        std::uint64_t conn_id) const {
    epoll_event ev{};
    ev.events = EPOLLIN | (conn.want_write ? EPOLLOUT : 0u);
    ev.data.u64 = conn_id;
    ::epoll_ctl(epfd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void Server::EventLoop::destroy(std::uint64_t conn_id) {
    const auto it = conns.find(conn_id);
    if (it == conns.end()) return;
    Connection& conn = *it->second;
    // Park still-pending requests as orphans: their futures resolve
    // later and must be consumed (and the drain gate decremented) even
    // though there is no socket left to answer on.
    for (InFlight& entry : conn.inflight) orphans.emplace(entry.seq, std::move(entry));
    conn.inflight.clear();
    ::close(conn.fd);
    conns.erase(it);
    if (srv->m_active_) srv->m_active_->add(-1.0);
}

}  // namespace raq::net
