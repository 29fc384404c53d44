#include "net/frame_server.hpp"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "util/fault_hooks.hpp"

namespace ppuf::net {

namespace {

using util::FaultHooks;
using util::Status;

constexpr std::size_t kReadChunk = 64 * 1024;

}  // namespace

FrameServer::FrameServer(Handler& handler, std::string prefix,
                         std::string overloaded_message, const Limits& limits,
                         std::atomic<bool>& draining)
    : handler_(handler),
      draining_message_(prefix + " is draining"),
      overloaded_message_(std::move(overloaded_message)),
      limits_(limits),
      draining_(draining),
      counters_(prefix, obs::kTransportEvents),
      inflight_gauge_(prefix + ".inflight"),
      connections_gauge_(prefix + ".connections"),
      pool_(limits.threads) {}

FrameServer::~FrameServer() {
  if (!loop_.joinable()) return;
  draining_.store(true, std::memory_order_relaxed);
  wake();
  loop_.join();
}

Status FrameServer::start(std::uint16_t* bound_port) {
  if (Status s = listen_tcp(limits_.port, limits_.listen_backlog, &listener_,
                            bound_port);
      !s.is_ok())
    return s;
  epoll_ = Socket(epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_.valid())
    return Status::unavailable(std::string("epoll_create1: ") +
                               strerror(errno));
  wake_ = Socket(eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!wake_.valid())
    return Status::unavailable(std::string("eventfd: ") + strerror(errno));

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listener_.fd();
  epoll_ctl(epoll_.fd(), EPOLL_CTL_ADD, listener_.fd(), &ev);
  ev.data.fd = wake_.fd();
  epoll_ctl(epoll_.fd(), EPOLL_CTL_ADD, wake_.fd(), &ev);

  loop_ = std::thread([this] { run(); });
  return Status::ok();
}

void FrameServer::wake() {
  if (!wake_.valid()) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t rc = ::write(wake_.fd(), &one, sizeof(one));
}

void FrameServer::wait() {
  if (loop_.joinable()) loop_.join();
}

HealthInfo FrameServer::transport_health() const {
  HealthInfo h;
  h.inflight =
      static_cast<std::uint32_t>(inflight_.load(std::memory_order_relaxed));
  h.max_inflight = static_cast<std::uint32_t>(limits_.max_inflight);
  h.draining = draining_.load(std::memory_order_relaxed) ? 1 : 0;
  h.connections_accepted = counters_.value(kConnectionsAccepted);
  return h;
}

// --- loop --------------------------------------------------------------------

void FrameServer::run() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  bool listener_open = true;
  std::vector<epoll_event> events(64);
  for (;;) {
    const bool drain_now = draining_.load(std::memory_order_relaxed);
    if (drain_now && listener_open) {
      epoll_ctl(epoll_.fd(), EPOLL_CTL_DEL, listener_.fd(), nullptr);
      listener_.close();
      listener_open = false;
    }
    if (drain_now && drained()) break;

    const int n = epoll_wait(epoll_.fd(), events.data(),
                             static_cast<int>(events.size()),
                             handler_.poll_timeout_ms(drain_now ? 50 : 500));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; nothing sensible left to do
    }
    closed_in_batch_.clear();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_.fd()) {
        std::uint64_t drainv = 0;
        while (::read(wake_.fd(), &drainv, sizeof(drainv)) > 0) {
        }
        continue;  // completions handled below every iteration
      }
      if (listener_open && fd == listener_.fd()) {
        accept_ready();
        continue;
      }
      if (closed_in_batch_.count(fd) != 0) continue;  // stale: fd was reused
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_connection(fd);
        continue;
      }
      if (events[i].events & EPOLLIN) read_ready(fd);
      // read_ready may have closed the connection; re-find before writing.
      auto wit = connections_.find(fd);
      if (wit != connections_.end() && (events[i].events & EPOLLOUT))
        flush(wit->second);
    }
    handler_.on_loop_pass(drain_now);
    drain_completions();
    reg.gauge(inflight_gauge_)
        .set(static_cast<std::int64_t>(
            inflight_.load(std::memory_order_relaxed)));
    reg.gauge(connections_gauge_)
        .set(static_cast<std::int64_t>(connections_.size()));
  }
  // Drained: close every remaining connection.  The epoll/event fds stay
  // open until destruction (workers may still be writing the eventfd).
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) fds.push_back(fd);
  for (const int fd : fds) close_connection(fd);
}

bool FrameServer::drained() {
  if (!handler_.idle()) return false;
  if (inflight_.load(std::memory_order_relaxed) != 0) return false;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    if (!completions_.empty()) return false;
  }
  for (const auto& [fd, conn] : connections_)
    if (!conn.outq.empty()) return false;
  return true;
}

void FrameServer::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listener_.fd(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the loop will retry
    }
    if (FaultHooks::consume_server_accept_failure()) {
      // Injected accept failure: the peer sees an immediate close, as if
      // the listener ran out of fds or reset under SYN pressure.
      ::close(fd);
      continue;
    }
    Connection conn;
    conn.fd = fd;
    conn.id = next_connection_id_++;
    connection_fd_[conn.id] = fd;
    connections_.emplace(fd, std::move(conn));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    epoll_ctl(epoll_.fd(), EPOLL_CTL_ADD, fd, &ev);
    counters_.add(kConnectionsAccepted);
  }
}

void FrameServer::read_ready(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  if (FaultHooks::consume_server_recv_failure()) {
    // Injected hard recv error: drop the connection mid-stream.
    close_connection(fd);
    return;
  }
  Connection& conn = it->second;
  std::uint8_t chunk[kReadChunk];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.inbuf.insert(conn.inbuf.end(), chunk, chunk + n);
      counters_.add(kBytesRead, static_cast<std::uint64_t>(n));
      continue;
    }
    if (n == 0) {  // peer closed
      close_connection(fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(fd);
    return;
  }
  consume_frames(fd);
}

void FrameServer::consume_frames(int fd) {
  // The Connection must be re-looked-up after every dispatch: a reply flush
  // can hit a send error (peer reset mid-pipeline) and close_connection()
  // destroys the map entry, so any reference held across dispatch dangles.
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  const std::uint64_t conn_id = it->second.id;
  std::size_t offset = 0;
  while (!it->second.close_after_flush) {
    Connection& conn = it->second;
    Frame frame;
    std::size_t consumed = 0;
    const DecodeResult r = decode_frame(conn.inbuf.data() + offset,
                                        conn.inbuf.size() - offset, &frame,
                                        &consumed);
    if (r == DecodeResult::kNeedMore) break;
    if (r == DecodeResult::kMalformed) {
      // The stream cannot be resynchronised: answer with a typed error
      // (request id unknown — use 0) and close once it is flushed.
      counters_.add(kMalformedFrames);
      // Flag before enqueueing so the flush inside enqueue_reply closes the
      // socket as soon as the error is written; return without touching
      // `conn` again — it may already be destroyed by that close.
      conn.close_after_flush = true;
      enqueue_reply(conn, error_frame(0, kDefaultDeviceId,
                                      WireCode::kMalformed,
                                      "unparseable frame"));
      return;
    }
    offset += consumed;
    dispatch(conn, std::move(frame));
    it = connections_.find(fd);
    if (it == connections_.end() || it->second.id != conn_id)
      return;  // closed (and possibly reused) during dispatch
  }
  if (offset > 0)
    it->second.inbuf.erase(
        it->second.inbuf.begin(),
        it->second.inbuf.begin() + static_cast<std::ptrdiff_t>(offset));
}

void FrameServer::dispatch(Connection& conn, Frame frame) {
  if (!is_request(frame.type)) {
    enqueue_reply(conn, error_frame(frame.request_id, frame.device_id,
                                    WireCode::kUnsupportedType,
                                    std::string("not a request type: ") +
                                        message_type_name(frame.type)));
    return;
  }
  if (draining_.load(std::memory_order_relaxed)) {
    if (frame.type == MessageType::kPingRequest) {
      // Readiness must stay observable *during* the drain — a load
      // balancer that cannot ping a draining node just sees it vanish.
      // PING is answered inline (no pool, no admission control) so nothing
      // can stall the drain, and the health payload reports draining=1.
      enqueue_reply(conn, encode_frame(MessageType::kPingReply,
                                       frame.request_id, frame.device_id, 0,
                                       encode_ping_reply(
                                           handler_.health_info())));
      return;
    }
    counters_.add(kShutdownRejections);
    enqueue_reply(conn, error_frame(frame.request_id, frame.device_id,
                                    WireCode::kShuttingDown,
                                    draining_message_));
    return;
  }
  if (std::vector<std::uint8_t> reply = handler_.answer_inline(frame);
      !reply.empty()) {
    enqueue_reply(conn, std::move(reply));
    return;
  }
  // Admission control.  Only the loop increments, so load+check is
  // race-free; workers decrement as they complete.
  if (inflight_.load(std::memory_order_relaxed) >= limits_.max_inflight) {
    counters_.add(kOverloadedRejections);
    enqueue_reply(conn, error_frame(frame.request_id, frame.device_id,
                                    WireCode::kOverloaded,
                                    overloaded_message_));
    return;
  }
  inflight_.fetch_add(1, std::memory_order_relaxed);
  if (std::vector<std::uint8_t> reply =
          handler_.dispatch(conn.id, std::move(frame));
      !reply.empty()) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    enqueue_reply(conn, std::move(reply));
  }
}

// --- reply plumbing ----------------------------------------------------------

void FrameServer::drain_completions() {
  std::vector<Completion> done;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    done.swap(completions_);
  }
  for (Completion& c : done) {
    const auto it = connection_fd_.find(c.connection_id);
    if (it == connection_fd_.end()) continue;  // connection died meanwhile
    const auto cit = connections_.find(it->second);
    if (cit == connections_.end()) continue;
    enqueue_reply(cit->second, std::move(c.bytes));
  }
}

void FrameServer::enqueue_reply(Connection& conn,
                                std::vector<std::uint8_t> bytes) {
  conn.outq_bytes += bytes.size();
  conn.outq.push_back(std::move(bytes));
  flush(conn);
}

void FrameServer::flush(Connection& conn) {
  while (!conn.outq.empty()) {
    if (FaultHooks::server_send_blocked()) break;  // injected EAGAIN
    if (FaultHooks::consume_server_send_failure()) {
      // Injected peer reset (test-only; see util::FaultHooks).
      close_connection(conn.fd);
      return;
    }
    const std::vector<std::uint8_t>& front = conn.outq.front();
    std::size_t left = front.size() - conn.out_offset;
    if (left > 1 && FaultHooks::consume_server_send_short()) {
      // Injected short write: the kernel "accepts" only a few bytes, so
      // the partial-write bookkeeping (out_offset, EPOLLOUT re-arm) runs
      // under test instead of only under a saturated socket buffer.
      left = std::min<std::size_t>(left, 8);
    }
    const ssize_t n = ::send(conn.fd, front.data() + conn.out_offset, left,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_connection(conn.fd);
      return;
    }
    counters_.add(kBytesWritten, static_cast<std::uint64_t>(n));
    conn.out_offset += static_cast<std::size_t>(n);
    if (conn.out_offset == front.size()) {
      conn.outq_bytes -= front.size();
      conn.outq.pop_front();
      conn.out_offset = 0;
    }
  }
  if (conn.outq.empty() && conn.close_after_flush) {
    close_connection(conn.fd);
    return;
  }
  // Slow-peer bound: a reader that stopped draining while replies keep
  // arriving gets disconnected here rather than growing the out-queue
  // without limit.  Workers are unaffected either way — they post
  // completions under completion_mutex_ and never touch a socket.
  if (limits_.max_connection_backlog_bytes != 0 &&
      conn.outq_bytes > limits_.max_connection_backlog_bytes) {
    counters_.add(kSlowPeerDisconnects);
    close_connection(conn.fd);
    return;
  }
  update_epoll(conn);
}

void FrameServer::update_epoll(Connection& conn) {
  const bool want_write = !conn.outq.empty();
  if (want_write == conn.want_write) return;
  conn.want_write = want_write;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  epoll_ctl(epoll_.fd(), EPOLL_CTL_MOD, conn.fd, &ev);
}

void FrameServer::close_connection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  closed_in_batch_.insert(fd);
  const std::uint64_t conn_id = it->second.id;
  connection_fd_.erase(conn_id);
  epoll_ctl(epoll_.fd(), EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(it);
  counters_.add(kConnectionsClosed);
  handler_.on_close(conn_id);
}

}  // namespace ppuf::net
