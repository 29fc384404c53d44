// The one event loop behind every framed service: AuthServer and the fleet
// Gateway are both handlers on a FrameServer.
//
// Threading model (DESIGN.md §12):
//   - ONE loop thread owns every socket: epoll-driven non-blocking
//     accept/read/write, frame extraction, the checks every frame gets
//     before dispatch, and the error replies those checks produce.
//   - A util::ThreadPool runs the handler's request bodies.  Workers never
//     touch a socket; they post reply bytes through a completion queue
//     (complete_batch(): one lock and one wake for a whole scatter), and
//     an eventfd wakes the loop to enqueue and flush them.
//
// Before a frame reaches the handler the loop answers it itself when
//   - it is not a request type (UNSUPPORTED_TYPE);
//   - the owner is draining: PING gets the health reply inline, anything
//     else SHUTTING_DOWN ("<prefix> is draining");
//   - Handler::answer_inline() answers it (the gateway's local frames);
//   - the in-flight bound is reached (OVERLOADED).
// Anything else goes to Handler::dispatch(), which either answers inline
// or hands the frame to the pool and owes exactly one completion for it.
//
// Transport events (obs::kTransportEvents) are counted in the instance's
// obs::CounterSet under the owner's prefix (`server.` / `gateway.`),
// beside its inflight and connections gauges.  The util::FaultHooks
// `server_*` sites live here, so they fire in every FrameServer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace ppuf::net {

class FrameServer {
 public:
  /// The owner's side of the loop.  Every hook runs on the loop thread
  /// except health_info(), which a worker may also call.
  class Handler {
   public:
    /// An admitted request (the in-flight count already includes it).
    /// Return reply bytes to answer inline (the frame is then not in
    /// flight), or an empty vector after handing the frame on: to
    /// submit(), or to a batch whose worker posts one reply per frame
    /// through complete_batch().
    virtual std::vector<std::uint8_t> dispatch(std::uint64_t connection_id,
                                               Frame frame) = 0;
    /// A request answered on the loop before admission control; empty
    /// means "not mine" and the frame goes on to dispatch().
    virtual std::vector<std::uint8_t> answer_inline(const Frame&) {
      return {};
    }
    /// Health payload for PING replies (draining PINGs are answered by
    /// the loop with it).  Start from FrameServer::transport_health().
    virtual HealthInfo health_info() const = 0;
    /// epoll timeout for the next wait; `fallback` is 500 ms (50 ms while
    /// draining).
    virtual int poll_timeout_ms(int fallback) const { return fallback; }
    /// Once per loop pass, before completions are scattered.
    virtual void on_loop_pass(bool /*draining*/) {}
    /// False while the handler still holds frames it has not handed to
    /// the pool; the drain waits for true.
    virtual bool idle() const { return true; }
    /// A client connection closed (by either side).
    virtual void on_close(std::uint64_t /*connection_id*/) {}

   protected:
    ~Handler() = default;
  };

  /// The reactor's share of an owner's options; every service option
  /// struct has these fields under these names.
  struct Limits {
    std::uint16_t port = 0;
    int listen_backlog = 64;
    unsigned threads = 1;
    std::size_t max_inflight = 64;
    std::size_t max_connection_backlog_bytes = 0;  ///< 0 = unbounded
  };
  template <typename Options>
  static Limits limits_of(const Options& o) {
    return {o.port, o.listen_backlog, o.threads, o.max_inflight,
            o.max_connection_backlog_bytes};
  }

  /// `prefix` names the metrics and the drain message; `overloaded_message`
  /// is the OVERLOADED reply text.  `draining` is the owner's flag: set it,
  /// then call wake().
  FrameServer(Handler& handler, std::string prefix,
              std::string overloaded_message, const Limits& limits,
              std::atomic<bool>& draining);
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Bind, listen, and spawn the loop thread.
  util::Status start(std::uint16_t* bound_port);
  /// Nudge the loop (async-signal-safe: one eventfd write).
  void wake();
  /// Join the loop thread; it exits once a drain has fully flushed.
  void wait();

  /// Run `work(frame)` on the pool and post its reply for
  /// `connection_id`; an escaping exception becomes a typed INTERNAL
  /// reply.
  template <typename Work>
  void submit(std::uint64_t connection_id, Frame frame, Work work);

  struct Completion {
    std::uint64_t connection_id;
    std::vector<std::uint8_t> bytes;
  };
  /// Post `count` replies from a worker, `reply_at(i)` each, under one
  /// lock and one wake; their frames leave flight.
  template <typename ReplyAt>
  void complete_batch(std::size_t count, ReplyAt reply_at);

  util::ThreadPool& pool() { return pool_; }

  /// inflight, max_inflight, draining and connections_accepted.
  HealthInfo transport_health() const;

  /// Copy this instance's transport counts into an owner's Stats; every
  /// service Stats struct has these fields under these names.
  template <typename Stats>
  void transport_stats(Stats* s) const {
    s->connections_accepted = counters_.value(kConnectionsAccepted);
    s->overloaded_rejections = counters_.value(kOverloadedRejections);
    s->shutdown_rejections = counters_.value(kShutdownRejections);
    s->malformed_frames = counters_.value(kMalformedFrames);
    s->slow_peer_disconnects = counters_.value(kSlowPeerDisconnects);
  }

 private:
  struct Connection {
    std::uint64_t id = 0;
    int fd = -1;
    std::vector<std::uint8_t> inbuf;
    std::deque<std::vector<std::uint8_t>> outq;
    std::size_t out_offset = 0;  ///< bytes of outq.front() already sent
    std::size_t outq_bytes = 0;  ///< total queued reply bytes (backlog cap)
    bool close_after_flush = false;
    bool want_write = false;
  };

  /// Indices into counters_ (obs::kTransportEvents).
  enum Event : std::size_t {
    kConnectionsAccepted, kConnectionsClosed, kBytesRead, kBytesWritten,
    kMalformedFrames, kShutdownRejections, kOverloadedRejections,
    kSlowPeerDisconnects, kEventCount
  };
  static_assert(std::size(obs::kTransportEvents) == kEventCount);

  void complete(std::uint64_t connection_id, std::vector<std::uint8_t> bytes) {
    complete_batch(1, [&](std::size_t) {
      return Completion{connection_id, std::move(bytes)};
    });
  }

  void run();
  bool drained();
  void accept_ready();
  void read_ready(int fd);
  void consume_frames(int fd);
  void dispatch(Connection& conn, Frame frame);
  void drain_completions();
  void enqueue_reply(Connection& conn, std::vector<std::uint8_t> bytes);
  void flush(Connection& conn);
  void update_epoll(Connection& conn);
  void close_connection(int fd);

  Handler& handler_;
  const std::string draining_message_;
  const std::string overloaded_message_;
  const Limits limits_;
  std::atomic<bool>& draining_;
  obs::CounterSet counters_;
  /// "<prefix>.inflight" / "<prefix>.connections", published each pass.
  const std::string inflight_gauge_;
  const std::string connections_gauge_;

  Socket listener_;
  /// The epoll fd and the eventfd must outlive the worker pool (a
  /// finishing worker writes the eventfd), so they are declared before it.
  Socket epoll_;
  Socket wake_;

  std::unordered_map<int, Connection> connections_;       // fd -> state
  std::unordered_map<std::uint64_t, int> connection_fd_;  // id -> fd
  std::uint64_t next_connection_id_ = 1;
  /// Fds closed while processing the current epoll_wait batch.  accept()
  /// may reuse such an fd for a NEW connection within the same batch; a
  /// stale queued event (e.g. EPOLLHUP for the old peer) must not be
  /// applied to it.  Events for the new fd cannot be in this batch, so
  /// skipping is always safe.
  std::unordered_set<int> closed_in_batch_;

  /// Guards ONLY the vector push/swap — never held across a socket flush
  /// or any other syscall, so a blocked peer cannot stall a worker that is
  /// posting a completion.
  std::mutex completion_mutex_;
  std::vector<Completion> completions_;

  std::atomic<std::size_t> inflight_{0};

  std::thread loop_;
  /// Declared last so it is destroyed FIRST: its destructor joins workers
  /// that may still be writing the eventfd.
  util::ThreadPool pool_;
};

template <typename Work>
void FrameServer::submit(std::uint64_t connection_id, Frame frame,
                         Work work) {
  auto shared_frame = std::make_shared<Frame>(std::move(frame));
  pool_.submit([this, connection_id, shared_frame, work = std::move(work)] {
    std::vector<std::uint8_t> reply;
    try {
      reply = work(*shared_frame);
    } catch (const std::exception& e) {
      reply = error_frame(shared_frame->request_id, shared_frame->device_id,
                          WireCode::kInternal, e.what());
    } catch (...) {
      reply = error_frame(shared_frame->request_id, shared_frame->device_id,
                          WireCode::kInternal, "unknown handler failure");
    }
    complete(connection_id, std::move(reply));
  });
}

template <typename ReplyAt>
void FrameServer::complete_batch(std::size_t count, ReplyAt reply_at) {
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    for (std::size_t i = 0; i < count; ++i)
      completions_.push_back(reply_at(i));
  }
  inflight_.fetch_sub(count, std::memory_order_relaxed);
  wake();
}

}  // namespace ppuf::net
