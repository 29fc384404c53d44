// Network authentication service: the paper's verifier as a TCP server.
//
// A public PUF is a client/server primitive by construction — the prover
// owns the chip, the verifier owns only the published model — so this
// server is the missing half of the reproduction: it serves the devices
// published in a registry::DeviceRegistry — PREDICT / VERIFY /
// VERIFY_BATCH / CHALLENGE / CHAINED_AUTH, plus ENROLL and WAL_FETCH —
// over the framed wire protocol of net/wire.
//
// Threading model (DESIGN.md §12): the server is a handler on
// net::FrameServer, the reactor it shares with the fleet gateway.
//   - ONE event-loop thread owns every socket: epoll-driven non-blocking
//     accept/read/write, frame extraction, admission control, and error
//     replies.  It never solves anything and never takes the registry's
//     mutex; the server adds device batching (coalescing) on that thread,
//     and with a response cache it answers a PREDICT whose device is
//     resident (HydrationCache::peek) and whose response is cached
//     without handing it to a worker.
//   - The reactor's util::ThreadPool executes request bodies (max-flow
//     solves, residual-graph verification).  Workers never touch sockets;
//     they hand finished reply bytes back through a completion queue and
//     wake the loop via an eventfd.
//
// Overload semantics: admission is a bounded in-flight count checked by
// the event loop before dispatch.  Past the bound the request is answered
// immediately with a typed OVERLOADED error reply — the acceptor never
// blocks, the connection never drops, and the client's backoff machinery
// gets a signal it can act on.
//
// Deadlines: the frame header's budget_ms is re-anchored to an absolute
// util::Deadline when the frame is decoded, so queue wait counts against
// the budget.  The deadline propagates into SolveControl for predictions
// and is checked between items/rounds for verification, so an expired
// request yields a typed DEADLINE_EXCEEDED reply, never a hung or dropped
// connection.
//
// Drain: request_drain() stops the acceptor, answers new requests with
// SHUTTING_DOWN, lets in-flight work finish, flushes every reply, then
// closes.  SIGTERM wiring lives in the caller (ppuf_tool serve).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/status.hpp"

namespace ppuf::registry {
class DeviceRegistry;
}

namespace ppuf::server {

struct AuthServerOptions {
  std::uint16_t port = 0;       ///< 0 = ephemeral (read back via port())
  int listen_backlog = 64;
  unsigned threads = 1;         ///< worker pool size
  std::size_t max_inflight = 64;  ///< admission bound (dispatched, unfinished)
  /// Verifier response-time budget handed out with challenge grants and
  /// enforced against reported elapsed_seconds.
  double verifier_deadline_seconds = 1.0;
  /// Flow tolerance as a fraction of the model's mean edge capacity (see
  /// Verifier's constructor notes; 0.10 is the robust setting).
  double flow_tolerance_fraction = 0.10;
  std::uint32_t chain_length = 4;  ///< k granted to CHALLENGE requests
  std::size_t spot_checks = 2;     ///< chained rounds fully verified (0=all)
  /// Seed of the challenge-issuing RNG.  Callers MUST set this to an
  /// unpredictable value: a guessable seed means guessable challenges,
  /// which collapses the protocol (ppuf_tool serve draws one from the OS
  /// entropy pool unless --seed pins it).
  std::uint64_t challenge_seed = 1;
  /// Bound on concurrently materialised devices (the hydration cache's
  /// LRU size).
  std::size_t hydration_cache_entries = 8;
  /// Upper bound accepted for a client-echoed grant's chain length — the
  /// verification cost is k solves, so k is adversary-controlled work.
  std::uint32_t max_chain_length = 64;
  /// Upper bound honoured for PING delay_ms (a load-testing knob, not an
  /// invitation to park workers forever).
  std::uint32_t max_ping_delay_ms = 10000;
  /// Cross-connection request coalescing (DESIGN.md §16).  Every
  /// PREDICT / VERIFY is served as a device batch.  When > 1 the event
  /// loop gathers these frames from *all* connections into per-device
  /// batches: a batch closes when it reaches this many items, when its
  /// oldest frame has waited coalesce_wait_us, or when the server starts
  /// draining.  A frame whose budget cannot survive the batch window goes
  /// to the pool at once as a one-item batch.  1 (the default) makes
  /// every read a one-item batch, one pool task per frame.
  std::size_t coalesce_max_batch = 1;
  /// Batch window: the longest a coalesced frame waits before its batch
  /// is flushed to the worker pool regardless of fill.
  std::uint32_t coalesce_wait_us = 500;
  /// Bytes of the shared, device-keyed CRP response cache that answers
  /// every PREDICT, coalesced or not; 0 disables (the uncached
  /// baseline).
  std::size_t response_cache_bytes = 0;
  /// Per-connection bound on queued reply bytes.  A peer that stops
  /// reading while replies keep arriving (a slow or blocked reader) is
  /// disconnected at this bound instead of growing the out-queue without
  /// limit; 0 = unbounded.  Workers never block on a peer either way —
  /// only the event loop touches sockets.
  std::size_t max_connection_backlog_bytes = 4 * 1024 * 1024;
};

class AuthServer {
 public:
  /// Serve every active device enrolled in `registry`, addressed by its
  /// registry id; unknown or revoked ids get a typed UNKNOWN_DEVICE reply,
  /// and so does id 0, which is never a device (PING still answers on
  /// it).  Models are materialised on demand through a bounded hydration
  /// cache.  `registry` must outlive the server.  Non-const because the
  /// server also serves ENROLL (network enrollment) and WAL_FETCH
  /// (standby replication) frames, which mutate/export the registry.
  AuthServer(registry::DeviceRegistry& registry,
             AuthServerOptions options = {});
  ~AuthServer();

  AuthServer(const AuthServer&) = delete;
  AuthServer& operator=(const AuthServer&) = delete;

  /// Bind, listen, and spawn the event loop + worker pool.
  util::Status start();

  /// The bound port (valid after start()).
  std::uint16_t port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// Begin graceful shutdown: stop accepting, reject new requests with
  /// SHUTTING_DOWN, finish in-flight work, flush replies, close.
  /// Idempotent; safe from any thread (including a signal-watching one).
  void request_drain();

  /// Block until the event loop has exited (drained).
  void wait();

  /// request_drain() + wait().  Also called by the destructor.
  void stop();

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t requests = 0;            ///< admitted (loop or pool)
    std::uint64_t overloaded_rejections = 0;
    std::uint64_t shutdown_rejections = 0;
    std::uint64_t malformed_frames = 0;
    std::uint64_t unknown_device_rejections = 0;
    std::uint64_t coalesced_batches = 0;   ///< device batches flushed
    std::uint64_t coalesced_items = 0;     ///< frames served via a batch
    std::uint64_t solo_dispatches = 0;     ///< budget too tight to coalesce
    std::uint64_t slow_peer_disconnects = 0;  ///< backlog bound enforced
    std::uint64_t enrolls_served = 0;      ///< network enrollments committed
    std::uint64_t wal_fetches_served = 0;  ///< standby segment/bootstrap pulls
    std::uint64_t loop_cache_hits = 0;  ///< PREDICTs answered on the loop
  };
  Stats stats() const;

 private:
  struct Impl;

  registry::DeviceRegistry& registry_;
  AuthServerOptions options_;
  std::unique_ptr<Impl> impl_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
};

}  // namespace ppuf::server
