// Fleet gateway: one front door for a sharded AuthServer fleet.
//
// The gateway consistent-hashes the frame header's 64-bit device id across
// N backend shards (fleet/ring.hpp) and forwards frames VERBATIM — same
// request id, same payload, budget re-encoded as the *remaining* budget —
// over pooled per-shard connections.  One worker owns a backend socket for
// a whole round trip, so replies can never interleave and no request-id
// rewriting is needed.
//
// Threading (DESIGN.md §12): the gateway is a handler on net::FrameServer,
// the same reactor the AuthServer runs on.  Its one event loop owns every
// client socket; the reactor's worker pool does the blocking shard round
// trips and posts reply bytes back through its completion queue + eventfd.
// PING, admin and the unroutable frame kinds are answered on the loop.  A
// separate health thread PINGs every shard on an interval with up/down
// thresholds, and reads the shard's registry telemetry (device count, WAL
// position) out of the health reply.
//
// Session pinning: a CHALLENGE reply starts a chained-auth session whose
// nonce lives on the shard that issued it, so the gateway pins (client
// connection, device id) -> shard at CHALLENGE and routes the matching
// CHAINED_AUTH to the pin even if the shard is draining — drain stops NEW
// sessions, in-flight ones complete.  The pin dies with the chained auth
// or the client connection.
//
// Shard lifecycle (kAdminRequest, handled inline on the event loop):
//   add     — insert a shard (or re-point an existing name at a new
//             endpoint: failover keeps ring placement, see ring.hpp)
//   drain   — stop routing new sessions; optional successor endpoint
//             turns refusals into typed kRedirectReply
//   undrain — cancel a drain
//   remove  — take the shard out of the ring (in-flight forwards finish:
//             workers hold the shard alive by shared_ptr)
//   status  — every shard's state + counters + replication telemetry
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/status.hpp"

namespace ppuf::fleet {

struct GatewayOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
  int listen_backlog = 64;
  unsigned threads = 4;           ///< forwarding worker pool size
  std::size_t max_inflight = 256; ///< admission bound on forwards
  /// Ring points per shard (see HashRing::kDefaultVnodes).
  std::size_t vnodes = 128;
  /// Forward budget when the client frame carries none (0 = unlimited).
  int default_forward_timeout_ms = 30000;
  int shard_connect_timeout_ms = 2000;
  /// Health prober cadence and hysteresis thresholds.
  int health_interval_ms = 200;
  int health_timeout_ms = 1000;
  int health_failures_to_down = 3;
  int health_successes_to_up = 1;
  /// Per-connection reply backlog bound (same contract as the server's).
  std::size_t max_connection_backlog_bytes = 4 * 1024 * 1024;
};

/// Numeric shard state carried in ShardStatus::state on the wire.
enum class ShardState : std::uint8_t {
  kUp = 1,
  kDraining = 2,  ///< refusing new sessions (admin drain in effect)
  kDown = 3,      ///< health prober declared it dead
};

class Gateway {
 public:
  explicit Gateway(GatewayOptions options = {});
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Add a shard before or after start(); same semantics as the admin op.
  util::Status add_shard(const std::string& name, const std::string& host,
                         std::uint16_t port);

  /// Bind, listen, spawn the event loop + workers + health prober.
  util::Status start();

  std::uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Graceful shutdown: stop accepting, reject new requests with
  /// SHUTTING_DOWN, let in-flight forwards finish, flush, close.
  /// Idempotent; safe from any thread.
  void request_drain();
  void wait();
  void stop();  ///< request_drain() + wait(); also run by the destructor

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t requests = 0;            ///< admitted for forwarding
    std::uint64_t forwarded = 0;           ///< shard round trips completed
    std::uint64_t redirects_sent = 0;      ///< kRedirectReply answers
    std::uint64_t unavailable_rejections = 0;  ///< SHARD_UNAVAILABLE answers
    std::uint64_t overloaded_rejections = 0;
    std::uint64_t shutdown_rejections = 0;
    std::uint64_t malformed_frames = 0;
    std::uint64_t admin_requests = 0;
    std::uint64_t pins_created = 0;
    std::uint64_t health_probes = 0;
    /// Forwards that were in flight to a shard when it failed mid-drain.
    /// The drain contract is that this stays 0: draining refuses NEW work
    /// but never abandons accepted work.
    std::uint64_t dropped_inflight = 0;
    std::uint64_t slow_peer_disconnects = 0;  ///< backlog bound enforced
  };
  Stats stats() const;

 private:
  struct Impl;
  GatewayOptions options_;
  std::unique_ptr<Impl> impl_;
  std::thread health_thread_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
};

}  // namespace ppuf::fleet
