// Blocking client for the authentication service.
//
// One AuthClient owns one connection (lazily opened, transparently
// reopened) and performs synchronous request/reply rounds.  Transient
// failures — connect refused, connection reset, a typed OVERLOADED or
// SHUTTING_DOWN reply — are retried up to `max_attempts` with bounded
// *decorrelated-jitter* backoff (every client doubling in lockstep after
// a restart is a thundering herd at fleet scale); deterministic failures
// (malformed, invalid argument, a typed DEADLINE_EXCEEDED) are returned
// at once.  All request methods are read-only on the server, so retry is
// always safe.
//
// Self-protection: clients to the same endpoint share a per-endpoint
// circuit breaker (net/breaker.hpp).  A run of consecutive *transport*
// failures opens it and further attempts fail fast with kUnavailable
// until a half-open probe succeeds; typed error replies never trip it.
// Set breaker_failure_threshold = 0 to opt out.
//
// Deadline plumbing: pass a util::Deadline per request and the client puts
// Deadline::remaining() on the wire as the budget_ms header field; the
// server re-anchors it on arrival and propagates it into its solvers.  The
// same deadline also bounds the client-side socket I/O, so a dead server
// cannot hold the caller past its own budget.
//
// Not thread-safe: one AuthClient per thread (they are cheap — a load
// generator opens K of them).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/breaker.hpp"
#include "net/wire.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace ppuf::net {

struct ClientOptions {
  int connect_timeout_ms = 2000;
  /// Per-attempt transport budget when the request carries no deadline.
  int request_timeout_ms = 30000;
  /// Total tries per request (1 = no retry).
  int max_attempts = 3;
  int backoff_initial_ms = 10;
  int backoff_max_ms = 500;
  /// Seed for the backoff jitter stream; 0 (default) seeds from entropy
  /// so distinct clients decorrelate, nonzero makes tests reproducible.
  std::uint64_t backoff_seed = 0;
  /// Consecutive transport failures that open the shared per-endpoint
  /// circuit breaker; 0 disables the breaker for this client.
  int breaker_failure_threshold = 5;
  /// How long an open breaker waits before admitting a half-open probe.
  int breaker_cooldown_ms = 1000;
  /// Registry device every request addresses (header field).  The
  /// default, kDefaultDeviceId (0), is never a device: device requests
  /// sent on it get UNKNOWN_DEVICE.
  std::uint64_t device_id = kDefaultDeviceId;
  /// Bound on outstanding requests in predict_pipelined (clamped to >= 1).
  /// 1 degenerates to one-at-a-time round trips; a deeper window is what
  /// keeps a coalescing server's batches fed from a single connection.
  int pipeline_depth = 1;
};

/// Next backoff pause, AWS-style decorrelated jitter:
/// uniform(base, min(cap, 3 * prev)).  Exposed as a free function so the
/// distribution itself is testable.
int decorrelated_jitter_ms(util::Rng& rng, int base_ms, int cap_ms,
                           int prev_ms);

class AuthClient {
 public:
  AuthClient(std::string host, std::uint16_t port,
             ClientOptions options = {});
  ~AuthClient();

  AuthClient(const AuthClient&) = delete;
  AuthClient& operator=(const AuthClient&) = delete;

  /// Round-trip a no-op frame; `delay_ms` asks the server's worker to hold
  /// the request that long before answering (load/overload testing).
  /// When `health` is non-null it receives the server's health report
  /// (in-flight load, drain state) carried in the reply.
  util::Status ping(std::uint32_t delay_ms = 0,
                    const util::Deadline& deadline = {},
                    HealthInfo* health = nullptr);

  util::Status predict(const Challenge& challenge,
                       SimulationModel::Prediction* out,
                       const util::Deadline& deadline = {});

  /// Pipelined predictions: keep up to options.pipeline_depth requests
  /// outstanding on this connection and match replies STRICTLY by request
  /// id — out-of-order replies are legal (a coalescing server answers
  /// cache hits and solo dispatches ahead of slower batch-mates).  `out`
  /// is resized to challenges.size(); a typed per-item error reply (e.g.
  /// DEADLINE_EXCEEDED) lands in that item's Prediction::status without
  /// affecting the rest of the window.  The returned Status covers the
  /// transport: on a desync — a reply id matching no outstanding request —
  /// the connection is dropped and a typed kUnavailable is returned, with
  /// unanswered items left holding kUnavailable statuses.  No automatic
  /// retry: a half-answered window is not idempotently resumable, so
  /// callers wanting retry re-issue the whole window.
  util::Status predict_pipelined(
      const std::vector<Challenge>& challenges,
      std::vector<SimulationModel::Prediction>* out,
      const util::Deadline& deadline = {});

  util::Status verify(const Challenge& challenge,
                      const protocol::ProverReport& report,
                      protocol::AuthenticationResult* out,
                      const util::Deadline& deadline = {});

  util::Status verify_batch(
      const std::vector<Challenge>& challenges,
      const std::vector<protocol::ProverReport>& reports,
      std::vector<protocol::AuthenticationResult>* out,
      const util::Deadline& deadline = {});

  /// Ask the verifier for a chain grant (first challenge, k, nonce).
  util::Status get_challenge(ChallengeGrant* out,
                             const util::Deadline& deadline = {});

  /// Submit the chained report answering `grant`.
  util::Status chained_auth(const ChallengeGrant& grant,
                            const protocol::ChainedReport& report,
                            protocol::ChainedVerifyResult* out,
                            const util::Deadline& deadline = {});

  /// Enroll a device (registry-backed server or gateway).  `requested_id`
  /// travels in the frame header: 0 asks a shard to assign the next free
  /// id (a gateway rejects 0 — it cannot route an unknown id); non-zero
  /// enrolls exactly that id.  On success `*assigned` holds the id.
  /// NOT idempotent: a retry after a transport failure whose first
  /// attempt actually committed answers "already enrolled"
  /// (kInvalidArgument) — callers enrolling explicit ids should treat
  /// that as success-after-crash if they own the id space.
  util::Status enroll_device(const EnrollRequestBody& spec,
                             std::uint64_t requested_id,
                             std::uint64_t* assigned,
                             const util::Deadline& deadline = {});

  /// Gateway fleet administration (add/drain/undrain/remove/status).
  util::Status admin(const AdminRequestBody& request, AdminReplyBody* out,
                     const util::Deadline& deadline = {});

  /// Pull registry WAL bytes (standby replication).
  util::Status wal_fetch(const WalFetchRequestBody& request,
                         WalSegmentBody* out,
                         const util::Deadline& deadline = {});

  struct Stats {
    std::uint64_t requests = 0;   ///< logical requests issued
    std::uint64_t attempts = 0;   ///< wire round-trips tried
    std::uint64_t retries = 0;    ///< attempts beyond the first
    std::uint64_t reconnects = 0; ///< sockets (re)opened
    std::uint64_t breaker_fast_fails = 0;  ///< attempts refused locally
    std::uint64_t redirects_followed = 0;  ///< kRedirectReply retargets
  };
  const Stats& stats() const { return stats_; }

  bool connected() const;
  void disconnect();

  const std::string& host() const { return host_; }
  std::uint16_t port() const { return port_; }

  /// Retarget this client at another endpoint: drops the connection and
  /// switches to that endpoint's circuit breaker (breaker state is keyed
  /// per host:port, so a dead shard's open breaker never fast-fails a
  /// healthy one).  Called internally when a kRedirectReply arrives.
  void set_endpoint(const std::string& host, std::uint16_t port);

  /// Retarget subsequent requests at another enrolled device.  Safe
  /// between round trips (the id is stamped per request).
  void set_device_id(std::uint64_t device_id) {
    options_.device_id = device_id;
  }
  std::uint64_t device_id() const { return options_.device_id; }

 private:
  /// One request with retry/backoff/reconnect.  On success `*reply` holds
  /// the reply frame (possibly kErrorReply, which is mapped to a Status by
  /// the caller-facing wrappers).
  util::Status round_trip(MessageType type,
                          const std::vector<std::uint8_t>& payload,
                          const util::Deadline& deadline,
                          MessageType expected_reply, Frame* reply);
  /// Single attempt: (re)connect if needed, send, receive one frame.
  util::Status attempt(MessageType type,
                       const std::vector<std::uint8_t>& payload,
                       const util::Deadline& deadline, Frame* reply);
  /// One pipelined window (no retry); results land in *out per item.
  util::Status run_pipeline(const std::vector<Challenge>& challenges,
                            std::vector<SimulationModel::Prediction>* out,
                            const util::Deadline& deadline);
  util::Status ensure_connected(const util::Deadline& deadline);
  /// Point breaker_ at the current endpoint's breaker (cached per
  /// endpoint in breakers_ so a retarget back is a map hit).
  void refresh_breaker();

  std::string host_;
  std::uint16_t port_;
  ClientOptions options_;
  Stats stats_;
  std::uint64_t next_request_id_ = 1;
  int fd_ = -1;
  util::Rng backoff_rng_;
  /// Per-endpoint ("host:port") breaker handles this client has talked
  /// to; each handle is the process-wide shared breaker for that
  /// endpoint.  breaker_ is the CURRENT endpoint's entry — state must
  /// never leak across a retarget.
  std::unordered_map<std::string, std::shared_ptr<CircuitBreaker>> breakers_;
  std::shared_ptr<CircuitBreaker> breaker_;  ///< null when disabled
};

}  // namespace ppuf::net
