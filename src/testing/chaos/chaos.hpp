// Chaos campaign layer: seeded fault schedules against the live stack.
//
// The per-subsystem fault hooks (util::FaultHooks) prove that each layer
// survives ITS injected failure in isolation; a deployment dies from the
// combinations.  This library turns the hooks into one randomized,
// reproducible campaign: a FaultSchedule derived from a seed walks the
// probabilistic fault plane through burst windows (network faults, disk
// faults, injected latency, everything at once) while concurrent
// AuthClients hammer a registry-mode AuthServer — and the campaign
// asserts the invariants that make the service trustworthy:
//
//   * no crash — the stack keeps answering across every phase;
//   * no wrong accept / cross-device response — every successful PREDICT
//     is compared bit-exact against a per-device oracle table computed
//     from the enrolled model, and impostor chains must be rejected;
//   * only typed errors on the wire — a client may see UNAVAILABLE /
//     DEADLINE_EXCEEDED under faults, never an unparseable frame;
//   * committed enrollments survive — every acknowledged enroll/revoke
//     is diffed against a fresh recovery of the registry directory;
//   * recovery time bounded — mid-campaign server restarts must come
//     back within a hard ceiling, and the blackout is measured.
//
// run_kill9_torture() is the process-death variant: fork a child that
// enrolls into the registry and acknowledges each commit over a pipe,
// SIGKILL it at a random moment, recover, and diff the survivors against
// the acknowledged log — at least TortureOptions::iterations times.
//
// Everything is deterministic in the seed (modulo scheduling noise in
// *which* requests a fault lands on): a failing seed from CI reproduces
// locally via `ppuf_tool chaos --seed S`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ppuf::testing::chaos {

/// One burst window of the fault plane; ppm knobs are applied for the
/// window's duration and cleared between windows.
struct FaultPhase {
  enum class Kind { kQuiet, kNetwork, kDisk, kLatency, kMixed };
  Kind kind = Kind::kQuiet;
  double duration_s = 0.25;

  std::uint32_t net_send_fail_ppm = 0;
  std::uint32_t net_recv_fail_ppm = 0;
  std::uint32_t net_latency_ppm = 0;
  std::uint32_t net_latency_us = 0;
  std::uint32_t server_send_fail_ppm = 0;
  std::uint32_t server_send_short_ppm = 0;
  std::uint32_t server_recv_fail_ppm = 0;
  std::uint32_t server_accept_fail_ppm = 0;
  std::uint32_t wal_append_fail_ppm = 0;
  std::uint32_t wal_torn_ppm = 0;
  std::uint32_t fsync_fail_ppm = 0;
  std::uint32_t rename_fail_ppm = 0;
};

const char* phase_kind_name(FaultPhase::Kind kind);

/// Seeded schedule: same seed, same phases, same knob magnitudes.
struct FaultSchedule {
  std::uint64_t seed = 0;
  std::vector<FaultPhase> phases;

  static FaultSchedule from_seed(std::uint64_t seed, double total_seconds);
};

struct CampaignOptions {
  std::uint64_t seed = 1;
  double duration_s = 2.0;
  /// Oracle devices enrolled up front (their models drive the
  /// wrong-accept check).
  int devices = 3;
  /// Concurrent AuthClient worker threads.
  int clients = 4;
  /// PPUF geometry for oracle devices (small = fast fabrication).
  int node_count = 16;
  int grid_size = 4;
  /// Mid-campaign kill-and-restart cycles of the server (0 = none).
  int restarts = 1;
  /// Run a background enroll/revoke churn thread so disk faults land on
  /// live WAL appends and auto-compactions.
  bool enroll_churn = true;
  int server_threads = 2;
  int max_inflight = 16;
  /// Hard ceiling on restart recovery before it counts as a violation.
  double recovery_bound_ms = 5000.0;
  /// Cross-connection coalescing knobs for the campaign server (multi-
  /// item batches must hold the same invariants under faults as one-item
  /// ones; 1 would serve every read as a one-item batch).
  std::size_t coalesce_batch = 8;
  std::uint32_t coalesce_wait_us = 200;
  /// Server-side CRP response cache (bytes); the campaign exercises the
  /// warm path, so wrong-response checks also cover cached replies.
  std::size_t response_cache_bytes = 1 << 20;
};

struct CampaignResult {
  std::uint64_t seed = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  /// Typed UNAVAILABLE / DEADLINE_EXCEEDED — the only errors faults are
  /// allowed to surface.
  std::uint64_t typed_transient = 0;
  /// Typed NOT_FOUND on deliberate unknown-device probes (expected).
  std::uint64_t typed_rejections = 0;
  std::uint64_t enrolls_committed = 0;
  std::uint64_t enrolls_failed = 0;
  std::vector<std::string> violations;
  /// Restart blackout: stop() begin -> first successful ping.
  std::vector<double> recovery_ms;

  bool passed() const { return violations.empty(); }
};

/// Run one seeded campaign against a fresh registry + live server in a
/// temp directory.  Arms/clears util::FaultHooks process-wide: do not
/// run concurrently with anything else that uses the hooks.
CampaignResult run_campaign(const CampaignOptions& options);

struct TortureOptions {
  int iterations = 20;
  std::uint64_t seed = 1;
  /// Small geometry: the torture measures durability, not solver speed.
  int node_count = 6;
  int grid_size = 3;
  /// Registry directory; empty = fresh temp dir (removed contents).
  std::string directory;
  /// Probe the recovered registry through a live server every this many
  /// iterations (revoked/unknown must be refused); 0 disables.
  int serve_check_every = 5;
  double recovery_bound_ms = 5000.0;
};

struct TortureResult {
  int iterations = 0;
  std::uint64_t committed_enrolls = 0;
  std::uint64_t committed_revokes = 0;
  std::vector<std::string> violations;
  /// DeviceRegistry::open() wall time per recovery.
  std::vector<double> recovery_ms;

  bool passed() const { return violations.empty(); }
};

/// Enroll -> SIGKILL -> recover loop.  Forks: the caller must ensure no
/// other threads are alive in the process (run it before, or after
/// joining, any server/campaign work).
TortureResult run_kill9_torture(const TortureOptions& options);

/// Nearest-rank percentile (p in [0,100]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);

/// Roll-up across campaigns + torture for the drivers (bench_chaos,
/// `ppuf_tool chaos`) and their BENCH_chaos.json.
struct Aggregate {
  std::vector<std::uint64_t> seeds;
  std::uint64_t faults_injected = 0;
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t typed_transient = 0;
  std::uint64_t typed_rejections = 0;
  std::uint64_t enrolls_committed = 0;
  std::uint64_t enrolls_failed = 0;
  std::size_t violation_count = 0;
  /// First few violation messages, for the report.
  std::vector<std::string> sample_violations;
  /// First seed that produced a violation (0 = none).
  std::uint64_t failing_seed = 0;
  std::vector<double> recovery_ms;
  int torture_iterations = 0;
  std::uint64_t torture_committed_enrolls = 0;
  std::uint64_t torture_committed_revokes = 0;

  void add(const CampaignResult& r);
  void add(const TortureResult& r);
  bool passed() const { return violation_count == 0; }
  /// BENCH_chaos.json body.
  std::string to_json() const;
};

}  // namespace ppuf::testing::chaos
