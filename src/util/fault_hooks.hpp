// Process-wide fault-injection hook points.
//
// The deterministic fault harness (src/testing/fault_injection.*) needs to
// reach *inside* the solvers — e.g. starve the direct Newton stage so the
// recovery ladder provably fires.  Those layers must not link against the
// test harness, so the hooks live here, at the bottom of the dependency
// graph: a handful of atomics the solvers consult with one relaxed load
// each.
//
// Two kinds of hooks coexist:
//
//   * Deterministic hooks (countdowns / one-shots) for targeted regression
//     tests: "the next N appends fail", "the next send is a peer reset".
//
//   * The probabilistic chaos plane: per-site probabilities in parts per
//     million, drawn from one seeded splitmix64 stream, covering the
//     syscall boundary of the serving stack (client send/recv/latency,
//     server send/short-send/recv/accept, registry write/torn-write/
//     fsync/rename).  The chaos campaign (src/testing/chaos) arms whole
//     schedules of these and asserts serving invariants while they fire.
//
// The `server_*` hooks sit in net::FrameServer, the one event loop behind
// both the AuthServer and the fleet Gateway, so they fire in every
// FrameServer — the gateway's included.
//
// All hooks default to "inactive" (zero); production code never arms them.
// Arm/disarm through testing::ScopedFaultInjection or the chaos scheduler,
// both of which restore the inactive state on scope exit.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace ppuf::util {

struct FaultHooks {
  /// > 0: cap the *direct* Newton stage (circuit::DcSolver and
  /// ppuf::NetworkSolver) at this many iterations, forcing a stall that
  /// only the recovery ladder can clear.  Ladder stages are unaffected.
  std::atomic<int> newton_direct_iteration_cap{0};

  /// true: skip the gmin-stepping rung so a forced stall escalates to
  /// source stepping / tightened damping (lets tests pin the deeper rungs).
  std::atomic<bool> newton_skip_gmin_stage{false};

  /// > 0: countdown of FrameServer socket sends that fail as if the peer
  /// reset the connection (the hard-error branch of flush()).  Lets tests
  /// deterministically close a connection mid-pipeline, a path that is
  /// otherwise a narrow timing race against a real RST.
  std::atomic<int> server_send_failures{0};

  /// true: FrameServer flush() treats every send as EAGAIN (kernel buffer
  /// full) without touching the socket — the deterministic way to grow a
  /// connection's reply backlog for slow-peer tests, independent of the
  /// host's actual socket buffer sizing.  State, not an event: it does
  /// not tick faults_injected.
  std::atomic<bool> server_send_block{false};

  /// >= 0: the next registry write-ahead-log append writes only this many
  /// bytes of the record and then fails as if the process died (a torn
  /// tail).  One-shot: consumed by the first append that observes it.
  /// -1 (default): inactive.  Crash-recovery tests arm this to prove the
  /// registry truncates the torn tail on reopen and keeps every
  /// previously committed device.
  std::atomic<int> registry_torn_write_bytes{-1};

  /// > 0: countdown of registry WAL appends that fail before writing a
  /// single byte, as if the disk were full.  The registry must surface a
  /// typed error and leave in-memory state untouched.
  std::atomic<int> registry_append_failures{0};

  /// > 0: countdown of registry fsync calls (WAL append, snapshot .tmp,
  /// directory) that fail.  The caller must treat the data as
  /// uncommitted.
  std::atomic<int> registry_fsync_failures{0};

  /// > 0: countdown of registry snapshot renames that fail; compaction
  /// must keep serving from the old snapshot + WAL.
  std::atomic<int> registry_rename_failures{0};

  // --------------------------------------------------------------------
  // Probabilistic chaos plane.  Each knob is a probability in parts per
  // million (0 = never, 1'000'000 = always); draws come from one seeded
  // lock-free splitmix64 stream so a campaign seed reproduces the same
  // fault decisions given the same sequence of hook consultations.
  // --------------------------------------------------------------------

  /// Client-side net::send_all fails as kUnavailable before sending.
  std::atomic<std::uint32_t> net_send_fail_ppm{0};
  /// Client-side net::recv_exact fails as kUnavailable before reading.
  std::atomic<std::uint32_t> net_recv_fail_ppm{0};
  /// Client-side socket ops sleep net_latency_us before proceeding.
  std::atomic<std::uint32_t> net_latency_ppm{0};
  std::atomic<std::uint32_t> net_latency_us{0};

  /// Server flush() treats the send as a peer reset (connection dropped).
  std::atomic<std::uint32_t> server_send_fail_ppm{0};
  /// Server flush() sends at most a few bytes (short write), exercising
  /// the partial-write bookkeeping without dropping the connection.
  std::atomic<std::uint32_t> server_send_short_ppm{0};
  /// Server read_ready() treats the recv as a hard error (drop).
  std::atomic<std::uint32_t> server_recv_fail_ppm{0};
  /// Server accept_ready() closes the just-accepted socket immediately.
  std::atomic<std::uint32_t> server_accept_fail_ppm{0};

  /// Registry WAL append fails before writing (disk full).
  std::atomic<std::uint32_t> wal_append_fail_ppm{0};
  /// Registry WAL append writes a random prefix of the record, then fails.
  std::atomic<std::uint32_t> wal_torn_ppm{0};
  /// Registry fsync (WAL / snapshot / directory) fails.
  std::atomic<std::uint32_t> fsync_fail_ppm{0};
  /// Registry snapshot rename fails.
  std::atomic<std::uint32_t> rename_fail_ppm{0};

  /// Seeded splitmix64 state shared by every chaos draw.
  std::atomic<std::uint64_t> chaos_rng_state{0};

  /// Total faults injected (deterministic and probabilistic) since the
  /// last reset; campaigns report it so "zero violations" is falsifiable
  /// against "zero faults actually fired".
  std::atomic<std::uint64_t> faults_injected{0};

  static FaultHooks& instance();

  bool any_newton_fault() const {
    return newton_direct_iteration_cap.load(std::memory_order_relaxed) > 0 ||
           newton_skip_gmin_stage.load(std::memory_order_relaxed);
  }

  /// Seed the chaos draw stream.  Call once per campaign, after reset().
  static void seed_chaos(std::uint64_t seed) {
    instance().chaos_rng_state.store(seed, std::memory_order_relaxed);
  }

  static std::uint64_t total_faults_injected() {
    return instance().faults_injected.load(std::memory_order_relaxed);
  }

  /// Atomically consume one injected send failure; true when the calling
  /// send should fail as a peer reset.
  static bool consume_server_send_failure() {
    auto& h = instance();
    return count(consume_countdown(h.server_send_failures) ||
                 h.roll(h.server_send_fail_ppm));
  }

  /// True while server sends should back-pressure as if the socket
  /// buffer were full.
  static bool server_send_blocked() {
    return instance().server_send_block.load(std::memory_order_relaxed);
  }

  /// True when the calling server send should be artificially short.
  static bool consume_server_send_short() {
    auto& h = instance();
    return count(h.roll(h.server_send_short_ppm));
  }

  /// True when the calling server recv should fail as a hard error.
  static bool consume_server_recv_failure() {
    auto& h = instance();
    return count(h.roll(h.server_recv_fail_ppm));
  }

  /// True when the just-accepted server socket should be dropped.
  static bool consume_server_accept_failure() {
    auto& h = instance();
    return count(h.roll(h.server_accept_fail_ppm));
  }

  /// True when the calling client-side send should fail.
  static bool consume_net_send_failure() {
    auto& h = instance();
    return count(h.roll(h.net_send_fail_ppm));
  }

  /// True when the calling client-side recv should fail.
  static bool consume_net_recv_failure() {
    auto& h = instance();
    return count(h.roll(h.net_recv_fail_ppm));
  }

  /// Microseconds of injected latency for the calling client socket op
  /// (0 = none).
  static std::uint32_t consume_net_latency_us() {
    auto& h = instance();
    if (!h.roll(h.net_latency_ppm)) return 0;
    count(true);
    return h.net_latency_us.load(std::memory_order_relaxed);
  }

  /// True when the calling registry WAL append should fail as disk-full.
  static bool consume_registry_append_failure() {
    auto& h = instance();
    return count(consume_countdown(h.registry_append_failures) ||
                 h.roll(h.wal_append_fail_ppm));
  }

  /// True when the calling registry fsync should fail.
  static bool consume_registry_fsync_failure() {
    auto& h = instance();
    return count(consume_countdown(h.registry_fsync_failures) ||
                 h.roll(h.fsync_fail_ppm));
  }

  /// True when the calling registry snapshot rename should fail.
  static bool consume_registry_rename_failure() {
    auto& h = instance();
    return count(consume_countdown(h.registry_rename_failures) ||
                 h.roll(h.rename_fail_ppm));
  }

  /// Atomically consume the one-shot torn-write injection.  Returns the
  /// armed byte count (>= 0) exactly once, -1 otherwise.  When the
  /// deterministic one-shot is inactive, the probabilistic wal_torn_ppm
  /// plane may still tear the record at a seeded prefix of frame_size.
  static int consume_registry_torn_write(std::size_t frame_size) {
    auto& h = instance();
    if (h.registry_torn_write_bytes.load(std::memory_order_relaxed) >= 0) {
      const int armed =
          h.registry_torn_write_bytes.exchange(-1, std::memory_order_relaxed);
      if (armed >= 0) {
        count(true);
        return armed;
      }
    }
    if (frame_size > 0 && h.roll(h.wal_torn_ppm)) {
      count(true);
      return static_cast<int>(h.draw() % frame_size);
    }
    return -1;
  }

  void reset() {
    newton_direct_iteration_cap.store(0, std::memory_order_relaxed);
    newton_skip_gmin_stage.store(false, std::memory_order_relaxed);
    server_send_failures.store(0, std::memory_order_relaxed);
    server_send_block.store(false, std::memory_order_relaxed);
    registry_torn_write_bytes.store(-1, std::memory_order_relaxed);
    registry_append_failures.store(0, std::memory_order_relaxed);
    registry_fsync_failures.store(0, std::memory_order_relaxed);
    registry_rename_failures.store(0, std::memory_order_relaxed);
    net_send_fail_ppm.store(0, std::memory_order_relaxed);
    net_recv_fail_ppm.store(0, std::memory_order_relaxed);
    net_latency_ppm.store(0, std::memory_order_relaxed);
    net_latency_us.store(0, std::memory_order_relaxed);
    server_send_fail_ppm.store(0, std::memory_order_relaxed);
    server_send_short_ppm.store(0, std::memory_order_relaxed);
    server_recv_fail_ppm.store(0, std::memory_order_relaxed);
    server_accept_fail_ppm.store(0, std::memory_order_relaxed);
    wal_append_fail_ppm.store(0, std::memory_order_relaxed);
    wal_torn_ppm.store(0, std::memory_order_relaxed);
    fsync_fail_ppm.store(0, std::memory_order_relaxed);
    rename_fail_ppm.store(0, std::memory_order_relaxed);
    chaos_rng_state.store(0, std::memory_order_relaxed);
    faults_injected.store(0, std::memory_order_relaxed);
  }

  /// Zero only the probabilistic plane, leaving deterministic hooks and
  /// the faults_injected tally alone; the chaos scheduler calls this
  /// between phases of a schedule.
  void clear_chaos_plane() {
    net_send_fail_ppm.store(0, std::memory_order_relaxed);
    net_recv_fail_ppm.store(0, std::memory_order_relaxed);
    net_latency_ppm.store(0, std::memory_order_relaxed);
    net_latency_us.store(0, std::memory_order_relaxed);
    server_send_fail_ppm.store(0, std::memory_order_relaxed);
    server_send_short_ppm.store(0, std::memory_order_relaxed);
    server_recv_fail_ppm.store(0, std::memory_order_relaxed);
    server_accept_fail_ppm.store(0, std::memory_order_relaxed);
    wal_append_fail_ppm.store(0, std::memory_order_relaxed);
    wal_torn_ppm.store(0, std::memory_order_relaxed);
    fsync_fail_ppm.store(0, std::memory_order_relaxed);
    rename_fail_ppm.store(0, std::memory_order_relaxed);
  }

 private:
  static bool consume_countdown(std::atomic<int>& counter) {
    int n = counter.load(std::memory_order_relaxed);
    while (n > 0) {
      if (counter.compare_exchange_weak(n, n - 1,
                                        std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  /// One splitmix64 step on the shared chaos stream.  fetch_add of the
  /// golden gamma keeps the stream lock-free under concurrent draws; the
  /// finalizer decorrelates consecutive outputs.
  std::uint64_t draw() {
    std::uint64_t z = chaos_rng_state.fetch_add(0x9e3779b97f4a7c15ULL,
                                                std::memory_order_relaxed) +
                      0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// True with probability ppm / 1e6.  The cheap load-first guard keeps
  /// the disarmed (production) cost to one relaxed load per site.
  bool roll(std::atomic<std::uint32_t>& site_ppm) {
    const std::uint32_t ppm = site_ppm.load(std::memory_order_relaxed);
    if (ppm == 0) return false;
    return draw() % 1000000u < ppm;
  }

  /// Tally injected faults; passes the decision through so consume
  /// helpers stay one-liners.
  static bool count(bool fired) {
    if (fired) {
      instance().faults_injected.fetch_add(1, std::memory_order_relaxed);
    }
    return fired;
  }
};

}  // namespace ppuf::util
