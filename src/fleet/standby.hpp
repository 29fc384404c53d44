// WAL-shipping standby: a warm replica of one shard's device registry.
//
// The standby PULLS: it polls its primary with kWalFetchRequest{epoch,
// offset} and the primary answers with either a byte-exact WAL segment
// (appended durably to the standby's own log, then applied in memory) or
// a full bootstrap snapshot when the standby's position no longer exists
// (first contact, primary restart, or compaction — the registry's WAL
// epoch is a random token regenerated at both, so a stale position can
// never alias).  Partial trailing records are buffered across segments;
// only whole CRC-verified records are ever applied.
//
// Consistency window: replication is asynchronous, so enrollments the
// primary acked in the last poll interval may be lost on failover.  The
// window is measured, not assumed — promote() reports the replicated
// position and the primary's last observed position, and the fleet test
// pins the acked-loss count to what those bounds imply (zero once the
// standby has caught up past an ack).
//
// Promotion: promote() stops replication and hands the registry to the
// caller, who serves it behind a fresh AuthServer and re-points the
// gateway's shard name at it (ring placement is name-keyed, so no device
// moves).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "registry/device_registry.hpp"
#include "util/status.hpp"

namespace ppuf::fleet {

struct StandbyOptions {
  std::string primary_host = "127.0.0.1";
  std::uint16_t primary_port = 0;
  std::string directory;        ///< local registry dir (durable replica)
  int poll_interval_ms = 100;   ///< replication cadence (the loss window)
  int request_timeout_ms = 5000;
  std::uint32_t fetch_max_bytes = 0;  ///< 0 = primary's default cap
};

/// What promote() reports: where replication stood when it stopped.
struct PromotionReport {
  std::uint64_t wal_epoch = 0;
  std::uint64_t wal_offset = 0;       ///< bytes replicated in that epoch
  std::uint64_t device_count = 0;     ///< devices now served locally
  std::uint64_t fetches = 0;          ///< segment pulls performed
  std::uint64_t bootstraps = 0;       ///< full-snapshot installs
  /// True when the last successful pull drained the primary (empty
  /// segment): every byte the primary had committed then is replicated.
  bool caught_up = false;
};

class WalStandby {
 public:
  explicit WalStandby(StandbyOptions options);
  ~WalStandby();

  WalStandby(const WalStandby&) = delete;
  WalStandby& operator=(const WalStandby&) = delete;

  /// Open the local registry replica and spawn the poll thread.
  util::Status start();

  /// One synchronous replication pass: pull until the primary reports no
  /// more bytes (or an error).  Runs the same path as the poll thread —
  /// tests use it to make "caught up" deterministic.
  util::Status sync_once();

  /// Stop replicating and take over: the registry is now this process's
  /// to serve.  Idempotent (later calls return the same report).
  PromotionReport promote();

  /// Stop the poll thread without promoting.
  void stop();

  /// The local replica.  Non-const so a promoted standby can be handed
  /// straight to AuthServer (which also serves ENROLL / WAL_FETCH).
  registry::DeviceRegistry& registry() { return registry_; }

  struct Stats {
    std::uint64_t fetches = 0;
    std::uint64_t bootstraps = 0;
    std::uint64_t bytes_applied = 0;
    std::uint64_t fetch_errors = 0;
    std::uint64_t wal_epoch = 0;
    std::uint64_t wal_offset = 0;
  };
  Stats stats() const;

 private:
  /// Pull-and-apply until caught up; expects state_mutex_ held.
  util::Status fetch_pass_locked();
  void poll_loop();

  StandbyOptions options_;
  registry::DeviceRegistry registry_;
  std::thread poll_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool promoted_ = false;
  PromotionReport promotion_report_;

  /// Guards the replication cursor + buffer (poll thread vs sync_once /
  /// promote); the registry itself has its own mutex.
  mutable std::mutex state_mutex_;
  std::uint64_t epoch_ = 0;   ///< 0 = unknown: next fetch bootstraps
  std::uint64_t offset_ = 0;
  std::vector<std::uint8_t> buffer_;  ///< partial trailing record bytes
  bool caught_up_ = false;

  /// Indices into counters_ (obs::kStandbyEvents).
  enum Event : std::size_t {
    kFetches, kBootstraps, kBytesApplied, kFetchErrors, kEventCount
  };
  static_assert(std::size(obs::kStandbyEvents) == kEventCount);
  obs::CounterSet counters_{"standby", obs::kStandbyEvents};
};

}  // namespace ppuf::fleet
