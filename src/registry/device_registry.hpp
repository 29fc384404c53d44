// Persistent, crash-safe store of enrolled PPUF devices.
//
// The whole point of a *public* PUF is that each chip's model is published
// so any verifier can (slowly) simulate it — which makes the published
// model database the deployment substrate: enrollment writes a device's
// public model into the store, serving reads it back, revocation retires
// it.  This class is that store.
//
// Layout on disk (one directory per registry):
//
//   <dir>/snapshot.bin   folded state at the last compaction (optional)
//   <dir>/wal.log        framed enroll/revoke records appended since
//
// Durability model: every mutation appends one CRC-framed record to the
// WAL and fsyncs it before the in-memory state changes, so a crash can
// lose at most the record being written — and that loss is *detectable*:
// the torn tail fails its frame (kNeedMore at EOF) and open() truncates
// it, keeping every committed device.  A record that is complete but
// wrong (bit rot, tampering) fails its CRC instead and open() refuses
// with a typed error — the registry never guesses at corrupt state.  A
// *failed* append (disk full, fsync error, torn write) marks the WAL
// dirty; the next append first truncates back to the last committed
// length, so partial bytes can never end up buried under later records.
//
// Compaction folds snapshot + WAL into a fresh snapshot: written to a
// temp file, fsynced, atomically renamed, then the directory is fsynced
// so the rename itself survives power loss; only then is the WAL
// truncated.  A stale snapshot.bin.tmp left by a crashed compaction is
// removed during recovery.  Compaction runs explicitly via compact() and
// automatically every Options::auto_compact_records appends, so the WAL
// stays bounded under continuous enrollment.
//
// Thread safety: every public method is safe to call concurrently; one
// mutex guards the map and the log file.  enroll() fabricates without it
// and takes it only to admit the request and, afterwards, to assign the
// id, append to the WAL and publish, so a fabrication never stalls a
// read.  Reads that services care about (contains / active / load_model)
// are map lookups plus, for load_model, one model decode — the hydration
// cache above this class amortises that.
//
// Three reads never take the mutex, so an event-loop thread may make
// them: device_count() and wal_position() read values every mutation
// publishes under the lock on its way out, and liveness_generation()
// reads a counter bumped under the lock wherever a device can stop being
// active (revoke, open's replay, install_bootstrap, a replicated revoke).
// Enrolls only add ids and ids are never reused, so they do not bump it:
// a caller that saw active(id) at generation G may keep trusting that
// answer for as long as the generation still reads G.
#pragma once

#include <atomic>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "ppuf/sim_model.hpp"
#include "registry/record.hpp"
#include "util/status.hpp"

namespace ppuf::circuit {
class SymbolicCache;  // circuit/mna.hpp
}

namespace ppuf::registry {

/// Listing row: everything about a device except its model blob.
struct DeviceInfo {
  std::uint64_t id = 0;
  std::uint32_t nodes = 0;
  std::uint32_t grid = 0;
  std::string label;
  bool revoked = false;
  backend::BackendKind backend = backend::BackendKind::kMaxFlow;
};

/// What enroll() fabricates: backend + geometry + fabrication seed (the
/// same seed always fabricates the same instance, so the seed is the
/// "silicon").  Geometry is in the backend's own units — crossbar
/// (nodes, grid) for max-flow, (stages, instances) for PDL.
struct EnrollRequest {
  std::size_t node_count = 40;
  std::size_t grid_size = 8;
  std::uint64_t seed = 0;
  std::string label;
  /// 0 = assign the next free id.  Non-zero = enroll under exactly this
  /// id (what a gateway forwards, so the id a client hashed on is the id
  /// the shard stores); enrolling an id that already exists is a typed
  /// kInvalidArgument, never an overwrite.
  std::uint64_t device_id = 0;
  backend::BackendKind backend = backend::BackendKind::kMaxFlow;
};

class DeviceRegistry {
 public:
  struct Options {
    /// Compact automatically once this many WAL records accumulate past
    /// the snapshot; 0 disables auto-compaction.
    std::size_t auto_compact_records = 64;
  };

  /// Stats from the last open(): how recovery went.
  struct RecoveryStats {
    std::size_t snapshot_entries = 0;   ///< devices loaded from snapshot
    std::size_t wal_records = 0;        ///< records replayed from the WAL
    std::size_t truncated_tail_bytes = 0;  ///< torn bytes dropped at EOF
  };

  /// Mutations since construction, counted in this instance's
  /// obs::CounterSet (`registry.*`, obs::kRegistryEvents).
  struct Stats {
    std::uint64_t enrolls = 0;
    std::uint64_t revokes = 0;
    std::uint64_t compactions = 0;  ///< explicit, automatic and bootstrap
  };

  DeviceRegistry() = default;
  DeviceRegistry(const DeviceRegistry&) = delete;
  DeviceRegistry& operator=(const DeviceRegistry&) = delete;

  /// Open (creating the directory if needed) and recover.  Typed errors:
  /// kInvalidArgument for a corrupt snapshot or WAL record, kInternal for
  /// I/O failures.  A torn WAL tail is not an error — it is truncated and
  /// reported through recovery_stats().
  util::Status open(const std::string& directory, const Options& options);
  util::Status open(const std::string& directory) {
    return open(directory, Options());
  }

  bool is_open() const;
  const std::string& directory() const { return directory_; }

  /// Fabricate, derive the public model, assign the next id, persist.
  /// On success `*id_out` is the stable device id (ids start at 1 and are
  /// never reused, including across revocations and restarts).  Ids are
  /// assigned when the enroll publishes, not when it starts, so concurrent
  /// enrolls get ids (and WAL positions) in completion order.
  util::Status enroll(const EnrollRequest& request, std::uint64_t* id_out);

  /// Mark a device revoked (idempotent).  kNotFound for unknown ids.
  util::Status revoke(std::uint64_t id);

  bool contains(std::uint64_t id) const;
  /// Enrolled and not revoked — the predicate serving cares about.
  bool active(std::uint64_t id) const;

  /// Decode the stored public model.  kNotFound for unknown ids (revoked
  /// devices still load: revocation is a serving policy, the model is
  /// still published).  Max-flow devices only — a device of any other
  /// backend is a typed kInvalidArgument; backend-generic callers use
  /// load_entry() and materialise through the backend registry instead.
  util::Status load_model(std::uint64_t id, SimulationModel* out) const;

  /// Backend-generic read: the device's backend tag plus its stored model
  /// blob, verbatim.  kNotFound for unknown ids.  This is what hydration
  /// uses — the blob goes to find_backend(kind)->materialize().
  util::Status load_entry(std::uint64_t id, backend::BackendKind* kind,
                          std::vector<std::uint8_t>* model_bytes) const;

  std::vector<DeviceInfo> list() const;
  /// Lock-free (see the class notes).
  std::size_t device_count() const {
    return device_count_.load(std::memory_order_acquire);
  }

  /// Lock-free; bumped wherever a device can stop being active.  Read it
  /// BEFORE an active() check whose answer it is meant to vouch for.
  std::uint64_t liveness_generation() const {
    return liveness_generation_.load(std::memory_order_acquire);
  }

  /// Fold snapshot + WAL into a fresh snapshot and truncate the WAL.
  util::Status compact();

  RecoveryStats recovery_stats() const;
  Stats stats() const;

  // --- WAL shipping (primary side) ---------------------------------------
  //
  // The WAL is an append-only byte stream within one *epoch*; compaction
  // (and every open()) starts a new epoch, because it rewrites history
  // into the snapshot and truncates the log.  A standby therefore tracks
  // {epoch, offset}: as long as the epoch matches, bytes at a given
  // offset are immutable and can be shipped verbatim; on a mismatch the
  // standby re-bootstraps from a full snapshot image.

  struct WalPosition {
    std::uint64_t epoch = 0;   ///< random per open(), regenerated on compact
    std::uint64_t offset = 0;  ///< committed WAL byte length
  };

  /// Lock-free (see the class notes); epoch and offset are read as one
  /// consistent pair.
  WalPosition wal_position() const;

  /// Copy committed WAL bytes of `epoch` starting at `offset` (at most
  /// `max_bytes`) into `*out`.  If the epoch does not match or the offset
  /// is past the committed length, sets `*stale` and returns ok with an
  /// empty segment — the caller must fall back to export_bootstrap().
  util::Status read_wal_segment(std::uint64_t epoch, std::uint64_t offset,
                                std::size_t max_bytes,
                                std::vector<std::uint8_t>* out,
                                bool* stale) const;

  /// Frame the complete current state as a snapshot image a standby can
  /// install_bootstrap(); `*pos` is the WAL position the image folds in
  /// (shipping resumes from there).
  util::Status export_bootstrap(std::vector<std::uint8_t>* image,
                                WalPosition* pos) const;

  // --- WAL shipping (standby side) ---------------------------------------

  /// Replace this registry's state with a shipped snapshot image and
  /// persist it durably (local snapshot write + WAL truncate).
  util::Status install_bootstrap(const std::vector<std::uint8_t>& image);

  /// Replay shipped WAL bytes: whole records are appended durably to the
  /// local WAL and applied to memory; `*consumed` reports how many bytes
  /// were used, so a partial trailing record stays in the caller's buffer
  /// for the next segment.  A corrupt record is a typed kInvalidArgument
  /// (the caller should re-bootstrap).
  util::Status apply_wal_bytes(const std::uint8_t* data, std::size_t size,
                               std::size_t* consumed);

  /// The fleet-level circuit symbolic cache built up by enroll() (see the
  /// member's notes).  Null until the first enrollment.  Exposed so
  /// callers that re-fabricate oracle chips for devices enrolled here —
  /// differential tests, chaos campaigns — can share the analysis instead
  /// of re-deriving the identical topology per chip.
  std::shared_ptr<circuit::SymbolicCache> enroll_symbolic_cache() const;

 private:
  util::Status append_record_locked(const WalRecord& record);
  util::Status append_raw_locked(const std::uint8_t* data, std::size_t size);
  util::Status compact_locked();
  /// Store device_count_ and the WAL position for the lock-free readers.
  /// Every mutating method runs it on its way out, under mutex_.
  void publish_locked();
  /// Declared right after a lock_guard on mutex_: publishes as the method
  /// returns, whichever return it takes, before the lock is released.
  struct PublishOnExit {
    DeviceRegistry& registry;
    ~PublishOnExit() { registry.publish_locked(); }
  };
  /// Liveness changed (a device may have stopped being active).
  void bump_liveness_locked() {
    liveness_generation_.fetch_add(1, std::memory_order_acq_rel);
  }
  std::string wal_path() const { return directory_ + "/wal.log"; }
  std::string snapshot_path() const { return directory_ + "/snapshot.bin"; }

  /// Indices into counters_ (obs::kRegistryEvents).
  enum Event : std::size_t { kEnrolls, kRevokes, kCompactions, kEventCount };
  static_assert(std::size(obs::kRegistryEvents) == kEventCount);
  obs::CounterSet counters_{"registry", obs::kRegistryEvents};

  mutable std::mutex mutex_;
  std::string directory_;
  Options options_;
  bool open_ = false;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, DeviceEntry> entries_;
  std::size_t wal_records_since_snapshot_ = 0;
  RecoveryStats recovery_stats_;
  /// Committed WAL byte length — everything before it replays cleanly.
  std::uint64_t wal_len_ = 0;
  /// WAL shipping epoch: random and non-zero, regenerated by open() and
  /// every compaction, so a standby can detect that offsets it remembers
  /// no longer name the same bytes.
  std::uint64_t wal_epoch_ = 0;
  /// True after a failed append left (possibly) uncommitted bytes past
  /// wal_len_; the next append truncates back to wal_len_ first.
  bool wal_dirty_ = false;
  /// Fleet-level circuit symbolic cache: every enrolled device's blocks
  /// share one netlist topology, so the MNA pattern + sparse-LU analysis
  /// from the first enrollment is replayed by all later ones.  Created
  /// lazily on the first enroll; the pointer is guarded by mutex_, the
  /// cache itself is safe for concurrent fabrications.
  std::shared_ptr<circuit::SymbolicCache> enroll_symbolic_cache_;

  // Published for the lock-free readers.  The WAL position is a seqlock:
  // wal_seq_ is odd while publish_locked() is rewriting the pair.
  std::atomic<std::size_t> device_count_{0};
  std::atomic<std::uint64_t> wal_seq_{0};
  std::atomic<std::uint64_t> published_wal_epoch_{0};
  std::atomic<std::uint64_t> published_wal_len_{0};
  std::atomic<std::uint64_t> liveness_generation_{0};
};

}  // namespace ppuf::registry
