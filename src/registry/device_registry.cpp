#include "registry/device_registry.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <system_error>

#include "backend/backend.hpp"
#include "circuit/mna.hpp"
#include "obs/metrics.hpp"
#include "protocol/codec.hpp"
#include "util/fault_hooks.hpp"

namespace ppuf::registry {

namespace {

using util::Status;

namespace fs = std::filesystem;

/// Whole-file read; distinguishes "absent" (empty result, ok) from I/O
/// failure so recovery can treat a missing snapshot/WAL as a fresh store.
Status read_file(const std::string& path, std::vector<std::uint8_t>* out,
                 bool* exists) {
  out->clear();
  std::error_code ec;
  *exists = fs::exists(path, ec);
  if (ec) return Status::internal("stat " + path + ": " + ec.message());
  if (!*exists) return Status::ok();
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::internal("cannot open " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  out->resize(static_cast<std::size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(out->data()), size))
    return Status::internal("cannot read " + path);
  return Status::ok();
}

/// RAII file descriptor so every error branch below closes exactly once.
struct Fd {
  int fd = -1;
  explicit Fd(int f) : fd(f) {}
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  bool ok() const { return fd >= 0; }
};

/// Full write with EINTR retry; false on any hard error (errno set).
bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// fsync that consults the fault plane first, so durability failures are
/// injectable exactly at the syscall boundary.
Status fsync_durable(int fd, const std::string& what) {
  if (util::FaultHooks::consume_registry_fsync_failure())
    return Status::internal("injected fsync failure on " + what);
  if (::fsync(fd) != 0)
    return Status::internal("fsync " + what + ": " +
                            std::strerror(errno));
  return Status::ok();
}

/// fsync the directory so a just-renamed or just-created entry survives
/// power loss (the rename/creat is durable only once its directory is).
Status fsync_directory(const std::string& directory) {
  Fd dfd(::open(directory.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
  if (!dfd.ok())
    return Status::internal("open dir " + directory + ": " +
                            std::strerror(errno));
  return fsync_durable(dfd.fd, "directory " + directory);
}

/// Fresh non-zero WAL-shipping epoch.  Randomness (not a counter) so an
/// epoch from *any* earlier process lifetime — where the same offsets may
/// name different bytes — can never collide with the current one.
std::uint64_t fresh_wal_epoch() {
  std::random_device rd;
  std::uint64_t e = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  return e == 0 ? 1 : e;
}

}  // namespace

util::Status DeviceRegistry::open(const std::string& directory,
                                  const Options& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  const PublishOnExit publish{*this};
  // Replay rebuilds the device set from disk: anything a reader saw as
  // active before may not be now.
  bump_liveness_locked();
  directory_ = directory;
  options_ = options;
  open_ = false;
  next_id_ = 1;
  entries_.clear();
  wal_records_since_snapshot_ = 0;
  recovery_stats_ = RecoveryStats{};
  wal_len_ = 0;
  wal_dirty_ = false;

  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec)
    return Status::internal("create " + directory_ + ": " + ec.message());

  // A crashed compaction can leave a snapshot.bin.tmp that was never
  // renamed; it is dead bytes (the old snapshot is still authoritative),
  // so recovery removes it rather than letting it accumulate.
  fs::remove(snapshot_path() + ".tmp", ec);

  // 1. Snapshot: the folded state at the last compaction, if any.
  std::vector<std::uint8_t> bytes;
  bool exists = false;
  if (Status s = read_file(snapshot_path(), &bytes, &exists); !s.is_ok())
    return s;
  if (exists) {
    SnapshotBody snapshot;
    if (Status s = parse_snapshot(bytes.data(), bytes.size(), &snapshot);
        !s.is_ok())
      return Status::invalid_argument("registry snapshot " + snapshot_path() +
                                      ": " + s.message());
    for (DeviceEntry& e : snapshot.entries) {
      const std::uint64_t id = e.id;
      entries_[id] = std::move(e);
    }
    next_id_ = std::max(snapshot.next_id, next_id_);
    recovery_stats_.snapshot_entries = entries_.size();
  }

  // 2. WAL replay.  kNeedMore at EOF is the torn-tail case: the process
  // died mid-append, so the incomplete bytes were never acknowledged —
  // truncate them and keep everything before.  kCorrupt is different in
  // kind (a *complete* record whose bytes lie) and is refused.
  if (Status s = read_file(wal_path(), &bytes, &exists); !s.is_ok()) return s;
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    std::size_t consumed = 0;
    std::vector<std::uint8_t> body;
    std::string error;
    const ExtractStatus es = extract_record(bytes.data() + offset,
                                            bytes.size() - offset, &consumed,
                                            &body, &error);
    if (es == ExtractStatus::kNeedMore) {
      recovery_stats_.truncated_tail_bytes = bytes.size() - offset;
      fs::resize_file(wal_path(), offset, ec);
      if (ec)
        return Status::internal("truncate " + wal_path() + ": " +
                                ec.message());
      break;
    }
    if (es == ExtractStatus::kCorrupt)
      return Status::invalid_argument("registry wal " + wal_path() + ": " +
                                      error);
    protocol::codec::Reader r(body.data(), body.size());
    WalRecord record;
    if (Status s = decode_wal_record(r, &record); !s.is_ok())
      return Status::invalid_argument("registry wal " + wal_path() + ": " +
                                      s.message());
    switch (record.type) {
      case WalRecord::Type::kEnroll:
      case WalRecord::Type::kEnrollTagged: {
        const std::uint64_t id = record.entry.id;
        next_id_ = std::max(next_id_, id + 1);
        entries_[id] = std::move(record.entry);
        break;
      }
      case WalRecord::Type::kRevoke: {
        const auto it = entries_.find(record.entry.id);
        if (it == entries_.end())
          return Status::invalid_argument(
              "registry wal " + wal_path() + ": revoke of unknown device " +
              std::to_string(record.entry.id));
        it->second.revoked = true;
        break;
      }
    }
    ++recovery_stats_.wal_records;
    ++wal_records_since_snapshot_;
    offset += consumed;
  }
  // Everything up to `offset` replayed cleanly; a torn tail (if any) was
  // truncated above, so `offset` is the committed WAL length.
  wal_len_ = offset;
  wal_epoch_ = fresh_wal_epoch();

  open_ = true;
  return Status::ok();
}

bool DeviceRegistry::is_open() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return open_;
}

util::Status DeviceRegistry::append_record_locked(const WalRecord& record) {
  const std::vector<std::uint8_t> frame = frame_record(record);

  // A previously failed append may have left partial or un-fsynced bytes
  // past wal_len_.  Appending after them would bury the garbage mid-file,
  // turning recovery's benign torn-tail case into hard kCorrupt — so roll
  // the file back to the last committed length first.
  if (wal_dirty_) {
    std::error_code ec;
    fs::resize_file(wal_path(), wal_len_, ec);
    if (ec)
      return Status::internal("wal rollback to " + std::to_string(wal_len_) +
                              " bytes: " + ec.message());
    wal_dirty_ = false;
  }

  // Disk-full injection point: fails before a single byte is written, so
  // the caller sees a typed, retryable error and state is untouched.
  if (util::FaultHooks::consume_registry_append_failure())
    return Status::unavailable("injected wal append failure (disk full)");

  Fd fd(::open(wal_path().c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
               0644));
  if (!fd.ok())
    return Status::internal("cannot open " + wal_path() + ": " +
                            std::strerror(errno));

  // Crash-recovery tests arm this hook to leave a deterministic torn
  // tail: only the first `torn` bytes of the frame reach the file, then
  // the append fails exactly as a mid-write crash would.
  const int torn = util::FaultHooks::consume_registry_torn_write(frame.size());
  if (torn >= 0) {
    const std::size_t n =
        std::min(frame.size(), static_cast<std::size_t>(torn));
    (void)write_all(fd.fd, frame.data(), n);
    wal_dirty_ = true;
    return Status::internal("injected torn write after " +
                            std::to_string(n) + " bytes");
  }

  if (!write_all(fd.fd, frame.data(), frame.size())) {
    wal_dirty_ = true;
    return Status::internal("cannot append to " + wal_path() + ": " +
                            std::strerror(errno));
  }
  // The record is committed only once it is on stable storage; a failed
  // fsync means the bytes may evaporate, so treat them as never written.
  if (Status s = fsync_durable(fd.fd, wal_path()); !s.is_ok()) {
    wal_dirty_ = true;
    return s;
  }
  wal_len_ += frame.size();
  return Status::ok();
}

util::Status DeviceRegistry::enroll(const EnrollRequest& request,
                                    std::uint64_t* id_out) {
  const backend::PufBackend* impl = backend::find_backend(request.backend);
  if (impl == nullptr)
    return Status::invalid_argument("enroll: unknown backend");
  if (Status s = impl->validate_geometry(request.node_count,
                                         request.grid_size);
      !s.is_ok())
    return s;
  // Checked before fabricating (fail fast) and again at publish (another
  // enroll may have taken the id, or the registry closed, meanwhile).
  // Explicit ids come from gateway routing: the id the client hashed on
  // must be the id stored, and a collision is the client's error, never a
  // silent overwrite of another device's published model.
  const auto admit_locked = [&]() -> Status {
    if (!open_) return Status::internal("registry not open");
    if (request.device_id != 0 && entries_.count(request.device_id) != 0)
      return Status::invalid_argument(
          "device " + std::to_string(request.device_id) +
          " is already enrolled");
    return Status::ok();
  };
  std::shared_ptr<circuit::SymbolicCache> symbolic_cache;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (Status s = admit_locked(); !s.is_ok()) return s;
    // The fleet-level symbolic cache gives max-flow enrollments
    // circuit-analysis reuse; backends without a circuit stage ignore it
    // (so it is only created for the backends that use it).
    if (request.backend == backend::BackendKind::kMaxFlow &&
        enroll_symbolic_cache_ == nullptr)
      enroll_symbolic_cache_ = std::make_shared<circuit::SymbolicCache>();
    symbolic_cache = enroll_symbolic_cache_;
  }

  // Fabricate the instance and extract its public model — enrollment *is*
  // the publish step of the PPUF lifecycle.  This is nearly all of an
  // enroll's time, so it runs without mutex_: reads, revokes and other
  // enrolls proceed meanwhile.
  backend::FabricateRequest fab;
  fab.node_count = request.node_count;
  fab.grid_size = request.grid_size;
  fab.seed = request.seed;
  std::vector<std::uint8_t> model_bytes;
  if (Status s = impl->fabricate(fab, symbolic_cache, &model_bytes);
      !s.is_ok())
    return s;

  // Max-flow devices keep the untagged pre-backend record type, so an
  // all-max-flow fleet's WAL stays byte-identical to the old format.
  WalRecord record;
  record.type = request.backend == backend::BackendKind::kMaxFlow
                    ? WalRecord::Type::kEnroll
                    : WalRecord::Type::kEnrollTagged;
  record.entry.nodes = static_cast<std::uint32_t>(request.node_count);
  record.entry.grid = static_cast<std::uint32_t>(request.grid_size);
  record.entry.label = request.label;
  record.entry.revoked = false;
  record.entry.backend = request.backend;
  record.entry.model_bytes = std::move(model_bytes);

  std::lock_guard<std::mutex> lock(mutex_);
  const PublishOnExit publish{*this};
  if (Status s = admit_locked(); !s.is_ok()) return s;
  // The id is assigned in the same lock hold as the WAL append, so WAL
  // order is id order however the fabrications interleaved.
  record.entry.id = request.device_id != 0 ? request.device_id : next_id_;
  // WAL first, memory second: state the process acknowledges is state a
  // restart will reconstruct.
  if (Status s = append_record_locked(record); !s.is_ok()) return s;
  const std::uint64_t id = record.entry.id;
  entries_[id] = std::move(record.entry);
  next_id_ = std::max(next_id_, id + 1);
  ++wal_records_since_snapshot_;
  if (id_out != nullptr) *id_out = id;
  counters_.add(kEnrolls);

  // Auto-compaction is best-effort: the enroll is already durable in the
  // WAL, so a failed snapshot must not make it look failed.
  if (options_.auto_compact_records > 0 &&
      wal_records_since_snapshot_ >= options_.auto_compact_records)
    (void)compact_locked();
  return Status::ok();
}

util::Status DeviceRegistry::revoke(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const PublishOnExit publish{*this};
  if (!open_) return Status::internal("registry not open");
  const auto it = entries_.find(id);
  if (it == entries_.end())
    return Status::not_found("device " + std::to_string(id) +
                             " is not enrolled");
  if (it->second.revoked) return Status::ok();  // idempotent
  WalRecord record;
  record.type = WalRecord::Type::kRevoke;
  record.entry.id = id;
  if (Status s = append_record_locked(record); !s.is_ok()) return s;
  it->second.revoked = true;
  bump_liveness_locked();
  ++wal_records_since_snapshot_;
  counters_.add(kRevokes);
  if (options_.auto_compact_records > 0 &&
      wal_records_since_snapshot_ >= options_.auto_compact_records)
    (void)compact_locked();
  return Status::ok();
}

bool DeviceRegistry::contains(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(id) != 0;
}

bool DeviceRegistry::active(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(id);
  return it != entries_.end() && !it->second.revoked;
}

util::Status DeviceRegistry::load_model(std::uint64_t id,
                                        SimulationModel* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(id);
  if (it == entries_.end())
    return Status::not_found("device " + std::to_string(id) +
                             " is not enrolled");
  if (it->second.backend != backend::BackendKind::kMaxFlow)
    return Status::invalid_argument(
        "device " + std::to_string(id) + " is not a max-flow device (" +
        backend::backend_name(it->second.backend) + ")");
  protocol::codec::Reader r(it->second.model_bytes.data(),
                            it->second.model_bytes.size());
  if (Status s = protocol::codec::decode_sim_model(r, out); !s.is_ok())
    return Status::internal("device " + std::to_string(id) +
                            " model blob: " + s.message());
  if (!r.exhausted())
    return Status::internal("device " + std::to_string(id) +
                            " model blob: trailing bytes");
  return Status::ok();
}

util::Status DeviceRegistry::load_entry(
    std::uint64_t id, backend::BackendKind* kind,
    std::vector<std::uint8_t>* model_bytes) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(id);
  if (it == entries_.end())
    return Status::not_found("device " + std::to_string(id) +
                             " is not enrolled");
  *kind = it->second.backend;
  *model_bytes = it->second.model_bytes;
  return Status::ok();
}

std::vector<DeviceInfo> DeviceRegistry::list() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<DeviceInfo> out;
  out.reserve(entries_.size());
  for (const auto& [id, e] : entries_)
    out.push_back(
        DeviceInfo{id, e.nodes, e.grid, e.label, e.revoked, e.backend});
  return out;
}

util::Status DeviceRegistry::compact() {
  std::lock_guard<std::mutex> lock(mutex_);
  const PublishOnExit publish{*this};
  if (!open_) return Status::internal("registry not open");
  return compact_locked();
}

util::Status DeviceRegistry::compact_locked() {
  SnapshotBody snapshot;
  snapshot.next_id = next_id_;
  snapshot.entries.reserve(entries_.size());
  for (const auto& [id, e] : entries_) snapshot.entries.push_back(e);
  const std::vector<std::uint8_t> image = frame_snapshot(snapshot);

  // Temp-then-rename so a crash mid-compaction leaves the old snapshot
  // intact; rename within one directory is atomic on POSIX.  The .tmp is
  // fsynced *before* the rename — otherwise the rename can become durable
  // while the file contents do not, and a crash surfaces an empty or
  // truncated snapshot under the final name.
  const std::string tmp = snapshot_path() + ".tmp";
  {
    Fd fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644));
    if (!fd.ok())
      return Status::internal("cannot open " + tmp + ": " +
                              std::strerror(errno));
    if (!write_all(fd.fd, image.data(), image.size()))
      return Status::internal("cannot write " + tmp + ": " +
                              std::strerror(errno));
    // On failure the stale .tmp stays behind; open() removes it during
    // the next recovery, and the old snapshot + WAL remain authoritative.
    if (Status s = fsync_durable(fd.fd, tmp); !s.is_ok()) return s;
  }
  if (util::FaultHooks::consume_registry_rename_failure())
    return Status::internal("injected rename failure for " + tmp);
  std::error_code ec;
  fs::rename(tmp, snapshot_path(), ec);
  if (ec)
    return Status::internal("rename " + tmp + ": " + ec.message());
  // The rename is durable only once the directory entry is; if this
  // fails the WAL is left untouched and replay over the (possibly old,
  // possibly new) snapshot is idempotent either way.
  if (Status s = fsync_directory(directory_); !s.is_ok()) return s;

  // Only now is the WAL redundant.
  {
    Fd wfd(::open(wal_path().c_str(),
                  O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
    if (!wfd.ok())
      return Status::internal("cannot truncate " + wal_path() + ": " +
                              std::strerror(errno));
    // The truncate took effect the moment the open succeeded, so the
    // committed length is 0 from here on even if the fsync below fails
    // (an unpersisted truncate just means replay sees snapshot + old
    // WAL, which is idempotent).
    wal_len_ = 0;
    wal_dirty_ = false;
    if (Status s = fsync_durable(wfd.fd, wal_path()); !s.is_ok()) return s;
  }
  wal_records_since_snapshot_ = 0;
  // Compaction rewrote history: old offsets no longer name the same
  // bytes, so standbys must re-bootstrap.
  wal_epoch_ = fresh_wal_epoch();
  counters_.add(kCompactions);
  return Status::ok();
}

DeviceRegistry::Stats DeviceRegistry::stats() const {
  return Stats{counters_.value(kEnrolls), counters_.value(kRevokes),
               counters_.value(kCompactions)};
}

DeviceRegistry::RecoveryStats DeviceRegistry::recovery_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recovery_stats_;
}

void DeviceRegistry::publish_locked() {
  device_count_.store(entries_.size(), std::memory_order_release);
  // Seqlock write (mutex_ makes this the only writer): odd while the pair
  // is being rewritten, so a reader never pairs one epoch with another's
  // offset.
  const std::uint64_t seq = wal_seq_.load(std::memory_order_relaxed);
  wal_seq_.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  published_wal_epoch_.store(wal_epoch_, std::memory_order_relaxed);
  published_wal_len_.store(wal_len_, std::memory_order_relaxed);
  wal_seq_.store(seq + 2, std::memory_order_release);
}

DeviceRegistry::WalPosition DeviceRegistry::wal_position() const {
  for (;;) {
    const std::uint64_t before = wal_seq_.load(std::memory_order_acquire);
    const WalPosition pos{
        published_wal_epoch_.load(std::memory_order_relaxed),
        published_wal_len_.load(std::memory_order_relaxed)};
    std::atomic_thread_fence(std::memory_order_acquire);
    if ((before & 1) == 0 &&
        wal_seq_.load(std::memory_order_relaxed) == before)
      return pos;
  }
}

util::Status DeviceRegistry::read_wal_segment(
    std::uint64_t epoch, std::uint64_t offset, std::size_t max_bytes,
    std::vector<std::uint8_t>* out, bool* stale) const {
  out->clear();
  *stale = false;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!open_) return Status::internal("registry not open");
  if (epoch != wal_epoch_ || offset > wal_len_) {
    *stale = true;  // compaction or restart invalidated the position
    return Status::ok();
  }
  const std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(wal_len_ - offset, max_bytes));
  if (want == 0) return Status::ok();
  std::ifstream in(wal_path(), std::ios::binary);
  if (!in) return Status::internal("cannot open " + wal_path());
  in.seekg(static_cast<std::streamoff>(offset));
  out->resize(want);
  if (!in.read(reinterpret_cast<char*>(out->data()),
               static_cast<std::streamsize>(want)))
    return Status::internal("cannot read " + wal_path());
  return Status::ok();
}

util::Status DeviceRegistry::export_bootstrap(
    std::vector<std::uint8_t>* image, WalPosition* pos) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!open_) return Status::internal("registry not open");
  SnapshotBody snapshot;
  snapshot.next_id = next_id_;
  snapshot.entries.reserve(entries_.size());
  for (const auto& [id, e] : entries_) snapshot.entries.push_back(e);
  *image = frame_snapshot(snapshot);
  // The in-memory state already reflects every committed WAL record, so
  // the image folds the log up to exactly wal_len_.
  *pos = WalPosition{wal_epoch_, wal_len_};
  return Status::ok();
}

util::Status DeviceRegistry::install_bootstrap(
    const std::vector<std::uint8_t>& image) {
  std::lock_guard<std::mutex> lock(mutex_);
  const PublishOnExit publish{*this};
  if (!open_) return Status::internal("registry not open");
  SnapshotBody snapshot;
  if (Status s = parse_snapshot(image.data(), image.size(), &snapshot);
      !s.is_ok())
    return Status::invalid_argument("bootstrap image: " + s.message());
  entries_.clear();
  for (DeviceEntry& e : snapshot.entries) {
    const std::uint64_t id = e.id;
    entries_[id] = std::move(e);
  }
  bump_liveness_locked();  // the whole device set was replaced
  next_id_ = std::max<std::uint64_t>(snapshot.next_id, 1);
  // Persist the installed state the same way compaction does (snapshot
  // write + WAL truncate), so a standby restart recovers it.
  return compact_locked();
}

util::Status DeviceRegistry::apply_wal_bytes(const std::uint8_t* data,
                                             std::size_t size,
                                             std::size_t* consumed) {
  *consumed = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  const PublishOnExit publish{*this};
  if (!open_) return Status::internal("registry not open");
  std::size_t offset = 0;
  while (offset < size) {
    std::size_t used = 0;
    std::vector<std::uint8_t> body;
    std::string error;
    const ExtractStatus es = extract_record(data + offset, size - offset,
                                            &used, &body, &error);
    if (es == ExtractStatus::kNeedMore) break;  // partial record: keep it
    if (es == ExtractStatus::kCorrupt)
      return Status::invalid_argument("replicated wal: " + error);
    protocol::codec::Reader r(body.data(), body.size());
    WalRecord record;
    if (Status s = decode_wal_record(r, &record); !s.is_ok())
      return Status::invalid_argument("replicated wal: " + s.message());
    // Durability first, memory second — the same invariant as enroll():
    // a record the standby has applied is a record its restart replays.
    if (Status s = append_raw_locked(data + offset, used); !s.is_ok())
      return s;
    switch (record.type) {
      case WalRecord::Type::kEnroll:
      case WalRecord::Type::kEnrollTagged: {
        const std::uint64_t id = record.entry.id;
        next_id_ = std::max(next_id_, id + 1);
        entries_[id] = std::move(record.entry);
        break;
      }
      case WalRecord::Type::kRevoke: {
        const auto it = entries_.find(record.entry.id);
        if (it == entries_.end())
          return Status::invalid_argument(
              "replicated wal: revoke of unknown device " +
              std::to_string(record.entry.id));
        it->second.revoked = true;
        bump_liveness_locked();
        break;
      }
    }
    ++wal_records_since_snapshot_;
    offset += used;
  }
  *consumed = offset;
  return Status::ok();
}

util::Status DeviceRegistry::append_raw_locked(const std::uint8_t* data,
                                               std::size_t size) {
  // Pre-framed record bytes from the primary; same rollback discipline as
  // append_record_locked, without the fault-injection hooks (those model
  // primary-side enrollment failures).
  if (wal_dirty_) {
    std::error_code ec;
    fs::resize_file(wal_path(), wal_len_, ec);
    if (ec)
      return Status::internal("wal rollback to " + std::to_string(wal_len_) +
                              " bytes: " + ec.message());
    wal_dirty_ = false;
  }
  Fd fd(::open(wal_path().c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
               0644));
  if (!fd.ok())
    return Status::internal("cannot open " + wal_path() + ": " +
                            std::strerror(errno));
  if (!write_all(fd.fd, data, size)) {
    wal_dirty_ = true;
    return Status::internal("cannot append to " + wal_path() + ": " +
                            std::strerror(errno));
  }
  if (::fsync(fd.fd) != 0) {
    wal_dirty_ = true;
    return Status::internal("fsync " + wal_path() + ": " +
                            std::strerror(errno));
  }
  wal_len_ += size;
  return Status::ok();
}

std::shared_ptr<circuit::SymbolicCache> DeviceRegistry::enroll_symbolic_cache()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return enroll_symbolic_cache_;
}

}  // namespace ppuf::registry
