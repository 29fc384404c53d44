#include "fleet/standby.hpp"

#include <chrono>

#include "net/client.hpp"
#include "net/wire.hpp"

namespace ppuf::fleet {

using util::Status;

WalStandby::WalStandby(StandbyOptions options)
    : options_(std::move(options)) {}

WalStandby::~WalStandby() { stop(); }

util::Status WalStandby::start() {
  if (started_) return Status::invalid_argument("standby already started");
  if (Status s = registry_.open(options_.directory); !s.is_ok()) return s;
  // The local replica may hold state from a previous run of this standby,
  // but its epoch/offset describe the LOCAL log, not the primary's — the
  // cursor starts unknown and the first fetch bootstraps.  (Wasteful
  // after a clean restart, but always correct: the primary's epoch is a
  // random token this process has never seen.)
  started_ = true;
  stopping_.store(false, std::memory_order_relaxed);
  poll_thread_ = std::thread([this] { poll_loop(); });
  return Status::ok();
}

util::Status WalStandby::sync_once() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return fetch_pass_locked();
}

util::Status WalStandby::fetch_pass_locked() {
  net::ClientOptions copts;
  copts.connect_timeout_ms = options_.request_timeout_ms;
  copts.request_timeout_ms = options_.request_timeout_ms;
  copts.max_attempts = 1;
  // Replication must not couple into the serving path's shared endpoint
  // breakers (a standby hammering a dead primary is expected and local).
  copts.breaker_failure_threshold = 0;
  net::AuthClient client(options_.primary_host, options_.primary_port,
                         copts);
  const util::Deadline per_fetch = util::Deadline::unlimited();
  const auto failed = [this](Status s) {
    counters_.add(kFetchErrors);
    caught_up_ = false;
    return s;
  };
  for (;;) {
    net::WalFetchRequestBody req;
    req.epoch = epoch_;
    req.offset = offset_;
    req.max_bytes = options_.fetch_max_bytes;
    net::WalSegmentBody seg;
    if (Status s = client.wal_fetch(req, &seg, per_fetch); !s.is_ok())
      return failed(s);
    counters_.add(kFetches);
    if (seg.bootstrap != 0) {
      if (Status s = registry_.install_bootstrap(seg.bytes); !s.is_ok())
        return failed(s);
      counters_.add(kBootstraps);
      epoch_ = seg.epoch;
      offset_ = seg.next_offset;
      buffer_.clear();
      continue;  // tail the WAL from the snapshot's fold point
    }
    if (seg.bytes.empty()) {
      caught_up_ = true;
      return Status::ok();  // drained the primary
    }
    buffer_.insert(buffer_.end(), seg.bytes.begin(), seg.bytes.end());
    std::size_t consumed = 0;
    if (Status s = registry_.apply_wal_bytes(buffer_.data(), buffer_.size(),
                                             &consumed);
        !s.is_ok()) {
      // Corrupt shipped record: distrust the whole cursor and
      // re-bootstrap on the next pass (self-healing beats limping).
      epoch_ = 0;
      offset_ = 0;
      buffer_.clear();
      return failed(s);
    }
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed));
    // The cursor advances by RAW bytes shipped (buffered partial record
    // bytes included): the primary's offsets address its byte stream,
    // not record boundaries.
    offset_ += seg.bytes.size();
    counters_.add(kBytesApplied, consumed);
  }
}

void WalStandby::poll_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      // Errors are expected while the primary is down/restarting; the
      // loop just keeps polling (counted in standby.fetch_errors).
      (void)fetch_pass_locked();
    }
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(options_.poll_interval_ms);
    while (std::chrono::steady_clock::now() < until &&
           !stopping_.load(std::memory_order_relaxed))
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void WalStandby::stop() {
  stopping_.store(true, std::memory_order_relaxed);
  if (poll_thread_.joinable()) poll_thread_.join();
}

PromotionReport WalStandby::promote() {
  stop();
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (promoted_) return promotion_report_;
  promoted_ = true;
  promotion_report_.wal_epoch = epoch_;
  promotion_report_.wal_offset = offset_;
  promotion_report_.device_count = registry_.device_count();
  promotion_report_.fetches = counters_.value(kFetches);
  promotion_report_.bootstraps = counters_.value(kBootstraps);
  promotion_report_.caught_up = caught_up_;
  return promotion_report_;
}

WalStandby::Stats WalStandby::stats() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  Stats s;
  s.fetches = counters_.value(kFetches);
  s.bootstraps = counters_.value(kBootstraps);
  s.bytes_applied = counters_.value(kBytesApplied);
  s.fetch_errors = counters_.value(kFetchErrors);
  s.wal_epoch = epoch_;
  s.wal_offset = offset_;
  return s;
}

}  // namespace ppuf::fleet
