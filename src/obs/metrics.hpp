// Lightweight metrics/tracing for the hot paths.
//
// The paper's security argument is quantitative — O(n) execution versus
// O(n^2+) simulation, cheap residual-BFS verification versus expensive
// solving — so every performance claim in this repo should be backed by a
// measurement, not an anecdote.  This subsystem provides the three
// primitives such measurements need:
//
//   - Counter:   monotonic, relaxed-atomic event count (augmentations,
//                Newton iterations, retries, cache hits).
//   - Gauge:     last-written value, for occupancy snapshots (cache shard
//                entries, charged bytes).
//   - Histogram: log2-bucketed value distribution with p50/p95/p99
//                (per-item batch latencies, per-solve wall time).
//
// All three live in a MetricsRegistry keyed by dotted metric names
// (`subsystem.component.metric`, timers suffixed `_us`; see DESIGN.md §11).
// The registry is thread-safe: name resolution takes a mutex (done once per
// solve or hoisted out of batch loops), recording is lock-free atomics.
//
// Cost when disabled is near zero BY CONSTRUCTION: a disabled registry
// resolves every name to a shared static dummy metric without touching the
// map (no allocation, no lock), ScopedTimer skips its clock reads
// entirely, and CounterSet::add skips its global counter.  Instrumented
// code therefore never needs #ifdefs — it asks the registry and gets
// either a real metric or the black hole.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>

namespace ppuf::obs {

/// Monotonic event counter.  All operations are relaxed atomics; exactness
/// under concurrency is guaranteed (fetch_add), ordering is not implied.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value; for snapshot-style measurements (occupancy) where
/// the current level, not the cumulative count, is the signal.
class Gauge {
 public:
  void set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Point-in-time view of a histogram.  Percentiles are estimated from the
/// log2 buckets by linear interpolation within the bucket, so their error
/// is bounded by the bucket width (a factor of two), and they are clamped
/// to the exact observed [min, max].
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Value distribution over log2 buckets: bucket 0 holds [0, 1), bucket b
/// holds [2^(b-1), 2^b).  Negative and NaN inputs are clamped to 0 rather
/// than dropped, so `count` always equals the number of record() calls.
class Histogram {
 public:
  void record(double value);
  HistogramSnapshot snapshot() const;
  void reset();

  static constexpr int kBucketCount = 64;

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{0.0};
};

/// Thread-safe registry of named metrics.  Metrics are created on first
/// use and live as long as the registry; returned references stay valid
/// (values are stored behind unique_ptr, reset() zeroes but never drops).
class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = true) : enabled_(enabled) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry used by the instrumented hot paths.
  /// DISABLED by default; services, tools and benches opt in with
  /// set_enabled(true).
  static MetricsRegistry& global();

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Find-or-create.  When the registry is disabled these return a shared
  /// static dummy (same object for every name): no allocation, no lock,
  /// and anything recorded into it is never reported.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Read-side accessors for tests and reporting; absent names read as
  /// zero / empty.
  std::uint64_t counter_value(std::string_view name) const;
  std::int64_t gauge_value(std::string_view name) const;
  HistogramSnapshot histogram_snapshot(std::string_view name) const;
  bool has_metric(std::string_view name) const;
  std::size_t metric_count() const;

  /// Zero every registered metric; registration (names, addresses) is
  /// preserved so hoisted pointers stay valid across epochs.
  void reset();

  /// Full snapshot as a JSON object:
  ///   {"counters": {...}, "gauges": {...},
  ///    "histograms": {"name": {"count": ..., "sum": ..., "min": ...,
  ///                            "max": ..., "p50": ..., "p95": ...,
  ///                            "p99": ...}}}
  /// Names are emitted in sorted order so snapshots diff cleanly.
  std::string to_json() const;

  /// Write to_json() to `path` (throws std::runtime_error on I/O failure).
  void write_json(const std::string& path) const;

 private:
  friend class CounterSet;  // registers its names even while disabled
  std::atomic<bool> enabled_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// One instance's event counters, named `<prefix>.<name>` and indexed by
/// the owner's enum in `names` order (one of the k*Events lists below).
/// add() bumps the instance counter and, while MetricsRegistry::global()
/// is enabled, the same-named global one, so a global count sums every
/// instance's enabled-time events.  The constructor registers the names
/// in the global registry, enabled or not, so add() never locks or
/// allocates: disabled, it is one relaxed fetch_add and one relaxed load.
class CounterSet {
 public:
  CounterSet(std::string_view prefix,
             std::span<const std::string_view> names);

  void add(std::size_t i, std::uint64_t delta = 1) {
    Slot& slot = slots_[i];
    slot.local.add(delta);
    if (global_.enabled()) slot.global->add(delta);
  }
  std::uint64_t value(std::size_t i) const { return slots_[i].local.value(); }
  /// Zero this instance's counts; the global counters keep their sums.
  void reset() {
    for (std::size_t i = 0; i < size_; ++i) slots_[i].local.reset();
  }

 private:
  struct Slot {
    Counter local;
    Counter* global = nullptr;
  };
  MetricsRegistry& global_;
  std::size_t size_;
  std::unique_ptr<Slot[]> slots_;
};

/// The events each serving component counts in its CounterSet, in the
/// order of the owner's index enum; register_standard_metrics registers
/// them all.  net::FrameServer, under its owner's prefix:
inline constexpr std::string_view kTransportEvents[] = {
    "connections_accepted", "connections_closed", "bytes_read",
    "bytes_written", "malformed_frames", "shutdown_rejections",
    "overloaded_rejections", "slow_peer_disconnects"};
/// server::AuthServer, `server`:
inline constexpr std::string_view kServerEvents[] = {
    "requests", "unknown_device_rejections", "coalesced_batches",
    "coalesced_items", "solo_dispatches", "enrolls_served",
    "wal_fetches_served", "loop_cache_hits"};
/// fleet::Gateway, `gateway`:
inline constexpr std::string_view kGatewayEvents[] = {
    "requests", "forwarded", "redirects_sent", "unavailable_rejections",
    "admin_requests", "pins_created", "health_probes", "dropped_inflight"};
/// registry::HydrationCache, `registry.hydration`:
inline constexpr std::string_view kHydrationEvents[] = {
    "hits", "misses", "single_flight_waits", "evictions"};
/// registry::DeviceRegistry, `registry`:
inline constexpr std::string_view kRegistryEvents[] = {
    "enrolls", "revokes", "compactions"};
/// ResponseCache, `ppuf.response_cache` (the same-named gauges are
/// publish_metrics() snapshots):
inline constexpr std::string_view kResponseCacheEvents[] = {
    "hits", "misses", "evictions"};
/// fleet::WalStandby, `standby`:
inline constexpr std::string_view kStandbyEvents[] = {
    "fetches", "bootstraps", "bytes_applied", "fetch_errors"};

/// RAII wall-clock timer recording MICROSECONDS into a histogram on
/// destruction.  With a null histogram (or a disabled registry) it does
/// nothing — not even read the clock.
class ScopedTimer {
 public:
  /// Records into `histogram` (may be null = disabled).  Use this form in
  /// batch loops where the name lookup is hoisted out.
  explicit ScopedTimer(Histogram* histogram) : histogram_(histogram) {
    if (histogram_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  /// Convenience form for once-per-solve call sites.
  ScopedTimer(MetricsRegistry& registry, std::string_view name)
      : ScopedTimer(registry.enabled() ? &registry.histogram(name)
                                       : nullptr) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (histogram_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->record(
        std::chrono::duration<double, std::micro>(elapsed).count());
  }

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_{};
};

/// Pre-register the canonical metric names of every instrumented subsystem
/// (all zero until first use).  Tools and benches call this right after
/// enabling the registry so exported snapshots always carry the full,
/// stable schema — a solver that happened not to run still shows up, as a
/// zero, instead of silently vanishing from the JSON.
void register_standard_metrics(MetricsRegistry& registry);

}  // namespace ppuf::obs
