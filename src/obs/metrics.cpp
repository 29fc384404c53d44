#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace ppuf::obs {

namespace {

/// fetch_add for atomic<double> via CAS: std::atomic<double>::fetch_add is
/// C++20 but not yet lock-free everywhere; the CAS loop is portable and
/// contends only under simultaneous records on one histogram.
void atomic_add(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

/// Bucket index of a (clamped, non-negative) value: 0 for [0, 1), else
/// 1 + floor(log2 v), capped at the last bucket.
int bucket_index(double value) {
  if (value < 1.0) return 0;
  const int b = std::ilogb(value) + 1;
  return std::min(b, Histogram::kBucketCount - 1);
}

double bucket_lower(int b) {
  return b == 0 ? 0.0 : std::ldexp(1.0, b - 1);
}

double bucket_upper(int b) { return std::ldexp(1.0, b); }

/// JSON number formatting: integers print exactly, doubles with enough
/// digits to round-trip.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

void Histogram::record(double value) {
  // Clamp rather than drop: count always matches the record() call count,
  // and a negative/NaN input (clock skew, bad subtraction) is loud in the
  // min column instead of silently missing.
  if (!(value >= 0.0)) value = 0.0;
  buckets_[static_cast<std::size_t>(bucket_index(value))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
  atomic_min(min_, value);
  atomic_max(max_, value);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  std::array<std::uint64_t, kBucketCount> counts{};
  for (int b = 0; b < kBucketCount; ++b)
    counts[static_cast<std::size_t>(b)] =
        buckets_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
  // Derive count from the buckets (not count_) so a snapshot taken during
  // concurrent records is internally consistent with its percentiles.
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  s.count = total;
  if (total == 0) return s;
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);

  auto percentile = [&](double q) {
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    const std::uint64_t target = std::max<std::uint64_t>(1, rank);
    std::uint64_t cumulative = 0;
    for (int b = 0; b < kBucketCount; ++b) {
      const std::uint64_t c = counts[static_cast<std::size_t>(b)];
      if (cumulative + c >= target) {
        const double frac =
            static_cast<double>(target - cumulative) / static_cast<double>(c);
        const double lo = bucket_lower(b);
        const double hi = bucket_upper(b);
        return std::clamp(lo + frac * (hi - lo), s.min, s.max);
      }
      cumulative += c;
    }
    return s.max;
  };
  s.p50 = percentile(0.50);
  s.p95 = percentile(0.95);
  s.p99 = percentile(0.99);
  return s;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry(/*enabled=*/false);
  return registry;
}

namespace {

/// Shared black holes for disabled registries.  Static storage, so the
/// disabled path performs no allocation and no registry locking.
Counter& dummy_counter() {
  static Counter c;
  return c;
}
Gauge& dummy_gauge() {
  static Gauge g;
  return g;
}
Histogram& dummy_histogram() {
  static Histogram h;
  return h;
}

template <typename Map>
auto& find_or_create(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map
             .emplace(std::string(name),
                      std::make_unique<
                          typename Map::mapped_type::element_type>())
             .first;
  }
  return *it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  if (!enabled()) return dummy_counter();
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_create(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  if (!enabled()) return dummy_gauge();
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_create(gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  if (!enabled()) return dummy_histogram();
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_create(histograms_, name);
}

CounterSet::CounterSet(std::string_view prefix,
                       std::span<const std::string_view> names)
    : global_(MetricsRegistry::global()),
      size_(names.size()),
      slots_(std::make_unique<Slot[]>(names.size())) {
  std::lock_guard<std::mutex> lock(global_.mutex_);
  for (std::size_t i = 0; i < names.size(); ++i)
    slots_[i].global = &find_or_create(
        global_.counters_, std::string(prefix) + "." + std::string(names[i]));
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

std::int64_t MetricsRegistry::gauge_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second->value();
}

HistogramSnapshot MetricsRegistry::histogram_snapshot(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? HistogramSnapshot{}
                                 : it->second->snapshot();
}

bool MetricsRegistry::has_metric(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.find(name) != counters_.end() ||
         gauges_.find(name) != gauges_.end() ||
         histograms_.find(name) != histograms_.end();
}

std::size_t MetricsRegistry::metric_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": " << c->value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": " << g->value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot s = h->snapshot();
    os << (first ? "" : ",") << "\n    \"" << name << "\": {"
       << "\"count\": " << s.count << ", \"sum\": " << json_number(s.sum)
       << ", \"min\": " << json_number(s.min)
       << ", \"max\": " << json_number(s.max)
       << ", \"p50\": " << json_number(s.p50)
       << ", \"p95\": " << json_number(s.p95)
       << ", \"p99\": " << json_number(s.p99) << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

void MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("MetricsRegistry::write_json: cannot open " +
                             path);
  }
  out << to_json();
  if (!out) {
    throw std::runtime_error("MetricsRegistry::write_json: write failed: " +
                             path);
  }
}

void register_standard_metrics(MetricsRegistry& registry) {
  if (!registry.enabled()) return;

  // Max-flow solvers: one solve counter, one work counter and one
  // wall-time histogram each, plus the algorithm's own phase counters.
  static constexpr const char* kSolvers[] = {
      "maxflow.edmonds_karp", "maxflow.dinic", "maxflow.push_relabel",
      "maxflow.parallel_push_relabel", "maxflow.approximate"};
  for (const char* s : kSolvers) {
    const std::string prefix(s);
    registry.counter(prefix + ".solves");
    registry.counter(prefix + ".work");
    registry.histogram(prefix + ".solve_time_us");
  }
  registry.counter("maxflow.edmonds_karp.augmentations");
  registry.counter("maxflow.dinic.phases");
  registry.counter("maxflow.dinic.augmentations");
  registry.counter("maxflow.push_relabel.discharges");
  registry.counter("maxflow.push_relabel.relabels");
  registry.counter("maxflow.push_relabel.global_relabels");
  registry.counter("maxflow.parallel_push_relabel.rounds");
  registry.counter("maxflow.approximate.phases");
  registry.counter("maxflow.approximate.augmentations");

  // Newton solvers (device-level DC and network-level DC) share the
  // recovery-ladder shape.
  for (const char* prefix : {"circuit.dc", "ppuf.network_solver"}) {
    const std::string p(prefix);
    registry.counter(p + ".solves");
    registry.counter(p + ".newton_iterations");
    registry.counter(p + ".recoveries");
    registry.counter(p + ".failures");
    registry.histogram(p + ".iterations_per_solve");
    registry.histogram(p + ".solve_time_us");
    for (const char* rung :
         {"direct", "gmin-stepping", "source-stepping", "tightened-damping"}) {
      registry.counter(p + ".rung." + rung);
    }
  }

  // Batch fronts: per-item latency plus outcome counters.
  registry.counter("ppuf.predict_batch.items");
  registry.counter("ppuf.predict_batch.cache_hits");
  registry.counter("ppuf.predict_batch.item_failures");
  registry.histogram("ppuf.predict_batch.item_time_us");
  registry.counter("protocol.verify_batch.items");
  registry.counter("protocol.verify_batch.accepted");
  registry.counter("protocol.verify_batch.rejected");
  registry.histogram("protocol.verify_batch.item_time_us");

  // Response cache aggregate gauges (per-shard gauges appear once a cache
  // publishes; the aggregates are part of the stable schema).
  for (const char* g : {"hits", "misses", "evictions", "entries",
                        "charged_bytes", "shard_count"}) {
    registry.gauge(std::string("ppuf.response_cache.") + g);
  }

  // Every CounterSet's events.  The server (src/server) and the fleet
  // gateway (src/fleet) both run on net::FrameServer, whose transport
  // events and loop gauges each publishes under its own prefix.
  const auto events = [&registry](std::string_view prefix,
                                  std::span<const std::string_view> names) {
    for (const std::string_view name : names)
      registry.counter(std::string(prefix) + "." + std::string(name));
  };
  for (const std::string prefix : {"server", "gateway"}) {
    events(prefix, kTransportEvents);
    registry.gauge(prefix + ".inflight");
    registry.gauge(prefix + ".connections");
  }
  events("server", kServerEvents);
  events("gateway", kGatewayEvents);
  events("registry", kRegistryEvents);
  events("registry.hydration", kHydrationEvents);
  events("standby", kStandbyEvents);
  events("ppuf.response_cache", kResponseCacheEvents);
  registry.gauge("registry.hydration.entries");
  registry.histogram("registry.hydration.load_time_us");

  // Server per-type wall time, measured from dispatch to completion
  // enqueue.  PREDICT and VERIFY time under server.batch.request_us.
  for (const char* t : {"ping", "verify_batch", "challenge", "chained_auth",
                        "enroll", "wal_fetch"}) {
    registry.histogram(std::string("server.") + t + ".request_us");
  }

  // Cross-connection coalescing (DESIGN.md §16): batch shape and the wait
  // each flushed batch actually absorbed.
  registry.histogram("server.batch_size");
  registry.histogram("server.coalesce_wait_us");
  registry.histogram("server.batch.request_us");
}

}  // namespace ppuf::obs
