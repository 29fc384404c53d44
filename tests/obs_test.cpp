// Unit tests for the obs metrics subsystem (src/obs/metrics.hpp).
//
// The layer's contract has two halves that both need teeth:
//   1. Enabled: counters are exact under concurrency, histograms bound
//      their percentile error by the log2 bucket width, JSON snapshots
//      round-trip the registry contents.
//   2. Disabled: the hot-path calls (counter()/gauge()/histogram(),
//      ScopedTimer) allocate nothing and register nothing — the layer's
//      "near-zero cost when off" claim, checked with a counting
//      operator new rather than taken on faith.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

// Counting global operator new: lets the disabled-mode test assert "zero
// allocations happened here".  Delegates straight to malloc/free; gtest and
// the enabled-mode tests allocate freely through it.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ppuf::obs {
namespace {

TEST(ObsMetrics, CounterBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, GaugeSetAndAdd) {
  Gauge g;
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(ObsMetrics, ConcurrentCounterIncrementsAreExact) {
  // Relaxed atomics must still be EXACT: fetch_add loses nothing.  Run
  // enough increments from enough threads that a torn non-atomic counter
  // would essentially never pass.  (Also the TSan meat of this suite.)
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsMetrics, HistogramTracksCountSumMinMax) {
  Histogram h;
  h.record(3.0);
  h.record(5.0);
  h.record(100.0);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 108.0);
  EXPECT_DOUBLE_EQ(s.min, 3.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 36.0);
}

TEST(ObsMetrics, HistogramPercentilesWithinBucketErrorBound) {
  // 1..1000 uniformly: exact p50 = 500, p95 = 950, p99 = 990.  The log2
  // buckets bound the estimate by a factor of two around the true value;
  // assert generous brackets rather than chasing interpolation details.
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.record(static_cast<double>(v));
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_GE(s.p50, 250.0);
  EXPECT_LE(s.p50, 1000.0);
  EXPECT_GE(s.p95, 475.0);
  EXPECT_LE(s.p95, 1000.0);
  EXPECT_GE(s.p99, 495.0);
  EXPECT_LE(s.p99, 1000.0);
  // Percentiles are ordered and clamped to the observed range.
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_GE(s.p50, s.min);
  EXPECT_LE(s.p99, s.max);
}

TEST(ObsMetrics, HistogramClampsNegativeAndNanToZero) {
  Histogram h;
  h.record(-7.0);
  h.record(std::nan(""));
  h.record(2.0);
  const HistogramSnapshot s = h.snapshot();
  // Nothing dropped: count equals record() calls.
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 2.0);
}

TEST(ObsMetrics, RegistryReturnsStableReferences) {
  MetricsRegistry reg(/*enabled=*/true);
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(reg.counter_value("x.count"), 3u);
  // Same name, different kind: independent metrics.
  reg.gauge("x.count").set(9);
  EXPECT_EQ(reg.counter_value("x.count"), 3u);
  EXPECT_EQ(reg.gauge_value("x.count"), 9);
}

TEST(ObsMetrics, ResetZeroesValuesButKeepsRegistration) {
  MetricsRegistry reg(/*enabled=*/true);
  Counter& c = reg.counter("a.b");
  c.add(5);
  reg.histogram("a.h").record(1.0);
  reg.reset();
  EXPECT_EQ(reg.counter_value("a.b"), 0u);
  EXPECT_EQ(reg.histogram_snapshot("a.h").count, 0u);
  EXPECT_TRUE(reg.has_metric("a.b"));
  // The pre-reset reference is still the live metric (hoisted pointers in
  // batch loops survive epochs).
  c.add(2);
  EXPECT_EQ(reg.counter_value("a.b"), 2u);
}

TEST(ObsMetrics, DisabledRegistryAllocatesNothing) {
  MetricsRegistry reg(/*enabled=*/false);
  // Warm up any lazily-created dummies before counting.
  reg.counter("warmup").add();
  reg.gauge("warmup").set(1);
  reg.histogram("warmup").record(1.0);
  // A CounterSet allocates when built; its add() on the disabled global
  // registry must not.
  ASSERT_FALSE(MetricsRegistry::global().enabled());
  constexpr std::string_view kEvents[] = {"event"};
  CounterSet set("hot.path.set", kEvents);

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 100; ++i) {
    reg.counter("hot.path.counter").add();
    reg.gauge("hot.path.gauge").set(i);
    reg.histogram("hot.path.histogram").record(1.5);
    ScopedTimer timer(reg, "hot.path.timer_us");
    set.add(0);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(set.value(0), 100u);
  EXPECT_EQ(MetricsRegistry::global().counter_value("hot.path.set.event"),
            0u);
  // Nothing registered either: disabled lookups never touch the map.
  EXPECT_EQ(reg.metric_count(), 0u);
}

TEST(ObsMetrics, CounterSetMirrorsIntoGlobalOnlyWhileEnabled) {
  MetricsRegistry& global = MetricsRegistry::global();
  constexpr std::string_view kEvents[] = {"hits", "misses"};
  CounterSet first("set.test", kEvents), second("set.test", kEvents);
  first.add(0);  // disabled: instance only
  global.set_enabled(true);
  first.add(0, 2);
  first.add(1);
  second.add(0, 5);
  global.set_enabled(false);
  second.add(1);  // disabled again: instance only

  EXPECT_EQ(first.value(0), 3u);
  EXPECT_EQ(first.value(1), 1u);
  EXPECT_EQ(second.value(0), 5u);
  EXPECT_EQ(second.value(1), 1u);
  EXPECT_EQ(global.counter_value("set.test.hits"), 7u);
  EXPECT_EQ(global.counter_value("set.test.misses"), 1u);
}

TEST(ObsMetrics, ScopedTimerRecordsElapsedMicroseconds) {
  MetricsRegistry reg(/*enabled=*/true);
  {
    ScopedTimer timer(reg, "t.us");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const HistogramSnapshot s = reg.histogram_snapshot("t.us");
  ASSERT_EQ(s.count, 1u);
  // Sleeps only guarantee a lower bound.
  EXPECT_GE(s.min, 5000.0 * 0.5);
}

TEST(ObsMetrics, ScopedTimerOnDisabledRegistryRecordsNothing) {
  MetricsRegistry reg(/*enabled=*/false);
  { ScopedTimer timer(reg, "t.us"); }
  reg.set_enabled(true);
  EXPECT_FALSE(reg.has_metric("t.us"));
}

// Minimal JSON reader for the snapshot round-trip: enough to pull a
// numeric field out of {"counters": {...}, ...} without a JSON dependency.
double json_number_at(const std::string& json, const std::string& key) {
  const std::string quoted = "\"" + key + "\":";
  const std::size_t at = json.find(quoted);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << json;
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + quoted.size(), nullptr);
}

TEST(ObsMetrics, JsonSnapshotRoundTripsValues) {
  MetricsRegistry reg(/*enabled=*/true);
  reg.counter("c.one").add(7);
  reg.gauge("g.level").set(-3);
  Histogram& h = reg.histogram("h.lat_us");
  h.record(10.0);
  h.record(30.0);

  const std::string json = reg.to_json();
  EXPECT_DOUBLE_EQ(json_number_at(json, "c.one"), 7.0);
  EXPECT_DOUBLE_EQ(json_number_at(json, "g.level"), -3.0);
  // Histogram object fields appear after its name.
  const std::size_t hat = json.find("\"h.lat_us\"");
  ASSERT_NE(hat, std::string::npos);
  const std::string tail = json.substr(hat);
  EXPECT_DOUBLE_EQ(json_number_at(tail, "count"), 2.0);
  EXPECT_DOUBLE_EQ(json_number_at(tail, "sum"), 40.0);
  EXPECT_DOUBLE_EQ(json_number_at(tail, "min"), 10.0);
  EXPECT_DOUBLE_EQ(json_number_at(tail, "max"), 30.0);
  // The three sections always exist, even when empty.
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(ObsMetrics, StandardMetricsPreRegisterTheFullSchema) {
  // Snapshots from tools/benches must always carry the canonical names,
  // as zeros, even when the command never exercised that subsystem.
  MetricsRegistry reg(/*enabled=*/true);
  register_standard_metrics(reg);
  for (const char* name :
       {"maxflow.dinic.solves", "maxflow.push_relabel.discharges",
        "circuit.dc.newton_iterations", "ppuf.network_solver.solves",
        "protocol.verify_batch.rejected", "ppuf.predict_batch.cache_hits",
        "protocol.verify_batch.accepted"}) {
    EXPECT_TRUE(reg.has_metric(name)) << name;
    EXPECT_EQ(reg.counter_value(name), 0u) << name;
  }
  for (const char* name :
       {"maxflow.dinic.solve_time_us", "circuit.dc.iterations_per_solve",
        "maxflow.push_relabel.solve_time_us", "ppuf.predict_batch.item_time_us",
        "protocol.verify_batch.item_time_us"}) {
    EXPECT_TRUE(reg.has_metric(name)) << name;
    EXPECT_EQ(reg.histogram_snapshot(name).count, 0u) << name;
  }
  EXPECT_TRUE(reg.has_metric("ppuf.response_cache.hits"));
  // On a disabled registry the call is a no-op.
  MetricsRegistry off(/*enabled=*/false);
  register_standard_metrics(off);
  EXPECT_EQ(off.metric_count(), 0u);
}

TEST(ObsMetrics, ConcurrentRegistryAccessIsSafe) {
  // Several threads resolving overlapping names while recording: the map
  // mutex covers creation, the metrics themselves are lock-free.
  MetricsRegistry reg(/*enabled=*/true);
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      const std::string own = "thread." + std::to_string(t);
      for (int i = 0; i < kIters; ++i) {
        reg.counter("shared.counter").add();
        reg.counter(own).add();
        reg.histogram("shared.hist").record(static_cast<double>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.counter_value("shared.counter"),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.histogram_snapshot("shared.hist").count,
            static_cast<std::uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.counter_value("thread." + std::to_string(t)),
              static_cast<std::uint64_t>(kIters));
  }
}

}  // namespace
}  // namespace ppuf::obs
