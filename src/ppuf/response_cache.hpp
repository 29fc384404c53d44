// Sharded, bounded LRU cache of CRP responses.
//
// Repeated challenges are not an edge case in this system: feedback-loop
// chains (Section 3.3) revisit prefix challenges, model-building attack
// datasets re-query anchor CRPs, and a verifier serving many holders of the
// same instance sees the same (challenge, environment) pairs again and
// again.  A response is a pure function of the instance, the challenge and
// the environment, so caching it is semantically invisible — the cache
// returns bit-for-bit what the solve would have produced.
//
// The KEY MUST INCLUDE THE ENVIRONMENT.  The same challenge under a hot
// die or a sagging rail can flip its response bit (that flip probability is
// exactly what bench_fig9 measures); a cache keyed on challenge bits alone
// would silently serve nominal-environment answers across environment
// sweeps and corrupt every reliability metric downstream.
//
// The KEY MUST ALSO INCLUDE THE DEVICE.  A multi-tenant server shares one
// cache across every enrolled device, and two devices routinely see the
// same (challenge, environment) pair with *different* response bits —
// that difference is the whole identity.  Callers without a registry
// identity pass kSingleDeviceId; what matters is that the id is explicit
// at every call site, so a cross-device leak cannot happen by omission.
//
// Concurrency: the key space is split across `shard_count` independent
// shards (chosen by key hash), each a mutex-guarded LRU list + hash map, so
// batch workers contend only when they touch the same shard.  Hits,
// misses and evictions are counted in the instance's obs::CounterSet
// (`ppuf.response_cache.*`), which stats() reads.
#pragma once

#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "circuit/env.hpp"
#include "obs/metrics.hpp"
#include "ppuf/challenge.hpp"

namespace ppuf {

/// Cache identity for callers operating on a single ad-hoc instance with
/// no registry-assigned device id (predict-batch, benches, attack
/// datasets).  Registry ids start at 1, so this can never collide.
inline constexpr std::uint64_t kSingleDeviceId = 0;

/// What the cache stores for one (device, challenge, environment): the
/// response bit and the two flow values that produced it.
struct CachedResponse {
  int bit = 0;
  double flow_a = 0.0;
  double flow_b = 0.0;
};

struct ResponseCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;       ///< live entries across all shards
  std::uint64_t charged_bytes = 0; ///< estimated bytes of live entries

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class ResponseCache {
 public:
  /// `capacity_bytes` bounds the estimated footprint of live entries
  /// (split evenly across shards); `shard_count` is clamped to >= 1.
  explicit ResponseCache(std::size_t capacity_bytes,
                         unsigned shard_count = 16);
  ~ResponseCache();

  ResponseCache(const ResponseCache&) = delete;
  ResponseCache& operator=(const ResponseCache&) = delete;

  /// The cached response, or nullopt on a miss.  A hit refreshes the
  /// entry's LRU position.  `device_id` partitions the key space per
  /// device (kSingleDeviceId when there is no registry identity).
  std::optional<CachedResponse> lookup(std::uint64_t device_id,
                                       const Challenge& challenge,
                                       const circuit::Environment& env);

  /// lookup() that counts only a hit.  For a caller that answers a hit
  /// itself and hands a miss on to a path that looks the key up again,
  /// so each request counts one hit or one miss.
  std::optional<CachedResponse> probe(std::uint64_t device_id,
                                      const Challenge& challenge,
                                      const circuit::Environment& env);

  /// Insert or overwrite.  Eviction happens immediately if the shard's
  /// byte budget is exceeded (least recently used first).
  void insert(std::uint64_t device_id, const Challenge& challenge,
              const circuit::Environment& env,
              const CachedResponse& response);

  /// Drops every entry AND zeroes the hit/miss/eviction counters: a
  /// cleared cache reports like a fresh one, so hit-rate measurements
  /// taken after a clear() are not polluted by pre-clear traffic.
  void clear();

  ResponseCacheStats stats() const;

  /// Mirror the current cache state into `registry` as gauges:
  /// `<prefix>.{hits,misses,evictions,entries,charged_bytes,shard_count}`
  /// plus per-shard occupancy `<prefix>.shard.<i>.{entries,charged_bytes}`.
  /// Snapshot-style (set, not add) so repeated publishes stay idempotent.
  /// No-op when the registry is disabled.
  void publish_metrics(
      obs::MetricsRegistry& registry,
      std::string_view prefix = "ppuf.response_cache") const;

  unsigned shard_count() const {
    return static_cast<unsigned>(shards_.size());
  }
  std::size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Key {
    std::uint64_t device = kSingleDeviceId;
    graph::VertexId source = 0;
    graph::VertexId sink = 0;
    std::vector<std::uint8_t> bits;
    double vdd_scale = 1.0;
    double temperature_c = 27.0;

    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  struct Shard;

  static Key make_key(std::uint64_t device_id, const Challenge& challenge,
                      const circuit::Environment& env);
  /// Estimated bytes one entry charges against the budget: the variable
  /// part (two copies of the bit vector — map key and LRU node) plus a
  /// fixed overhead for nodes, buckets and bookkeeping.
  static std::size_t entry_cost(const Key& key);

  Shard& shard_for(const Key& key);
  std::optional<CachedResponse> find(const Key& key);

  /// Indices into counters_ (obs::kResponseCacheEvents).
  enum Event : std::size_t { kHits, kMisses, kEvictions, kEventCount };
  static_assert(std::size(obs::kResponseCacheEvents) == kEventCount);
  obs::CounterSet counters_;

  std::size_t capacity_bytes_;
  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ppuf
