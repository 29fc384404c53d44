#include "ppuf/response_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace ppuf {

namespace {

/// FNV-1a over a byte range; good enough to spread keys across shards and
/// hash-map buckets, and dependency-free.
std::size_t fnv1a(const void* data, std::size_t size,
                  std::size_t seed = 14695981039346656037ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::size_t ResponseCache::KeyHash::operator()(const Key& k) const {
  std::size_t h = fnv1a(&k.device, sizeof(k.device));
  h = fnv1a(&k.source, sizeof(k.source), h);
  h = fnv1a(&k.sink, sizeof(k.sink), h);
  if (!k.bits.empty()) h = fnv1a(k.bits.data(), k.bits.size(), h);
  // Hash the value representation of the doubles: environments compare by
  // value, and distinct values must be free to land in distinct shards.
  const std::uint64_t vdd = std::bit_cast<std::uint64_t>(k.vdd_scale);
  const std::uint64_t temp = std::bit_cast<std::uint64_t>(k.temperature_c);
  h = fnv1a(&vdd, sizeof(vdd), h);
  h = fnv1a(&temp, sizeof(temp), h);
  return h;
}

struct ResponseCache::Shard {
  mutable std::mutex mutex;
  /// Most recently used at the front.
  std::list<std::pair<Key, CachedResponse>> lru;
  std::unordered_map<Key, std::list<std::pair<Key, CachedResponse>>::iterator,
                     KeyHash>
      index;
  std::size_t charged_bytes = 0;
};

ResponseCache::ResponseCache(std::size_t capacity_bytes, unsigned shard_count)
    : counters_("ppuf.response_cache", obs::kResponseCacheEvents),
      capacity_bytes_(capacity_bytes) {
  const unsigned n = std::max(1u, shard_count);
  per_shard_capacity_ = capacity_bytes_ / n;
  shards_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

ResponseCache::~ResponseCache() = default;

ResponseCache::Key ResponseCache::make_key(std::uint64_t device_id,
                                           const Challenge& challenge,
                                           const circuit::Environment& env) {
  Key k;
  k.device = device_id;
  k.source = challenge.source;
  k.sink = challenge.sink;
  k.bits = challenge.bits;
  k.vdd_scale = env.vdd_scale;
  k.temperature_c = env.temperature_c;
  return k;
}

std::size_t ResponseCache::entry_cost(const Key& key) {
  // The bit vector is held twice (map key + LRU node); 128 bytes covers
  // the node, bucket and iterator overhead.  An estimate, not an audit —
  // the budget is a throttle, not an allocator.
  return 2 * key.bits.size() + 128;
}

ResponseCache::Shard& ResponseCache::shard_for(const Key& key) {
  return *shards_[KeyHash{}(key) % shards_.size()];
}

std::optional<CachedResponse> ResponseCache::find(const Key& key) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return std::nullopt;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

std::optional<CachedResponse> ResponseCache::lookup(
    std::uint64_t device_id, const Challenge& challenge,
    const circuit::Environment& env) {
  std::optional<CachedResponse> hit =
      find(make_key(device_id, challenge, env));
  counters_.add(hit ? kHits : kMisses);
  return hit;
}

std::optional<CachedResponse> ResponseCache::probe(
    std::uint64_t device_id, const Challenge& challenge,
    const circuit::Environment& env) {
  std::optional<CachedResponse> hit =
      find(make_key(device_id, challenge, env));
  if (hit) counters_.add(kHits);
  return hit;
}

void ResponseCache::insert(std::uint64_t device_id,
                           const Challenge& challenge,
                           const circuit::Environment& env,
                           const CachedResponse& response) {
  Key key = make_key(device_id, challenge, env);
  const std::size_t cost = entry_cost(key);
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = response;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(std::move(key), response);
  shard.index.emplace(shard.lru.front().first, shard.lru.begin());
  shard.charged_bytes += cost;
  // Evict LRU-first until within budget; never evict the entry just
  // inserted (a single entry larger than the shard budget stays resident
  // until something displaces it).
  while (shard.charged_bytes > per_shard_capacity_ && shard.lru.size() > 1) {
    const auto& victim = shard.lru.back();
    shard.charged_bytes -= entry_cost(victim.first);
    shard.index.erase(victim.first);
    shard.lru.pop_back();
    counters_.add(kEvictions);
  }
}

void ResponseCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
    shard->charged_bytes = 0;
  }
  // Counters describe the entries' lifetime; once the entries are gone
  // the counts are about a cache that no longer exists.  Keeping them
  // would make post-clear hit_rate() blend two unrelated populations.
  counters_.reset();
}

ResponseCacheStats ResponseCache::stats() const {
  ResponseCacheStats total;
  total.hits = counters_.value(kHits);
  total.misses = counters_.value(kMisses);
  total.evictions = counters_.value(kEvictions);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total.entries += shard->lru.size();
    total.charged_bytes += shard->charged_bytes;
  }
  return total;
}

void ResponseCache::publish_metrics(obs::MetricsRegistry& registry,
                                    std::string_view prefix) const {
  if (!registry.enabled()) return;
  const std::string base(prefix);
  std::uint64_t entries = 0, charged = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::uint64_t shard_entries = 0, shard_charged = 0;
    {
      const auto& shard = *shards_[i];
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard_entries = shard.lru.size();
      shard_charged = shard.charged_bytes;
    }
    entries += shard_entries;
    charged += shard_charged;
    const std::string shard_base = base + ".shard." + std::to_string(i);
    registry.gauge(shard_base + ".entries")
        .set(static_cast<std::int64_t>(shard_entries));
    registry.gauge(shard_base + ".charged_bytes")
        .set(static_cast<std::int64_t>(shard_charged));
  }
  registry.gauge(base + ".hits")
      .set(static_cast<std::int64_t>(counters_.value(kHits)));
  registry.gauge(base + ".misses")
      .set(static_cast<std::int64_t>(counters_.value(kMisses)));
  registry.gauge(base + ".evictions")
      .set(static_cast<std::int64_t>(counters_.value(kEvictions)));
  registry.gauge(base + ".entries").set(static_cast<std::int64_t>(entries));
  registry.gauge(base + ".charged_bytes")
      .set(static_cast<std::int64_t>(charged));
  registry.gauge(base + ".shard_count")
      .set(static_cast<std::int64_t>(shards_.size()));
}

}  // namespace ppuf
