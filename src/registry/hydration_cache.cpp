#include "registry/hydration_cache.hpp"

#include <algorithm>

namespace ppuf::registry {

using util::Status;

HydrationCache::HydrationCache(const DeviceRegistry& registry,
                               const Options& options)
    : registry_(registry),
      options_(options),
      max_entries_(std::max<std::size_t>(1, options.max_entries)),
      counters_("registry.hydration", obs::kHydrationEvents) {}

util::Status HydrationCache::get(
    std::uint64_t id, std::shared_ptr<const HydratedDevice>* out) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Histogram* m_load_time =
      reg.enabled() ? &reg.histogram("registry.hydration.load_time_us")
                    : nullptr;

  // Read before the active() check below: an entry stamped with this
  // value is vouched for until a revoke (or replay) moves it on.
  const std::uint64_t generation = registry_.liveness_generation();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(id);
    if (it != index_.end() && it->second->generation == generation) {
      lru_.splice(lru_.begin(), lru_, it->second);
      counters_.add(kHits);
      *out = it->second->device;
      return Status::ok();
    }
  }

  // Policy before cache: a revoked device must be refused even while its
  // materialised instance is still resident.
  if (!registry_.active(id)) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(id);
    if (it != index_.end()) {
      lru_.erase(it->second);
      index_.erase(it);
      counters_.add(kEvictions);
    }
    return Status::not_found("device " + std::to_string(id) +
                             " is not enrolled or is revoked");
  }

  std::shared_ptr<Slot> slot;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(id);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      it->second->generation = generation;
      counters_.add(kHits);
      *out = it->second->device;
      return Status::ok();
    }
    auto [inflight_it, inserted] =
        inflight_.try_emplace(id, std::make_shared<Slot>());
    slot = inflight_it->second;
    leader = inserted;
    counters_.add(leader ? kMisses : kSingleFlightWaits);
  }

  if (!leader) {
    // Someone else is hydrating this device; wait for their result.
    std::unique_lock<std::mutex> lock(slot->mutex);
    slot->cv.wait(lock, [&] { return slot->done; });
    if (!slot->status.is_ok()) return slot->status;
    *out = slot->device;
    return Status::ok();
  }

  // Leader path: hydrate outside both locks so other devices keep moving.
  Status status;
  std::shared_ptr<const HydratedDevice> device;
  {
    obs::ScopedTimer timer(m_load_time);
    auto kind = backend::BackendKind::kMaxFlow;
    std::vector<std::uint8_t> model_bytes;
    status = registry_.load_entry(id, &kind, &model_bytes);
    if (status.is_ok()) {
      const backend::PufBackend* impl = backend::find_backend(kind);
      if (impl == nullptr) {
        // Unreachable through the registry (decode rejects unknown tags),
        // but a typed refusal beats materialising the wrong family.
        status = Status::invalid_argument(
            "device " + std::to_string(id) + " has an unknown backend");
      } else {
        backend::MaterializeOptions mopts;
        mopts.verifier_deadline_seconds = options_.verifier_deadline_seconds;
        mopts.flow_tolerance_fraction = options_.flow_tolerance_fraction;
        std::unique_ptr<backend::Device> dev;
        status = impl->materialize(model_bytes, mopts, &dev);
        if (status.is_ok())
          device = std::make_shared<const HydratedDevice>(id, std::move(dev));
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (status.is_ok()) {
      lru_.push_front(Entry{id, device, generation});
      index_[id] = lru_.begin();
      while (lru_.size() > max_entries_) {
        index_.erase(lru_.back().id);
        lru_.pop_back();
        counters_.add(kEvictions);
      }
    }
    inflight_.erase(id);
    if (reg.enabled())
      reg.gauge("registry.hydration.entries")
          .set(static_cast<std::int64_t>(lru_.size()));
  }
  {
    std::lock_guard<std::mutex> lock(slot->mutex);
    slot->status = status;
    slot->device = device;
    slot->done = true;
  }
  slot->cv.notify_all();

  if (!status.is_ok()) return status;
  *out = std::move(device);
  return Status::ok();
}

std::shared_ptr<const HydratedDevice> HydrationCache::peek(std::uint64_t id) {
  const std::uint64_t generation = registry_.liveness_generation();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(id);
  if (it == index_.end() || it->second->generation != generation)
    return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->device;
}

HydrationCache::Stats HydrationCache::stats() const {
  Stats s;
  s.hits = counters_.value(kHits);
  s.misses = counters_.value(kMisses);
  s.single_flight_waits = counters_.value(kSingleFlightWaits);
  s.evictions = counters_.value(kEvictions);
  std::lock_guard<std::mutex> lock(mutex_);
  s.entries = lru_.size();
  return s;
}

}  // namespace ppuf::registry
