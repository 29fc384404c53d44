// Bounded LRU of materialised devices with single-flight loading.
//
// The registry stores models as encoded blobs; serving needs them
// *materialised* — a backend::Device hydrated by the device's tagged
// backend (for max-flow, a SimulationModel plus a Verifier sized for it).
// Decoding a blob and configuring the verifier is the expensive,
// once-per-device step, and a popular device is asked for by many
// connections at once.  This cache makes that cheap and bounded:
//
//   - LRU over at most Options::max_entries materialised devices, so a
//     million-device registry serves from a working set, not from RAM
//     proportional to enrollment;
//   - single-flight: concurrent requests for the same *cold* device wait
//     on one hydration instead of decoding the same blob N times (the
//     classic cache-stampede fix);
//   - revocation-aware: each entry records the registry's liveness
//     generation (DeviceRegistry::liveness_generation) at which the
//     device was last checked active.  A hit whose generation is still
//     current is served without the registry; any other get() takes the
//     locked active() check first, so a device revoked after being cached
//     is evicted and refused.  Enrolls do not move the generation, so on
//     a registry that only grows every resident hit stays lock-free.
//
// A HydratedDevice is heap-allocated and never moved: backend devices
// hold internal references (the max-flow Verifier references its model),
// which stay valid for exactly as long as callers hold the shared_ptr —
// including after eviction, so inflight requests finish on the instance
// they resolved.
//
// Counts hits / misses / single-flight waits / evictions in its own
// obs::CounterSet (`registry.hydration.*`), beside an entries gauge and a
// load-time histogram.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "backend/backend.hpp"
#include "obs/metrics.hpp"
#include "ppuf/sim_model.hpp"
#include "protocol/authentication.hpp"
#include "registry/device_registry.hpp"
#include "util/status.hpp"

namespace ppuf::registry {

/// A device ready to serve: the backend::Device materialised from the
/// stored blob by its tagged backend.  Immutable after construction;
/// shared by reference count.
struct HydratedDevice {
  HydratedDevice(std::uint64_t id_, std::unique_ptr<backend::Device> device_)
      : id(id_), device(std::move(device_)) {}

  HydratedDevice(const HydratedDevice&) = delete;
  HydratedDevice& operator=(const HydratedDevice&) = delete;

  const std::uint64_t id;
  const std::unique_ptr<backend::Device> device;
};

class HydrationCache {
 public:
  struct Options {
    std::size_t max_entries = 8;  ///< clamped to >= 1
    /// Verifier configuration, applied per device: the absolute flow
    /// tolerance is flow_tolerance_fraction * model.mean_capacity().
    double verifier_deadline_seconds = 1.0;
    double flow_tolerance_fraction = 0.10;
  };

  /// `registry` must outlive the cache.
  HydrationCache(const DeviceRegistry& registry, const Options& options);

  /// The materialised device, hydrating on a cold miss.  kNotFound when
  /// the id is unknown *or revoked* — the caller cannot tell the two
  /// apart, which is deliberate: a revoked id must look exactly as dead
  /// as one that never existed.
  util::Status get(std::uint64_t id,
                   std::shared_ptr<const HydratedDevice>* out);

  /// The resident device when its entry's generation is current, else
  /// null.  Never loads, never waits on a single-flight slot and never
  /// takes the registry's mutex (it reads only the atomic generation), so
  /// an event-loop thread may call it.  A found entry moves to the LRU
  /// front; nothing is counted, because the caller either answers without
  /// resolving or falls back to get(), which counts.
  std::shared_ptr<const HydratedDevice> peek(std::uint64_t id);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;            ///< cold loads performed
    std::uint64_t single_flight_waits = 0;  ///< requests that joined a load
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
  };
  Stats stats() const;

  std::size_t max_entries() const { return max_entries_; }

 private:
  struct Slot {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    util::Status status;
    std::shared_ptr<const HydratedDevice> device;
  };

  struct Entry {
    std::uint64_t id;
    std::shared_ptr<const HydratedDevice> device;
    /// Registry liveness generation read before the active() check that
    /// last vouched for this device.
    std::uint64_t generation;
  };

  const DeviceRegistry& registry_;
  Options options_;
  std::size_t max_entries_;

  mutable std::mutex mutex_;
  /// Most recently used at the front.
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Slot>> inflight_;

  /// Indices into counters_ (obs::kHydrationEvents).
  enum Event : std::size_t {
    kHits, kMisses, kSingleFlightWaits, kEvictions, kEventCount
  };
  static_assert(std::size(obs::kHydrationEvents) == kEventCount);
  obs::CounterSet counters_;
};

}  // namespace ppuf::registry
