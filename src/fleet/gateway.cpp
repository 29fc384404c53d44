#include "fleet/gateway.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "fleet/ring.hpp"
#include "net/client.hpp"
#include "net/frame_server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"

namespace ppuf::fleet {

namespace {

using net::error_frame;
using net::Frame;
using net::MessageType;
using net::WireCode;
using util::Status;

/// Idle backend sockets kept per shard; beyond this, checkin closes.
constexpr std::size_t kMaxIdlePerShard = 8;

}  // namespace

/// One backend shard.  The endpoint is immutable: re-pointing a name at a
/// new host (failover promotion) REPLACES the Shard object in the table,
/// so workers mid-round-trip keep the old object (and its sockets) alive
/// via shared_ptr and finish cleanly, while new work goes to the new
/// endpoint.  Ring placement never moves because the ring only knows the
/// name.
struct GatewayShard {
  GatewayShard(std::string name, std::string host, std::uint16_t port)
      : name(std::move(name)), host(std::move(host)), port(port) {}
  ~GatewayShard() {
    for (const int fd : idle_fds) ::close(fd);
  }

  const std::string name;
  const std::string host;
  const std::uint16_t port;

  // Health (written by the prober thread, read anywhere).
  std::atomic<bool> up{true};
  std::atomic<std::uint8_t> backend_draining{0};
  std::atomic<std::uint64_t> device_count{0};
  std::atomic<std::uint64_t> wal_epoch{0};
  std::atomic<std::uint64_t> wal_offset{0};
  int consecutive_failures = 0;   ///< prober thread only
  int consecutive_successes = 0;  ///< prober thread only

  // Lifecycle (guarded by the gateway's shard_mutex).
  bool draining = false;
  std::string successor_host;
  std::uint16_t successor_port = 0;

  // Counters.
  std::atomic<std::uint64_t> inflight{0};
  std::atomic<std::uint64_t> forwarded{0};
  std::atomic<std::uint64_t> pinned_sessions{0};

  // Pooled idle connections (guarded by pool_mutex; a worker owns a
  // checked-out fd exclusively for one whole round trip).
  std::mutex pool_mutex;
  std::vector<int> idle_fds;

  /// -1 when the pool is empty (caller connects fresh).
  int checkout() {
    std::lock_guard<std::mutex> lock(pool_mutex);
    if (idle_fds.empty()) return -1;
    const int fd = idle_fds.back();
    idle_fds.pop_back();
    return fd;
  }
  void checkin(int fd) {
    std::lock_guard<std::mutex> lock(pool_mutex);
    if (idle_fds.size() >= kMaxIdlePerShard) {
      ::close(fd);
      return;
    }
    idle_fds.push_back(fd);
  }
};

/// The gateway's handler on the shared reactor: routing, pins,
/// forwarding, admin, and the health prober.
struct Gateway::Impl final : net::FrameServer::Handler {
  Impl(const GatewayOptions& options, std::atomic<bool>& draining)
      : options(options),
        draining(draining),
        counters("gateway", obs::kGatewayEvents),
        reactor(*this, "gateway", "gateway in-flight limit reached",
                net::FrameServer::limits_of(options), draining) {}

  GatewayOptions options;
  std::atomic<bool>& draining;

  // --- fleet state --------------------------------------------------------
  //
  // shard_mutex guards the table, the ring, every Shard's lifecycle
  // fields, and the pin map.  Routing (event loop) and the health prober
  // both take it briefly; forwards run outside it against a shared_ptr.
  std::mutex shard_mutex;
  std::map<std::string, std::shared_ptr<GatewayShard>> shards;
  HashRing ring;
  /// (client connection id, device id) -> shard name.  Created at
  /// CHALLENGE, consumed by the matching CHAINED_AUTH, swept on
  /// connection close.  Ordered so a connection's pins are a range.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::string> pins;

  // Stats, read via Gateway::stats(); the transport counters live in the
  // reactor.  Indices into `counters` (obs::kGatewayEvents).
  enum Event : std::size_t {
    kRequests, kForwarded, kRedirectsSent, kUnavailableRejections,
    kAdminRequests, kPinsCreated, kHealthProbes, kDroppedInflight,
    kEventCount
  };
  static_assert(std::size(obs::kGatewayEvents) == kEventCount);
  obs::CounterSet counters;

  /// Declared last: destroyed first, joining workers that are still
  /// forwarding against the members above.
  net::FrameServer reactor;

  // --- reactor hooks (event-loop thread) ----------------------------------
  std::vector<std::uint8_t> answer_inline(const Frame& frame) override;
  std::vector<std::uint8_t> dispatch(std::uint64_t connection_id,
                                     Frame frame) override;
  /// Sweeps the connection's pins: its chained-auth sessions died with it.
  void on_close(std::uint64_t connection_id) override;
  net::HealthInfo health_info() const override {
    net::HealthInfo h = reactor.transport_health();
    h.requests_served = counters.value(kRequests);
    return h;
  }

  std::vector<std::uint8_t> handle_admin(const Frame& frame);

  // --- worker side --------------------------------------------------------
  std::vector<std::uint8_t> forward(GatewayShard& shard, const Frame& frame,
                                    const util::Deadline& deadline);

  // --- health prober ------------------------------------------------------
  void health_loop();
};

// --- lifecycle --------------------------------------------------------------

Gateway::Gateway(GatewayOptions options) : options_(options) {
  impl_ = std::make_unique<Impl>(options_, draining_);
}

Gateway::~Gateway() { stop(); }

util::Status Gateway::add_shard(const std::string& name,
                                const std::string& host,
                                std::uint16_t port) {
  if (name.empty() || host.empty() || port == 0)
    return Status::invalid_argument("add_shard: name/host/port required");
  std::lock_guard<std::mutex> lock(impl_->shard_mutex);
  impl_->shards[name] = std::make_shared<GatewayShard>(name, host, port);
  impl_->ring.add(name, options_.vnodes);
  return Status::ok();
}

util::Status Gateway::start() {
  if (running_.load(std::memory_order_acquire))
    return Status::invalid_argument("gateway already started");
  if (Status s = impl_->reactor.start(&port_); !s.is_ok()) return s;
  running_.store(true, std::memory_order_release);
  health_thread_ = std::thread([this] { impl_->health_loop(); });
  return Status::ok();
}

void Gateway::request_drain() {
  if (impl_ == nullptr) return;
  draining_.store(true, std::memory_order_relaxed);
  impl_->reactor.wake();
}

void Gateway::wait() {
  if (impl_ != nullptr) impl_->reactor.wait();
  if (health_thread_.joinable()) health_thread_.join();
  running_.store(false, std::memory_order_release);
}

void Gateway::stop() {
  request_drain();
  wait();
}

Gateway::Stats Gateway::stats() const {
  Stats s;
  if (impl_ == nullptr) return s;
  impl_->reactor.transport_stats(&s);
  const obs::CounterSet& c = impl_->counters;
  s.requests = c.value(Impl::kRequests);
  s.forwarded = c.value(Impl::kForwarded);
  s.redirects_sent = c.value(Impl::kRedirectsSent);
  s.unavailable_rejections = c.value(Impl::kUnavailableRejections);
  s.admin_requests = c.value(Impl::kAdminRequests);
  s.pins_created = c.value(Impl::kPinsCreated);
  s.health_probes = c.value(Impl::kHealthProbes);
  s.dropped_inflight = c.value(Impl::kDroppedInflight);
  return s;
}

// --- dispatch (event loop) -------------------------------------------------

std::vector<std::uint8_t> Gateway::Impl::answer_inline(const Frame& frame) {
  switch (frame.type) {
    case MessageType::kPingRequest:
      // PING answers for the gateway itself (its health is what a load
      // balancer in front of the fleet needs); the prober sees shard
      // health.
      return net::encode_frame(MessageType::kPingReply, frame.request_id,
                               frame.device_id, 0,
                               net::encode_ping_reply(health_info()));
    case MessageType::kAdminRequest:
      // Admin is gateway-local state, answered inline — it must keep
      // working when every shard is down (that is exactly when the
      // operator needs it).
      return handle_admin(frame);
    case MessageType::kWalFetchRequest:
      // WAL shipping is a shard-to-standby channel: the standby must track
      // ONE primary's byte stream, which a routing gateway cannot provide.
      return error_frame(frame.request_id, frame.device_id,
                         WireCode::kInvalidArgument,
                         "WAL fetch is shard-direct, not routable");
    case MessageType::kEnrollRequest:
      // ENROLL with id 0 means "shard assigns the id" — unroutable here,
      // the hash that picks the shard needs the id first.
      if (frame.device_id == net::kDefaultDeviceId)
        return error_frame(frame.request_id, frame.device_id,
                           WireCode::kInvalidArgument,
                           "gateway enrollment requires an explicit "
                           "device id (0 = shard-assigned)");
      return {};
    default:
      return {};
  }
}

std::vector<std::uint8_t> Gateway::Impl::dispatch(
    std::uint64_t connection_id, Frame frame) {
  const auto unavailable = [&](std::string message) {
    counters.add(kUnavailableRejections);
    return error_frame(frame.request_id, frame.device_id,
                       WireCode::kShardUnavailable, std::move(message));
  };
  // --- routing (shard_mutex) ---
  std::shared_ptr<GatewayShard> shard;
  bool pinned = false;
  {
    std::lock_guard<std::mutex> lock(shard_mutex);
    std::string name;
    if (frame.type == MessageType::kChainedAuthRequest) {
      const auto pit = pins.find({connection_id, frame.device_id});
      if (pit != pins.end()) {
        name = pit->second;
        pinned = true;
        pins.erase(pit);
        const auto sit = shards.find(name);
        if (sit != shards.end())
          sit->second->pinned_sessions.fetch_sub(1,
                                                 std::memory_order_relaxed);
      }
    }
    if (name.empty()) name = ring.route(frame.device_id);
    if (name.empty()) return unavailable("no shards in the ring");
    const auto sit = shards.find(name);
    if (sit == shards.end()) return unavailable("shard removed: " + name);
    shard = sit->second;
    // Draining refuses NEW sessions; a pinned CHAINED_AUTH is in-flight
    // work the drain contract promises to complete, so it passes.
    if (!pinned && shard->draining) {
      if (shard->successor_host.empty() || shard->successor_port == 0)
        return unavailable("shard draining: " + name);
      net::RedirectReplyBody rd;
      rd.host = shard->successor_host;
      rd.port = shard->successor_port;
      rd.shard = name;
      rd.message = "shard draining; use successor";
      counters.add(kRedirectsSent);
      return net::encode_frame(MessageType::kRedirectReply,
                               frame.request_id, frame.device_id, 0,
                               net::encode_redirect_reply(rd));
    }
    if (!shard->up.load(std::memory_order_relaxed))
      return unavailable("shard down: " + name);
    if (frame.type == MessageType::kChallengeRequest) {
      pins[{connection_id, frame.device_id}] = name;
      shard->pinned_sessions.fetch_add(1, std::memory_order_relaxed);
      counters.add(kPinsCreated);
    }
  }

  counters.add(kRequests);
  const util::Deadline deadline = frame.deadline();
  reactor.submit(connection_id, std::move(frame),
                 [this, shard = std::move(shard), deadline](const Frame& f) {
                   return forward(*shard, f, deadline);
                 });
  return {};
}

std::vector<std::uint8_t> Gateway::Impl::forward(
    GatewayShard& shard, const Frame& frame,
    const util::Deadline& deadline) {
  if (deadline.expired())
    return error_frame(frame.request_id, frame.device_id,
                       WireCode::kDeadlineExceeded,
                       "budget expired before forwarding");
  util::Deadline effective = deadline;
  if (effective.is_unlimited() && options.default_forward_timeout_ms > 0)
    effective = util::Deadline::after_seconds(
        options.default_forward_timeout_ms * 1e-3);

  // The frame goes through VERBATIM — same request id, same device id,
  // same payload — with the budget re-encoded as what REMAINS, so queue
  // wait inside the gateway burns the client's budget, not the shard's.
  const std::vector<std::uint8_t> wire =
      net::encode_frame(frame.type, frame.request_id, frame.device_id,
                        net::budget_ms_for(deadline), frame.payload);

  shard.inflight.fetch_add(1, std::memory_order_relaxed);
  Status last = Status::ok();
  // Two tries: a pooled socket may be half-dead (shard restarted since
  // checkin) — retry once on a FRESH connection, then give up.  A frame
  // is forwarded at most once per live socket, and the shard protocol is
  // request/reply on an exclusively-owned fd, so the retry can never
  // duplicate a reply.
  for (int attempt = 0; attempt < 2; ++attempt) {
    bool pooled = true;
    int fd = shard.checkout();
    if (fd < 0) {
      pooled = false;
      net::Socket sock;
      const auto left_ms = std::min<long long>(
          options.shard_connect_timeout_ms,
          effective.is_unlimited()
              ? options.shard_connect_timeout_ms
              : std::chrono::duration_cast<std::chrono::milliseconds>(
                    effective.remaining())
                    .count());
      if (Status s = net::connect_tcp(shard.host, shard.port,
                                      static_cast<int>(std::max<long long>(
                                          1, left_ms)),
                                      &sock);
          !s.is_ok()) {
        last = s;
        break;  // connect failed: the shard is gone, retry won't help
      }
      fd = sock.release();
    }
    Status s = net::send_all(fd, wire.data(), wire.size(), effective);
    Frame reply;
    if (s.is_ok()) s = net::read_frame(fd, &reply, effective);
    if (s.is_ok()) {
      shard.checkin(fd);
      shard.inflight.fetch_sub(1, std::memory_order_relaxed);
      shard.forwarded.fetch_add(1, std::memory_order_relaxed);
      counters.add(kForwarded);
      return net::encode_frame(reply.type, reply.request_id,
                               reply.device_id, 0, reply.payload);
    }
    ::close(fd);
    last = s;
    if (!pooled) break;  // fresh socket failed: don't hammer a dead shard
  }
  shard.inflight.fetch_sub(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(shard_mutex);
    if (shard.draining) counters.add(kDroppedInflight);
  }
  if (last.code() == util::StatusCode::kDeadlineExceeded)
    return error_frame(frame.request_id, frame.device_id,
                       WireCode::kDeadlineExceeded,
                       "budget expired forwarding to " + shard.name);
  counters.add(kUnavailableRejections);
  return error_frame(frame.request_id, frame.device_id,
                     WireCode::kShardUnavailable,
                     "shard " + shard.name + " unreachable: " +
                         last.message());
}

// --- admin ------------------------------------------------------------------

std::vector<std::uint8_t> Gateway::Impl::handle_admin(const Frame& frame) {
  counters.add(kAdminRequests);
  net::AdminRequestBody req;
  if (Status s = net::decode_admin_request(frame.payload, &req); !s.is_ok())
    return error_frame(frame.request_id, frame.device_id,
                       WireCode::kMalformed, s.message());
  net::AdminReplyBody reply;
  std::lock_guard<std::mutex> lock(shard_mutex);
  switch (req.op) {
    case net::AdminOp::kStatus: {
      reply.ok = 1;
      reply.message = "ok";
      for (const auto& [name, shard] : shards) {
        net::ShardStatus st;
        st.name = name;
        st.host = shard->host;
        st.port = shard->port;
        const bool up = shard->up.load(std::memory_order_relaxed);
        st.state = static_cast<std::uint8_t>(
            !up ? ShardState::kDown
                : shard->draining ? ShardState::kDraining : ShardState::kUp);
        st.draining = shard->backend_draining.load(std::memory_order_relaxed);
        st.inflight = shard->inflight.load(std::memory_order_relaxed);
        st.pinned_sessions =
            shard->pinned_sessions.load(std::memory_order_relaxed);
        st.forwarded = shard->forwarded.load(std::memory_order_relaxed);
        st.device_count = shard->device_count.load(std::memory_order_relaxed);
        st.wal_epoch = shard->wal_epoch.load(std::memory_order_relaxed);
        st.wal_offset = shard->wal_offset.load(std::memory_order_relaxed);
        reply.shards.push_back(std::move(st));
      }
      break;
    }
    case net::AdminOp::kAddShard: {
      if (req.shard.empty() || req.host.empty() || req.port == 0) {
        reply.ok = 0;
        reply.message = "add requires shard name, host, and port";
        break;
      }
      const bool existed = shards.count(req.shard) != 0;
      // Re-pointing REPLACES the shard object: in-flight forwards finish
      // against the old endpoint via their shared_ptr, new work goes to
      // the new one, and ring placement is untouched (name-keyed).
      shards[req.shard] =
          std::make_shared<GatewayShard>(req.shard, req.host, req.port);
      ring.add(req.shard, options.vnodes);
      reply.ok = 1;
      reply.message = existed ? "re-pointed" : "added";
      break;
    }
    case net::AdminOp::kDrainShard: {
      const auto it = shards.find(req.shard);
      if (it == shards.end()) {
        reply.ok = 0;
        reply.message = "unknown shard: " + req.shard;
        break;
      }
      it->second->draining = true;
      it->second->successor_host = req.host;  // may be empty: no redirect
      it->second->successor_port = req.port;
      reply.ok = 1;
      reply.message = req.host.empty() ? "draining"
                                       : "draining with successor";
      break;
    }
    case net::AdminOp::kUndrainShard: {
      const auto it = shards.find(req.shard);
      if (it == shards.end()) {
        reply.ok = 0;
        reply.message = "unknown shard: " + req.shard;
        break;
      }
      it->second->draining = false;
      it->second->successor_host.clear();
      it->second->successor_port = 0;
      reply.ok = 1;
      reply.message = "undrained";
      break;
    }
    case net::AdminOp::kRemoveShard: {
      const auto it = shards.find(req.shard);
      if (it == shards.end()) {
        reply.ok = 0;
        reply.message = "unknown shard: " + req.shard;
        break;
      }
      ring.remove(req.shard);
      shards.erase(it);
      // Pins into the removed shard can never be served; sweep them so a
      // later CHAINED_AUTH re-routes (and gets the ring's answer) instead
      // of chasing a name that no longer resolves.
      for (auto pit = pins.begin(); pit != pins.end();) {
        if (pit->second == req.shard)
          pit = pins.erase(pit);
        else
          ++pit;
      }
      reply.ok = 1;
      reply.message = "removed";
      break;
    }
  }
  return net::encode_frame(MessageType::kAdminReply, frame.request_id,
                           frame.device_id, 0,
                           net::encode_admin_reply(reply));
}

void Gateway::Impl::on_close(std::uint64_t connection_id) {
  std::lock_guard<std::mutex> lock(shard_mutex);
  const auto begin = pins.lower_bound({connection_id, 0});
  auto end = begin;
  while (end != pins.end() && end->first.first == connection_id) {
    const auto sit = shards.find(end->second);
    if (sit != shards.end())
      sit->second->pinned_sessions.fetch_sub(1, std::memory_order_relaxed);
    ++end;
  }
  pins.erase(begin, end);
}

// --- health prober ----------------------------------------------------------

void Gateway::Impl::health_loop() {
  while (!draining.load(std::memory_order_relaxed)) {
    std::vector<std::shared_ptr<GatewayShard>> snapshot;
    {
      std::lock_guard<std::mutex> lock(shard_mutex);
      snapshot.reserve(shards.size());
      for (const auto& [name, shard] : shards) snapshot.push_back(shard);
    }
    for (const auto& shard : snapshot) {
      if (draining.load(std::memory_order_relaxed)) break;
      net::ClientOptions copts;
      copts.connect_timeout_ms = options.health_timeout_ms;
      copts.request_timeout_ms = options.health_timeout_ms;
      copts.max_attempts = 1;
      // The prober must not feed the process-wide endpoint breakers: a
      // down shard fast-failing the FORWARD path through a shared breaker
      // would couple health probing into serving.
      copts.breaker_failure_threshold = 0;
      net::AuthClient probe(shard->host, shard->port, copts);
      net::HealthInfo health;
      const Status s =
          probe.ping(0,
                     util::Deadline::after_seconds(
                         options.health_timeout_ms * 1e-3),
                     &health);
      counters.add(kHealthProbes);
      if (s.is_ok()) {
        shard->consecutive_failures = 0;
        if (++shard->consecutive_successes >=
            options.health_successes_to_up)
          shard->up.store(true, std::memory_order_relaxed);
        shard->backend_draining.store(health.draining,
                                      std::memory_order_relaxed);
        shard->device_count.store(health.device_count,
                                  std::memory_order_relaxed);
        shard->wal_epoch.store(health.wal_epoch, std::memory_order_relaxed);
        shard->wal_offset.store(health.wal_offset,
                                std::memory_order_relaxed);
      } else {
        shard->consecutive_successes = 0;
        if (++shard->consecutive_failures >=
            options.health_failures_to_down)
          shard->up.store(false, std::memory_order_relaxed);
      }
    }
    // Sleep in slices so request_drain() is honoured promptly.
    const auto until =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options.health_interval_ms);
    while (std::chrono::steady_clock::now() < until &&
           !draining.load(std::memory_order_relaxed))
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace ppuf::fleet
