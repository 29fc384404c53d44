#include "server/auth_server.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "backend/backend.hpp"
#include "net/frame_server.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "ppuf/response_cache.hpp"
#include "protocol/authentication.hpp"
#include "registry/device_registry.hpp"
#include "registry/hydration_cache.hpp"
#include "util/rng.hpp"

namespace ppuf::server {

namespace {

using net::error_frame;
using net::Frame;
using net::MessageType;
using net::WireCode;
using util::Status;

WireCode wire_code_for(const Status& s) {
  switch (s.code()) {
    case util::StatusCode::kDeadlineExceeded:
      return WireCode::kDeadlineExceeded;
    case util::StatusCode::kCancelled:
      return WireCode::kCancelled;
    case util::StatusCode::kInvalidArgument:
      return WireCode::kInvalidArgument;
    case util::StatusCode::kUnavailable:
      return WireCode::kOverloaded;
    case util::StatusCode::kNotFound:
      return WireCode::kUnknownDevice;
    default:
      return WireCode::kInternal;
  }
}

/// Hydration-cache configuration for a server's options.
registry::HydrationCache::Options hydration_options(
    const AuthServerOptions& options) {
  registry::HydrationCache::Options o;
  o.max_entries = options.hydration_cache_entries;
  o.verifier_deadline_seconds = options.verifier_deadline_seconds;
  o.flow_tolerance_fraction = options.flow_tolerance_fraction;
  return o;
}

}  // namespace

/// The server's handler on the shared reactor: device resolution, the
/// request handlers, and the device-batch stage every PREDICT and VERIFY
/// goes through.  Devices resolve through the registry via a bounded
/// hydration cache.
struct AuthServer::Impl final : net::FrameServer::Handler {
  Impl(registry::DeviceRegistry& registry,
       const AuthServerOptions& options, std::atomic<bool>& draining)
      : device_registry(registry),
        hydration(registry, hydration_options(options)),
        options(options),
        rng(options.challenge_seed),
        counters("server", obs::kServerEvents),
        reactor(*this, "server", "in-flight limit reached",
                net::FrameServer::limits_of(options), draining) {
    if (options.response_cache_bytes > 0)
      response_cache.emplace(options.response_cache_bytes);
  }

  // --- shared state -------------------------------------------------------

  /// Non-const: ENROLL mutates it and WAL_FETCH exports from it (the
  /// registry's own mutex serialises against other callers).
  registry::DeviceRegistry& device_registry;
  registry::HydrationCache hydration;
  /// Shared device-keyed CRP cache for every PREDICT
  /// (options.response_cache_bytes > 0).
  std::optional<ResponseCache> response_cache;

  AuthServerOptions options;

  /// What a handler works against once the frame's device id resolved.
  /// Holding the shared_ptr keeps the device alive for the request
  /// (eviction from the hydration cache must not free it mid-request).
  /// Every request path goes through the backend::Device interface, so a
  /// max-flow crossbar and a PDL chain serve through identical code.
  using DeviceContext = std::shared_ptr<const registry::HydratedDevice>;

  /// kNotFound when the id is 0, unknown or revoked (mapped to a typed
  /// UNKNOWN_DEVICE reply by the caller).
  Status resolve_device(std::uint64_t device_id, DeviceContext* out) {
    if (device_id == net::kDefaultDeviceId)
      return Status::not_found(
          "registry-backed server requires an enrolled device id");
    return hydration.get(device_id, out);
  }

  /// The typed reply for a frame whose device id did not resolve.  An
  /// unknown/revoked id is an UNKNOWN_DEVICE reply and counted; transient
  /// hydration failures map through wire_code_for like any other status.
  std::vector<std::uint8_t> device_error_reply(const Frame& frame,
                                               const Status& s) {
    if (s.code() == util::StatusCode::kNotFound)
      counters.add(kUnknownDeviceRejections);
    return error_frame(frame.request_id, frame.device_id, wire_code_for(s),
                       s.message());
  }

  std::mutex rng_mutex;  ///< guards rng (workers issue challenges too)
  util::Rng rng;

  // --- device-batch stage (event-loop thread only) -------------------------

  /// One PREDICT/VERIFY frame bound for run_batch.  The deadline was
  /// re-anchored at decode, so waiting in a batch burns the request's own
  /// budget.
  struct PendingItem {
    std::uint64_t connection_id = 0;
    Frame frame;
    util::Deadline deadline;
    std::chrono::steady_clock::time_point enqueued_at{};
  };
  /// device id -> open batch.  Only the event loop touches this; a batch
  /// leaves the map wholesale when it is flushed to the pool.
  std::unordered_map<std::uint64_t, std::vector<PendingItem>> pending;
  std::size_t pending_count = 0;

  // Stats, read via AuthServer::stats(); the transport counters live in
  // the reactor.  Indices into `counters` (obs::kServerEvents).
  enum Event : std::size_t {
    kRequests, kUnknownDeviceRejections, kCoalescedBatches, kCoalescedItems,
    kSoloDispatches, kEnrollsServed, kWalFetchesServed, kLoopCacheHits,
    kEventCount
  };
  static_assert(std::size(obs::kServerEvents) == kEventCount);
  obs::CounterSet counters;

  /// Declared last so it is destroyed FIRST: its pool joins workers that
  /// are still running handler code against the members above.
  net::FrameServer reactor;

  // --- reactor hooks (event-loop thread) ----------------------------------

  std::vector<std::uint8_t> dispatch(std::uint64_t connection_id,
                                     Frame frame) override;
  /// epoll timeout until the next batch-window expiry, in ms (clamped to
  /// [1, fallback]); fallback when no batch is open.
  int poll_timeout_ms(int fallback) const override;
  /// Flush every batch that is due: full batches close in dispatch();
  /// here age (oldest item waited >= coalesce_wait_us) or a drain closes
  /// the rest.
  void on_loop_pass(bool draining) override;
  bool idle() const override { return pending_count == 0; }

  /// The PREDICT reply for a resident device's cached response, answered
  /// on the loop; empty when anything is not a plain hit.  Touches no
  /// registry mutex and hydrates nothing: HydrationCache::peek, the
  /// decode, validate_challenge and ResponseCache::probe only.
  std::vector<std::uint8_t> answer_cached_predict(
      const Frame& frame, const util::Deadline& deadline);

  /// One pool task serving `items` (all for `device_id`) via run_batch.
  void submit_batch(std::uint64_t device_id, std::vector<PendingItem> items);
  /// Flush one device's open batch to the pool.
  void flush_device_batch(std::uint64_t device_id);

  /// Health snapshot carried in every PING reply (safe from any thread,
  /// the loop's draining PING included: every input is an atomic, an
  /// immutable option, or a registry value it publishes lock-free).  It
  /// reports the device count and WAL position, so a gateway's health
  /// probe doubles as replication-lag telemetry.
  net::HealthInfo health_info() const override {
    net::HealthInfo h = reactor.transport_health();
    h.requests_served = counters.value(kRequests);
    h.device_count = device_registry.device_count();
    const registry::DeviceRegistry::WalPosition pos =
        device_registry.wal_position();
    h.wal_epoch = pos.epoch;
    h.wal_offset = pos.offset;
    return h;
  }

  // --- request handlers (worker threads) ----------------------------------

  /// Serve one device batch (one item when it did not coalesce) on a
  /// worker: answer expired items, resolve the device once, run predicts
  /// through predict_batch (device-keyed cache, per-item deadlines) and
  /// verifies through verify_batch, then scatter one completion per item
  /// back to its originating connection.
  void run_batch(std::uint64_t device_id, std::vector<PendingItem> items);

  std::vector<std::uint8_t> handle(const Frame& frame,
                                   const util::Deadline& deadline);
  std::vector<std::uint8_t> handle_ping(const Frame& frame,
                                        const util::Deadline& deadline);
  std::vector<std::uint8_t> handle_verify_batch(
      const Frame& frame, const util::Deadline& deadline);
  std::vector<std::uint8_t> handle_challenge(const Frame& frame);
  std::vector<std::uint8_t> handle_chained_auth(
      const Frame& frame, const util::Deadline& deadline);
  std::vector<std::uint8_t> handle_enroll(const Frame& frame);
  std::vector<std::uint8_t> handle_wal_fetch(const Frame& frame);
};

// --- lifecycle -------------------------------------------------------------

AuthServer::AuthServer(registry::DeviceRegistry& registry,
                       AuthServerOptions options)
    : registry_(registry), options_(options) {}

AuthServer::~AuthServer() { stop(); }

util::Status AuthServer::start() {
  if (running_.load(std::memory_order_acquire))
    return Status::invalid_argument("server already started");
  impl_ = std::make_unique<Impl>(registry_, options_, draining_);
  if (Status s = impl_->reactor.start(&port_); !s.is_ok()) return s;
  running_.store(true, std::memory_order_release);
  return Status::ok();
}

void AuthServer::request_drain() {
  if (impl_ == nullptr) return;
  draining_.store(true, std::memory_order_relaxed);
  // Wake the loop so it notices; eventfd writes are async-signal-safe,
  // so a signal-handling thread may call this.
  impl_->reactor.wake();
}

void AuthServer::wait() {
  if (impl_ != nullptr) impl_->reactor.wait();
  running_.store(false, std::memory_order_release);
}

void AuthServer::stop() {
  request_drain();
  wait();
}

AuthServer::Stats AuthServer::stats() const {
  Stats s;
  if (impl_ == nullptr) return s;
  impl_->reactor.transport_stats(&s);
  const obs::CounterSet& c = impl_->counters;
  s.requests = c.value(Impl::kRequests);
  s.unknown_device_rejections = c.value(Impl::kUnknownDeviceRejections);
  s.coalesced_batches = c.value(Impl::kCoalescedBatches);
  s.coalesced_items = c.value(Impl::kCoalescedItems);
  s.solo_dispatches = c.value(Impl::kSoloDispatches);
  s.enrolls_served = c.value(Impl::kEnrollsServed);
  s.wal_fetches_served = c.value(Impl::kWalFetchesServed);
  s.loop_cache_hits = c.value(Impl::kLoopCacheHits);
  return s;
}

// --- dispatch and coalescing (event-loop thread) ---------------------------

std::vector<std::uint8_t> AuthServer::Impl::dispatch(
    std::uint64_t connection_id, Frame frame) {
  counters.add(kRequests);

  // Budget is re-anchored NOW, at decode: queue wait burns budget.
  const util::Deadline deadline = frame.deadline();
  // A resident hit is answered here, ahead of coalescing: no handoff to a
  // worker and no batch window to wait out.
  if (frame.type == MessageType::kPredictRequest && response_cache)
    if (std::vector<std::uint8_t> reply =
            answer_cached_predict(frame, deadline);
        !reply.empty())
      return reply;
  if (frame.type != MessageType::kPredictRequest &&
      frame.type != MessageType::kVerifyRequest) {
    reactor.submit(connection_id, std::move(frame),
                   [this, deadline](const Frame& f) {
                     return handle(f, deadline);
                   });
    return {};
  }
  // Batch-window deadline policy: a read joins a window only if its
  // budget can survive the full window.  Any other read (every read when
  // coalescing is off) goes to the pool as a one-item batch, where nothing
  // ahead of it can eat the remaining budget.
  const std::uint64_t device_id = frame.device_id;
  const bool coalescing = options.coalesce_max_batch > 1;
  const bool joins_window =
      coalescing &&
      (deadline.is_unlimited() ||
       deadline.remaining() >=
           std::chrono::microseconds(options.coalesce_wait_us));
  std::vector<PendingItem> solo;
  std::vector<PendingItem>& batch = joins_window ? pending[device_id] : solo;
  batch.push_back({connection_id, std::move(frame), deadline,
                   std::chrono::steady_clock::now()});
  if (!joins_window) {
    if (coalescing) counters.add(kSoloDispatches);
    submit_batch(device_id, std::move(solo));
    return {};
  }
  ++pending_count;
  if (batch.size() >= options.coalesce_max_batch)
    flush_device_batch(device_id);
  return {};
}

std::vector<std::uint8_t> AuthServer::Impl::answer_cached_predict(
    const Frame& frame, const util::Deadline& deadline) {
  // Whatever is not a plain hit goes on to run_batch unchanged, which
  // gives every failure its typed reply.
  if (deadline.expired()) return {};
  const std::shared_ptr<const registry::HydratedDevice> ctx =
      hydration.peek(frame.device_id);
  if (ctx == nullptr) return {};
  Challenge c;
  if (!net::decode_predict_request(frame.payload, &c).is_ok() ||
      !ctx->device->validate_challenge(c).is_ok())
    return {};
  // run_batch's predict_batch keys the cache on the nominal environment.
  const std::optional<CachedResponse> hit = response_cache->probe(
      frame.device_id, c, circuit::Environment::nominal());
  if (!hit) return {};
  counters.add(kLoopCacheHits);
  SimulationModel::Prediction p;
  p.bit = hit->bit;
  p.flow_a = hit->flow_a;
  p.flow_b = hit->flow_b;
  return net::encode_frame(MessageType::kPredictReply, frame.request_id,
                           frame.device_id, 0, net::encode_predict_reply(p));
}

void AuthServer::Impl::submit_batch(std::uint64_t device_id,
                                    std::vector<PendingItem> items) {
  auto shared_items =
      std::make_shared<std::vector<PendingItem>>(std::move(items));
  reactor.pool().submit([this, device_id, shared_items] {
    run_batch(device_id, std::move(*shared_items));
  });
}

void AuthServer::Impl::flush_device_batch(std::uint64_t device_id) {
  const auto it = pending.find(device_id);
  if (it == pending.end() || it->second.empty()) return;
  std::vector<PendingItem> items = std::move(it->second);
  pending.erase(it);
  pending_count -= items.size();

  counters.add(kCoalescedBatches);
  counters.add(kCoalescedItems, items.size());
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.histogram("server.batch_size")
      .record(static_cast<double>(items.size()));
  const auto waited = std::chrono::steady_clock::now() -
                      items.front().enqueued_at;
  reg.histogram("server.coalesce_wait_us")
      .record(static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(waited)
              .count()));
  submit_batch(device_id, std::move(items));
}

void AuthServer::Impl::on_loop_pass(bool draining) {
  if (pending.empty()) return;
  const auto now = std::chrono::steady_clock::now();
  const auto window = std::chrono::microseconds(options.coalesce_wait_us);
  std::vector<std::uint64_t> due;
  for (const auto& [device_id, batch] : pending) {
    // A drain must not strand an open batch.
    if (draining ||
        (!batch.empty() && now - batch.front().enqueued_at >= window))
      due.push_back(device_id);
  }
  for (const std::uint64_t device_id : due) flush_device_batch(device_id);
}

int AuthServer::Impl::poll_timeout_ms(int fallback) const {
  if (pending.empty()) return fallback;
  const auto now = std::chrono::steady_clock::now();
  const auto window = std::chrono::microseconds(options.coalesce_wait_us);
  auto next = std::chrono::steady_clock::duration::max();
  for (const auto& [device_id, batch] : pending) {
    if (batch.empty()) continue;
    next = std::min(next, (batch.front().enqueued_at + window) - now);
  }
  if (next == std::chrono::steady_clock::duration::max()) return fallback;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(next).count();
  // Clamp to >= 1: a zero timeout would busy-spin, and a 1 ms over-wait
  // is inside the window tolerance the policy already promises.
  return static_cast<int>(
      std::min<long long>(fallback, std::max<long long>(1, ms)));
}

// --- request handlers (worker threads) -------------------------------------

std::vector<std::uint8_t> AuthServer::Impl::handle(
    const Frame& frame, const util::Deadline& deadline) {
  // Expired in the queue: answer with the typed error instead of doing
  // work nobody is waiting for.
  if (deadline.expired())
    return error_frame(frame.request_id, frame.device_id,
                       WireCode::kDeadlineExceeded,
                       "budget expired before processing");
  switch (frame.type) {
    case MessageType::kPingRequest:
      return handle_ping(frame, deadline);
    case MessageType::kVerifyBatchRequest:
      return handle_verify_batch(frame, deadline);
    case MessageType::kChallengeRequest:
      return handle_challenge(frame);
    case MessageType::kChainedAuthRequest:
      return handle_chained_auth(frame, deadline);
    case MessageType::kEnrollRequest:
      return handle_enroll(frame);
    case MessageType::kWalFetchRequest:
      return handle_wal_fetch(frame);
    default:
      return error_frame(frame.request_id, frame.device_id,
                         WireCode::kUnsupportedType,
                         "unsupported request type");
  }
}

std::vector<std::uint8_t> AuthServer::Impl::handle_ping(
    const Frame& frame, const util::Deadline& deadline) {
  obs::ScopedTimer timer(obs::MetricsRegistry::global(),
                         "server.ping.request_us");
  std::uint32_t delay_ms = 0;
  if (Status s = net::decode_ping_request(frame.payload, &delay_ms);
      !s.is_ok())
    return error_frame(frame.request_id, frame.device_id,
                       WireCode::kMalformed, s.message());
  delay_ms = std::min(delay_ms, options.max_ping_delay_ms);
  if (delay_ms > 0) {
    // Sleep in slices so an expiring budget still gets its typed answer
    // roughly on time.
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(delay_ms);
    while (std::chrono::steady_clock::now() < until) {
      if (deadline.expired())
        return error_frame(frame.request_id, frame.device_id,
                           WireCode::kDeadlineExceeded,
                           "budget expired during ping delay");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // PING is transport-level: it answers for any device id without
  // resolving it (load tests ping before enrolment exists), and the reply
  // carries the server's health report.
  return net::encode_frame(MessageType::kPingReply, frame.request_id,
                           frame.device_id, 0,
                           net::encode_ping_reply(health_info()));
}

std::vector<std::uint8_t> AuthServer::Impl::handle_verify_batch(
    const Frame& frame, const util::Deadline& deadline) {
  obs::ScopedTimer timer(obs::MetricsRegistry::global(),
                         "server.verify_batch.request_us");
  DeviceContext ctx;
  if (Status s = resolve_device(frame.device_id, &ctx); !s.is_ok())
    return device_error_reply(frame, s);
  std::vector<Challenge> challenges;
  std::vector<protocol::ProverReport> reports;
  if (Status s = net::decode_verify_batch_request(frame.payload,
                                                  &challenges, &reports);
      !s.is_ok())
    return error_frame(frame.request_id, frame.device_id,
                       WireCode::kMalformed, s.message());
  for (const Challenge& c : challenges)
    if (Status s = ctx->device->validate_challenge(c); !s.is_ok())
      return error_frame(frame.request_id, frame.device_id,
                         WireCode::kInvalidArgument, s.message());
  // Items run inline on this worker (no nested pool dispatch); the budget
  // is checked between items so an expiring batch still answers typed.
  std::vector<protocol::AuthenticationResult> results;
  results.reserve(challenges.size());
  for (std::size_t i = 0; i < challenges.size(); ++i) {
    if (deadline.expired())
      return error_frame(frame.request_id, frame.device_id,
                         WireCode::kDeadlineExceeded,
                         "budget expired at batch item " +
                             std::to_string(i));
    results.push_back(ctx->device->verify(challenges[i], reports[i]));
  }
  return net::encode_frame(MessageType::kVerifyBatchReply, frame.request_id,
                           frame.device_id, 0,
                           net::encode_verify_batch_reply(results));
}

std::vector<std::uint8_t> AuthServer::Impl::handle_challenge(
    const Frame& frame) {
  obs::ScopedTimer timer(obs::MetricsRegistry::global(),
                         "server.challenge.request_us");
  DeviceContext ctx;
  if (Status s = resolve_device(frame.device_id, &ctx); !s.is_ok())
    return device_error_reply(frame, s);
  if (Status s = net::decode_challenge_request(frame.payload); !s.is_ok())
    return error_frame(frame.request_id, frame.device_id,
                       WireCode::kMalformed, s.message());
  net::ChallengeGrant grant;
  {
    std::lock_guard<std::mutex> lock(rng_mutex);
    grant.challenge = ctx->device->issue_challenge(rng);
    grant.nonce = rng();
  }
  grant.chain_length = options.chain_length;
  grant.deadline_seconds = ctx->device->deadline_seconds();
  return net::encode_frame(MessageType::kChallengeReply, frame.request_id,
                           frame.device_id, 0,
                           net::encode_challenge_reply(grant));
}

std::vector<std::uint8_t> AuthServer::Impl::handle_chained_auth(
    const Frame& frame, const util::Deadline& deadline) {
  obs::ScopedTimer timer(obs::MetricsRegistry::global(),
                         "server.chained_auth.request_us");
  DeviceContext ctx;
  if (Status s = resolve_device(frame.device_id, &ctx); !s.is_ok())
    return device_error_reply(frame, s);
  net::ChainedAuthRequest request;
  if (Status s =
          net::decode_chained_auth_request(frame.payload, &request);
      !s.is_ok())
    return error_frame(frame.request_id, frame.device_id,
                       WireCode::kMalformed, s.message());
  if (Status s = ctx->device->validate_challenge(request.grant.challenge);
      !s.is_ok())
    return error_frame(frame.request_id, frame.device_id,
                       WireCode::kInvalidArgument, s.message());
  // k is adversary-controlled verification work; bound it.
  if (request.grant.chain_length > options.max_chain_length)
    return error_frame(frame.request_id, frame.device_id,
                       WireCode::kInvalidArgument,
                       "chain length exceeds server limit");
  if (deadline.expired())
    return error_frame(frame.request_id, frame.device_id,
                       WireCode::kDeadlineExceeded,
                       "budget expired before chain verification");
  util::Rng spot_rng;
  {
    std::lock_guard<std::mutex> lock(rng_mutex);
    spot_rng = rng.fork();
  }
  const protocol::ChainedVerifyResult result = ctx->device->verify_chain(
      request.grant.challenge, request.grant.chain_length,
      request.grant.nonce, request.report, options.spot_checks, spot_rng);
  return net::encode_frame(MessageType::kChainedAuthReply, frame.request_id,
                           frame.device_id, 0,
                           net::encode_chained_auth_reply(result));
}

std::vector<std::uint8_t> AuthServer::Impl::handle_enroll(
    const Frame& frame) {
  obs::ScopedTimer timer(obs::MetricsRegistry::global(),
                         "server.enroll.request_us");
  net::EnrollRequestBody body;
  if (Status s = net::decode_enroll_request(frame.payload, &body);
      !s.is_ok())
    return error_frame(frame.request_id, frame.device_id,
                       WireCode::kMalformed, s.message());
  // The wire passes unknown non-zero backend bytes through (forward
  // compatibility); they die here with a typed error instead.
  const auto kind = static_cast<backend::BackendKind>(body.backend);
  if (backend::find_backend(kind) == nullptr)
    return error_frame(frame.request_id, frame.device_id,
                       WireCode::kInvalidArgument,
                       "enroll: unknown backend");
  registry::EnrollRequest request;
  request.node_count = body.node_count;
  request.grid_size = body.grid_size;
  request.seed = body.fabrication_seed;
  request.label = body.label;
  request.backend = kind;
  // The frame header's device id doubles as the requested id (0 = assign
  // next free) so the gateway routes ENROLL like every other frame.
  request.device_id = frame.device_id;
  std::uint64_t assigned = 0;
  if (Status s = device_registry.enroll(request, &assigned); !s.is_ok())
    return error_frame(frame.request_id, frame.device_id,
                       wire_code_for(s), s.message());
  counters.add(kEnrollsServed);
  net::EnrollReplyBody reply;
  reply.device_id = assigned;
  return net::encode_frame(MessageType::kEnrollReply, frame.request_id,
                           assigned, 0, net::encode_enroll_reply(reply));
}

std::vector<std::uint8_t> AuthServer::Impl::handle_wal_fetch(
    const Frame& frame) {
  obs::ScopedTimer timer(obs::MetricsRegistry::global(),
                         "server.wal_fetch.request_us");
  net::WalFetchRequestBody request;
  if (Status s = net::decode_wal_fetch_request(frame.payload, &request);
      !s.is_ok())
    return error_frame(frame.request_id, frame.device_id,
                       WireCode::kMalformed, s.message());
  // Clamp the pull size: 0 means "server's choice", and nothing may
  // exceed a bound well under kMaxPayload.
  constexpr std::size_t kDefaultSegment = 1u << 20;  // 1 MiB
  constexpr std::size_t kMaxSegment = 4u << 20;      // 4 MiB
  std::size_t max_bytes =
      request.max_bytes == 0 ? kDefaultSegment : request.max_bytes;
  max_bytes = std::min(max_bytes, kMaxSegment);
  net::WalSegmentBody reply;
  bool stale = false;
  if (Status s = device_registry.read_wal_segment(
          request.epoch, request.offset, max_bytes, &reply.bytes, &stale);
      !s.is_ok())
    return error_frame(frame.request_id, frame.device_id,
                       wire_code_for(s), s.message());
  if (stale) {
    // Epoch mismatch or out-of-range offset: the standby's position is
    // meaningless (restart or compaction happened).  Answer with a full
    // bootstrap snapshot and the position it corresponds to.
    reply.bytes.clear();
    registry::DeviceRegistry::WalPosition pos;
    if (Status s = device_registry.export_bootstrap(&reply.bytes, &pos);
        !s.is_ok())
      return error_frame(frame.request_id, frame.device_id,
                         wire_code_for(s), s.message());
    reply.bootstrap = 1;
    reply.epoch = pos.epoch;
    reply.next_offset = pos.offset;
  } else {
    reply.bootstrap = 0;
    reply.epoch = request.epoch;
    reply.next_offset = request.offset + reply.bytes.size();
  }
  counters.add(kWalFetchesServed);
  return net::encode_frame(MessageType::kWalSegmentReply, frame.request_id,
                           frame.device_id, 0,
                           net::encode_wal_segment_reply(reply));
}

void AuthServer::Impl::run_batch(std::uint64_t device_id,
                                 std::vector<PendingItem> items) {
  obs::ScopedTimer timer(obs::MetricsRegistry::global(),
                         "server.batch.request_us");
  // Every item produces exactly one reply, no matter how the batch goes.
  std::vector<std::vector<std::uint8_t>> replies(items.size());
  const auto reply_error = [&](std::size_t i, WireCode code,
                               const std::string& message) {
    replies[i] = error_frame(items[i].frame.request_id,
                             items[i].frame.device_id, code, message);
  };
  try {
    // Expired in the queue or the window: answer with the typed error
    // before doing work (hydration included) nobody is waiting for.
    std::size_t live = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].deadline.expired())
        reply_error(i, WireCode::kDeadlineExceeded,
                    "budget expired before processing");
      else
        ++live;
    }
    // With nothing live every item is answered, so ctx is never read.
    DeviceContext ctx;
    const Status resolved =
        live > 0 ? resolve_device(device_id, &ctx) : Status::ok();
    // Partition: decode/validate failures answer their own item and drop
    // out; the survivors gather into ONE predict_batch call and ONE
    // verify_batch call.  Both run inline on this worker — nested pool
    // dispatch would deadlock the pool (DESIGN.md §12).
    std::vector<std::size_t> predicted;
    std::vector<Challenge> predict_challenges;
    SimulationModel::PredictBatchOptions popts;
    struct VerifySlot {
      std::size_t item;
      Challenge challenge;
      protocol::ProverReport report;
    };
    std::vector<VerifySlot> verifies;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!replies[i].empty()) continue;
      const Frame& frame = items[i].frame;
      if (!resolved.is_ok()) {
        replies[i] = device_error_reply(frame, resolved);
        continue;
      }
      // dispatch() batches only PREDICT and VERIFY.
      const bool verify = frame.type == MessageType::kVerifyRequest;
      Challenge c;
      protocol::ProverReport r;
      if (Status s = verify
                         ? net::decode_verify_request(frame.payload, &c, &r)
                         : net::decode_predict_request(frame.payload, &c);
          !s.is_ok()) {
        reply_error(i, WireCode::kMalformed, s.message());
        continue;
      }
      if (Status s = ctx->device->validate_challenge(c); !s.is_ok()) {
        reply_error(i, WireCode::kInvalidArgument, s.message());
        continue;
      }
      if (verify) {
        verifies.push_back({i, std::move(c), std::move(r)});
      } else {
        predicted.push_back(i);
        predict_challenges.push_back(std::move(c));
        popts.deadlines.push_back(items[i].deadline);
      }
    }
    if (!predicted.empty()) {
      popts.cache = response_cache ? &*response_cache : nullptr;
      popts.cache_device_id = device_id;
      const std::vector<SimulationModel::Prediction> preds =
          ctx->device->predict_batch(predict_challenges, popts);
      for (std::size_t k = 0; k < predicted.size(); ++k) {
        const std::size_t i = predicted[k];
        const Frame& frame = items[i].frame;
        if (!preds[k].ok())
          reply_error(i, wire_code_for(preds[k].status),
                      preds[k].status.to_string());
        else
          replies[i] = net::encode_frame(
              MessageType::kPredictReply, frame.request_id, frame.device_id,
              0, net::encode_predict_reply(preds[k]));
      }
    }
    // verify_batch has no per-item deadline plumbing; check expiry per
    // item here so a budget that died during hydration or the batch's
    // predicts answers typed without poisoning its batch-mates.
    std::vector<Challenge> vc;
    std::vector<protocol::ProverReport> vr;
    std::vector<std::size_t> verified;
    for (VerifySlot& slot : verifies) {
      if (items[slot.item].deadline.expired()) {
        reply_error(slot.item, WireCode::kDeadlineExceeded,
                    "budget expired before verification");
        continue;
      }
      verified.push_back(slot.item);
      vc.push_back(std::move(slot.challenge));
      vr.push_back(std::move(slot.report));
    }
    if (!vc.empty()) {
      const std::vector<protocol::AuthenticationResult> results =
          ctx->device->verify_batch(vc, vr, {});
      for (std::size_t k = 0; k < verified.size(); ++k) {
        const Frame& frame = items[verified[k]].frame;
        replies[verified[k]] = net::encode_frame(
            MessageType::kVerifyReply, frame.request_id, frame.device_id, 0,
            net::encode_verify_reply(results[k]));
      }
    }
  } catch (const std::exception& e) {
    for (std::size_t i = 0; i < items.size(); ++i)
      if (replies[i].empty()) reply_error(i, WireCode::kInternal, e.what());
  } catch (...) {
    for (std::size_t i = 0; i < items.size(); ++i)
      if (replies[i].empty())
        reply_error(i, WireCode::kInternal, "unknown batch handler failure");
  }
  // Reply-scatter: one lock and one wake for the whole batch; each item
  // routes back to its own originating connection.
  reactor.complete_batch(items.size(), [&](std::size_t i) {
    return net::FrameServer::Completion{items[i].connection_id,
                                        std::move(replies[i])};
  });
}

}  // namespace ppuf::server
