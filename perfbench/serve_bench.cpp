// Serving benchmark: drives in-process AuthServers (and, on one workload,
// a fleet Gateway) over loopback and prints one JSON result line.
//
//   perfbench_serve --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --workdir <dir> [--source <id>]
//
// Workloads (see NOTES.md for why each exists and which layers it loads):
//   auth_uncached        registry server with `ppuf_tool serve` defaults;
//                        PREDICTs of fresh challenges and VERIFYs of honest
//                        chip reports, plus chained-auth sessions.
//   hot_gateway          Gateway over two coalescing, response-cached
//                        shards; PREDICTs from a pool answered once during
//                        set-up, so every timed read is a cache hit.
//   enroll_beside_reads  one shard; paced ENROLLs beside PREDICTs over a
//                        device working set larger than the hydration cache.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 sets up once, runs
// the same workload untraced and then traced (obs metrics on, client spans
// recorded), replays a sample of the traced requests through the public
// layer calls, and prints the per-layer metrics.
#include <sys/resource.h>


#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "backend/backend.hpp"
#include "fleet/gateway.hpp"
#include "fleet/ring.hpp"
#include "harness.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "ppuf/challenge.hpp"
#include "ppuf/response_cache.hpp"
#include "registry/device_registry.hpp"
#include "registry/hydration_cache.hpp"
#include "server/auth_server.hpp"

namespace {

using namespace ppuf;
using perfbench::Clock;
using perfbench::Endpoint;
using perfbench::ReadKind;
using perfbench::ReadRequest;
using perfbench::SpanLog;
using perfbench::kWarmupS;
using perfbench::us_between;
using util::Status;

constexpr std::size_t kNodes = 24;
constexpr std::size_t kGrid = 6;
constexpr std::size_t kSampleEvery = 32;  ///< oracle / replay sampling
constexpr std::size_t kReplayLimit = 256;
/// Cap on sampled fresh PREDICTs, so the oracle's memory does not grow
/// with throughput.
constexpr std::size_t kOracleSampleLimit = 2048;
constexpr std::size_t kReplayEnrolls = 4;

// --- workload definitions --------------------------------------------------

struct Spec {
  std::string name;
  /// Every shard's options; the defaults are `ppuf_tool serve`'s.
  server::AuthServerOptions server;
  std::size_t shards = 1;            ///< > 1: a Gateway fronts them
  std::size_t devices = 4;           ///< enrolled during set-up
  std::size_t read_connections = 3;  ///< one outstanding read each
  /// Half the reads VERIFY honest reports from a pool of this many per
  /// device; 0 = PREDICTs only.
  std::size_t verify_pool_per_device = 0;
  std::size_t predict_pool_per_device = 0;  ///< 0 = fresh challenges
  double enroll_period_s = 0.0;      ///< 0 = no paced enrolls
  /// Pause between sessions.  Each session's chip simulation keeps one
  /// core busy, so where sessions are not the workload's point they leave
  /// the cores to the layers the workload is for.
  double session_think_s = 0.0;
  /// setup_s is the median of the half of these with the least host steal
  int setup_repeats = 5;
  /// Windows of the read and session statistics.  Host steal comes in
  /// bursts of a fraction of a second, so short windows let some of every
  /// run's windows see almost none; the statistics pool the windows with
  /// the least steal.  A window must hold the same mix of work as every
  /// other, though: an idle vCPU is never stolen from, so windows in which
  /// the program stalls would look the cleanest.
  double window_s = 0.25;

  bool gateway() const { return shards > 1; }
};

constexpr double kVerifyShare = 0.5;
constexpr std::size_t kSessionDevices = 2;
/// p90, not p99, for reads as well as sessions: on a host that deschedules
/// this guest's vCPUs, a few percent of requests stall for milliseconds,
/// and p99 then measures the host rather than the program.  p90 still sits
/// inside the hydration-miss distribution (20% of reads) where one exists.
constexpr double kReadTailQ = 0.90;
constexpr double kSessionTailQ = 0.90;


std::optional<Spec> spec_for(const std::string& name) {
  Spec s;
  s.name = name;
  if (name == "auth_uncached") {
    s.verify_pool_per_device = 128;
  } else if (name == "hot_gateway") {
    s.shards = 2;
    // Coalesce whatever one event-loop pass has gathered, without waiting:
    // the cache answers each batch at once.
    s.server.coalesce_max_batch = 16;
    s.server.coalesce_wait_us = 0;
    s.server.response_cache_bytes = std::size_t{16} << 20;
    s.predict_pool_per_device = 32;
    s.session_think_s = 0.005;
  } else if (name == "enroll_beside_reads") {
    // Two workers, so a read stalls on the registry mutex an enroll holds
    // rather than merely queueing behind the enroll on a single worker.
    s.server.threads = 2;
    s.devices = 10;  // > the hydration cache's 8 entries
    s.read_connections = 2;
    s.enroll_period_s = 1.0;
    s.session_think_s = 0.005;
    s.setup_repeats = 3;  // ten enrolls each; enroll_p50_us comes from the
                          // paced enrolls here
    s.window_s = s.enroll_period_s;  // one enroll stall in every window
  } else {
    return std::nullopt;
  }
  return s;
}

// --- inputs ----------------------------------------------------------------

std::string shard_name(std::size_t i) {
  std::string name = "s";
  name += std::to_string(i);
  return name;
}

/// Everything the generator derives from --seed before the program starts.
struct Inputs {
  std::vector<std::uint64_t> device_seeds;
  std::vector<std::uint64_t> requested_ids;  ///< 0 = shard assigns
  std::uint64_t challenge_seed = 0;
  std::uint64_t read_seed = 0;
  std::uint64_t enroll_seed_base = 0;
  std::uint64_t replay_seed = 0;
};

Inputs make_inputs(const Spec& spec, std::uint64_t seed) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  Inputs in;
  for (std::size_t i = 0; i < spec.devices; ++i)
    in.device_seeds.push_back(1 + rng() % 1000000000ULL);
  in.challenge_seed = rng() | 1;
  in.read_seed = rng();
  in.enroll_seed_base = 2000000000ULL + rng() % 1000000000ULL;
  in.replay_seed = rng();
  if (spec.gateway()) {
    // Explicit ids, half owned by each shard, so every seed loads both.
    fleet::HashRing ring;
    for (std::size_t s = 0; s < spec.shards; ++s)
      ring.add(shard_name(s));
    std::map<std::string, std::size_t> per_shard;
    const std::size_t quota = spec.devices / spec.shards;
    while (in.requested_ids.size() < spec.devices) {
      const std::uint64_t id = 1 + rng() % (1ULL << 40);
      std::size_t& owned = per_shard[ring.route(id)];
      if (owned < quota) {
        ++owned;
        in.requested_ids.push_back(id);
      }
    }
  } else {
    in.requested_ids.assign(spec.devices, 0);
  }
  return in;
}

// --- the program under test ------------------------------------------------

struct Shard {
  std::unique_ptr<registry::DeviceRegistry> registry;
  std::unique_ptr<server::AuthServer> server;
};

struct Fleet {
  std::vector<Shard> shards;
  std::unique_ptr<fleet::Gateway> gateway;
  Endpoint front;                     ///< where clients connect
  std::vector<std::uint64_t> ids;     ///< enrolled device ids, input order
  std::vector<double> enroll_us;      ///< set-up ENROLL round trips

  void stop() {
    if (gateway) gateway->stop();
    for (Shard& s : shards)
      if (s.server) s.server->stop();
  }
  ~Fleet() { stop(); }

  std::size_t owner(std::uint64_t id) const {
    for (std::size_t i = 0; i < shards.size(); ++i)
      if (shards[i].registry->contains(id)) return i;
    return 0;
  }
  Endpoint shard_endpoint(std::size_t i) const {
    return {"127.0.0.1", shards[i].server->port()};
  }
};

/// A pooled read: which device (input order), the challenge, and the
/// encoded request.
struct PoolEntry {
  std::size_t device = 0;
  Challenge challenge;
  std::vector<std::uint8_t> payload;       ///< encoded request
  SimulationModel::Prediction expected;    ///< predict pools
  std::vector<std::uint8_t> seen_reply;    ///< first reply payload seen
};

/// One blocking raw-frame round trip on `socket` (connected on first use).
Status raw_round_trip(const Endpoint& endpoint, net::Socket* socket,
                      net::MessageType type, std::uint64_t request_id,
                      std::uint64_t device_id,
                      const std::vector<std::uint8_t>& payload,
                      net::Frame* reply) {
  if (!socket->valid()) {
    if (Status s = net::connect_tcp(endpoint.host, endpoint.port, 2000, socket);
        !s.is_ok())
      return s;
  }
  const std::vector<std::uint8_t> bytes =
      net::encode_frame(type, request_id, device_id, 0, payload);
  const util::Deadline deadline = util::Deadline::after_seconds(10.0);
  if (Status s = net::send_all(socket->fd(), bytes.data(), bytes.size(),
                               deadline);
      !s.is_ok())
    return s;
  if (Status s = net::read_frame(socket->fd(), reply, deadline); !s.is_ok())
    return s;
  if (reply->request_id != request_id)
    return Status::internal("reply id mismatch");
  return Status::ok();
}

/// Program set-up: registries, servers, gateway, enrollments and cache
/// warm-up.  Everything here is the program's own work; readiness is a
/// successful request, never a sleep.
Status set_up(const Spec& spec, const Inputs& in,
              const std::vector<PoolEntry>& predict_pool,
              const std::string& dir, Fleet* fleet) {
  std::filesystem::remove_all(dir);
  fleet->shards.resize(spec.shards);
  for (std::size_t i = 0; i < spec.shards; ++i) {
    Shard& shard = fleet->shards[i];
    shard.registry = std::make_unique<registry::DeviceRegistry>();
    if (Status s = shard.registry->open(dir + "/shard" + std::to_string(i));
        !s.is_ok())
      return s;
    server::AuthServerOptions o = spec.server;
    o.challenge_seed = in.challenge_seed + i;
    shard.server = std::make_unique<server::AuthServer>(*shard.registry, o);
    if (Status s = shard.server->start(); !s.is_ok()) return s;
  }
  fleet->front = fleet->shard_endpoint(0);
  if (spec.gateway()) {
    fleet->gateway = std::make_unique<fleet::Gateway>(fleet::GatewayOptions{});
    for (std::size_t i = 0; i < spec.shards; ++i)
      if (Status s = fleet->gateway->add_shard(
              shard_name(i), "127.0.0.1",
              fleet->shards[i].server->port());
          !s.is_ok())
        return s;
    if (Status s = fleet->gateway->start(); !s.is_ok()) return s;
    fleet->front = {"127.0.0.1", fleet->gateway->port()};
  }

  // Enroll over the wire, one device at a time.  Through a gateway the
  // first enroll doubles as the readiness wait: it is answered
  // SHARD_UNAVAILABLE (and never forwarded) until the health prober has
  // seen the owning shard up.
  for (std::size_t i = 0; i < spec.devices; ++i) {
    net::AuthClient client(fleet->front.host, fleet->front.port,
                           perfbench::no_retry_client(in.requested_ids[i]));
    net::EnrollRequestBody body;
    body.node_count = kNodes;
    body.grid_size = kGrid;
    body.fabrication_seed = in.device_seeds[i];
    body.label = "perfbench";
    std::uint64_t assigned = 0;
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
    for (;;) {
      const Clock::time_point t0 = Clock::now();
      const Status s =
          client.enroll_device(body, in.requested_ids[i], &assigned);
      if (s.is_ok()) {
        fleet->enroll_us.push_back(us_between(t0, Clock::now()));
        break;
      }
      if (s.code() != util::StatusCode::kUnavailable || Clock::now() > give_up)
        return Status::internal("set-up enroll: " + s.to_string());
    }
    fleet->ids.push_back(assigned);
  }

  // Warm-up: hydrate every device (the hydration cache keeps the last 8)
  // and, where a response cache is on, answer the whole read pool once.
  net::Socket socket;
  net::Frame reply;
  std::uint64_t request_id = 1;
  const auto warm = [&](std::uint64_t id, const Challenge& c) -> Status {
    if (Status s = raw_round_trip(fleet->front, &socket,
                                  net::MessageType::kPredictRequest,
                                  request_id++, id,
                                  net::encode_predict_request(c), &reply);
        !s.is_ok())
      return s;
    if (reply.type != net::MessageType::kPredictReply)
      return Status::internal("set-up warm-up predict failed");
    return Status::ok();
  };
  if (!predict_pool.empty()) {
    for (const PoolEntry& e : predict_pool)
      if (Status s = warm(fleet->ids[e.device], e.challenge); !s.is_ok())
        return s;
  } else {
    util::Rng rng(in.read_seed ^ 0x5bd1e995);
    const CrossbarLayout layout(kNodes, kGrid);
    for (const std::uint64_t id : fleet->ids)
      if (Status s = warm(id, random_challenge(layout, rng)); !s.is_ok())
        return s;
  }
  return Status::ok();
}

// --- generator-side references ---------------------------------------------

struct DeviceRef {
  std::uint64_t id = 0;
  std::unique_ptr<SimulationModel> model;
  std::unique_ptr<protocol::Verifier> verifier;
  std::unique_ptr<MaxFlowPpuf> chip;  ///< only where the chip proves
};

struct PredictSample {
  std::uint64_t request_id = 0;
  std::size_t device = 0;
  Challenge challenge;
  SimulationModel::Prediction reply;
};

/// What one timed phase measured.
struct Phase {
  perfbench::ReadLoopResult reads;
  perfbench::SessionLoopResult sessions;
  std::vector<PredictSample> predict_samples;  ///< fresh-challenge predicts
  /// Sampled pool reads: (request id, pool item).
  std::vector<std::pair<std::uint64_t, std::size_t>> sampled_pool_requests;
  std::size_t pool_reads = 0;
  /// Hydration-cache model: an LRU of the server's capacity fed the read
  /// device ids in send order.
  std::size_t lru_misses = 0, lru_accesses = 0;
  std::size_t verify_reads = 0, verify_accepted = 0;
  std::string first_error;
};

class Bench {
 public:
  Bench(Spec spec, Inputs inputs, std::string workdir)
      : spec_(std::move(spec)), in_(std::move(inputs)),
        workdir_(std::move(workdir)),
        layout_(kNodes, kGrid) {
    // The predict pool exists before set-up: set-up answers it once.
    util::Rng rng(in_.read_seed ^ 0x27d4eb2f);
    for (std::size_t d = 0; d < spec_.devices; ++d)
      for (std::size_t k = 0; k < spec_.predict_pool_per_device; ++k) {
        PoolEntry e;
        e.device = d;
        e.challenge = random_challenge(layout_, rng);
        e.payload = net::encode_predict_request(e.challenge);
        predict_pool_.push_back(std::move(e));
      }
  }

  /// Chips for the devices the generator proves with (input preparation,
  /// outside every timed interval).  Characterisation runs here, once.
  void prepare_chips() {
    PpufParams params;
    params.node_count = kNodes;
    params.grid_size = kGrid;
    chips_.resize(spec_.devices);
    const std::size_t provers = spec_.verify_pool_per_device > 0
                                    ? spec_.devices
                                    : std::min(kSessionDevices, spec_.devices);
    for (std::size_t d = 0; d < provers; ++d) {
      chips_[d] = std::make_unique<MaxFlowPpuf>(params, in_.device_seeds[d]);
      chips_[d]->prepare(circuit::Environment::nominal());
    }
  }

  /// One program set-up; returns its wall time in seconds.
  Status set_up_once(const std::string& dir, double* seconds) {
    fleet_ = std::make_unique<Fleet>();
    const Clock::time_point t0 = Clock::now();
    Status s = set_up(spec_, in_, predict_pool_, dir, fleet_.get());
    *seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    setup_enroll_us_.insert(setup_enroll_us_.end(), fleet_->enroll_us.begin(),
                            fleet_->enroll_us.end());
    return s;
  }

  void tear_down() {
    if (fleet_) fleet_->stop();
    fleet_.reset();
  }

  /// References from the served registries: public models, verifiers,
  /// honest VERIFY pools and expected predictions (input preparation).
  Status prepare_references() {
    refs_.clear();
    for (std::size_t d = 0; d < spec_.devices; ++d) {
      DeviceRef ref;
      ref.id = fleet_->ids[d];
      ref.model = std::make_unique<SimulationModel>();
      const registry::DeviceRegistry& reg =
          *fleet_->shards[fleet_->owner(ref.id)].registry;
      if (Status s = reg.load_model(ref.id, ref.model.get()); !s.is_ok())
        return s;
      ref.verifier = std::make_unique<protocol::Verifier>(
          *ref.model, spec_.server.verifier_deadline_seconds,
          ref.model->mean_capacity() * spec_.server.flow_tolerance_fraction);
      ref.chip = std::move(chips_[d]);
      refs_.push_back(std::move(ref));
    }
    util::Rng rng(in_.read_seed ^ 0x68e31da4);
    // Honest reports the in-process verifier accepts.  The chip's analog
    // flows miss the verifier's tolerance on ~1% of n=24 challenges (model
    // fidelity, not serving); those challenges stay out of the read mix.
    for (std::size_t d = 0; d < spec_.devices && spec_.verify_pool_per_device > 0;
         ++d) {
      std::size_t kept = 0;
      while (kept < spec_.verify_pool_per_device) {
        PoolEntry e;
        e.device = d;
        e.challenge = random_challenge(layout_, rng);
        const protocol::ProverReport report =
            protocol::prove_with_ppuf(*refs_[d].chip, e.challenge, 1e-3);
        ++verify_pool_tried_;
        if (!refs_[d].verifier->verify(e.challenge, report).accepted) continue;
        e.payload = net::encode_verify_request(e.challenge, report);
        verify_pool_.push_back(std::move(e));
        ++kept;
      }
    }
    // Only the session devices prove from here on.
    for (std::size_t d = kSessionDevices; d < refs_.size(); ++d)
      refs_[d].chip.reset();
    for (PoolEntry& e : predict_pool_)
      e.expected = refs_[e.device].model->predict(
          e.challenge, maxflow::Algorithm::kPushRelabel);
    return Status::ok();
  }

  /// One timed phase: reads (and paced enrolls) on this thread, sessions
  /// on a second one.
  Phase run_phase(double seconds, SpanLog* spans, std::uint64_t phase_seed) {
    Phase phase;
    util::Rng rng(in_.read_seed ^ phase_seed);
    perfbench::ReadLoopConfig rc;
    rc.connections.assign(spec_.read_connections, fleet_->front);
    rc.seconds = seconds;
    rc.window_s = spec_.window_s;
    rc.spans = spans;
    rc.enroll_period_s = spec_.enroll_period_s;
    std::map<std::size_t, std::size_t> fresh_sample;  // read index -> sample
    perfbench::ReadLoopCallbacks cb;
    const std::size_t lru_capacity = spec_.server.hydration_cache_entries;
    std::vector<std::uint64_t> lru;
    const auto touch = [&](std::uint64_t id) {
      ++phase.lru_accesses;
      const auto it = std::find(lru.begin(), lru.end(), id);
      if (it == lru.end()) {
        ++phase.lru_misses;
        if (lru.size() == lru_capacity) lru.pop_back();
      } else {
        lru.erase(it);
      }
      lru.insert(lru.begin(), id);
    };
    const auto next_read = [&](std::size_t index, ReadRequest* r) {
      const bool verify = !verify_pool_.empty() && rng.uniform() < kVerifyShare;
      if (verify) {
        r->kind = ReadKind::kVerify;
        r->item = static_cast<std::size_t>(rng() % verify_pool_.size());
        r->device_id = refs_[verify_pool_[r->item].device].id;
        r->payload = verify_pool_[r->item].payload;
        return;
      }
      r->kind = ReadKind::kPredict;
      if (!predict_pool_.empty()) {
        r->item = static_cast<std::size_t>(rng() % predict_pool_.size());
        r->device_id = refs_[predict_pool_[r->item].device].id;
        r->payload = predict_pool_[r->item].payload;
        return;
      }
      const std::size_t device = static_cast<std::size_t>(rng() % refs_.size());
      const Challenge c = random_challenge(layout_, rng);
      r->device_id = refs_[device].id;
      r->payload = net::encode_predict_request(c);
      r->item = index;
      if (index % kSampleEvery == 0 &&
          phase.predict_samples.size() < kOracleSampleLimit) {
        fresh_sample[index] = phase.predict_samples.size();
        PredictSample s;
        s.device = device;
        s.challenge = c;
        phase.predict_samples.push_back(std::move(s));
      }
    };
    cb.next = [&](std::size_t index, ReadRequest* r) {
      next_read(index, r);
      touch(r->device_id);
    };
    cb.check = [&](const ReadRequest& r, const net::Frame& f) {
      const auto fail = [&](const std::string& why) {
        if (phase.first_error.empty()) phase.first_error = why;
        return false;
      };
      if (f.type == net::MessageType::kErrorReply) {
        net::ErrorReply e;
        net::decode_error_reply(f.payload, &e);
        return fail(std::string("error reply: ") + net::wire_code_name(e.code) +
                    " " + e.message);
      }
      if (r.kind == ReadKind::kVerify) {
        ++phase.verify_reads;
        protocol::AuthenticationResult v;
        if (f.type != net::MessageType::kVerifyReply ||
            !net::decode_verify_reply(f.payload, &v).is_ok())
          return fail("bad VERIFY reply");
        if (!v.accepted) return fail("honest VERIFY rejected: " + v.detail);
        ++phase.verify_accepted;
        return true;
      }
      SimulationModel::Prediction p;
      if (f.type != net::MessageType::kPredictReply ||
          !net::decode_predict_reply(f.payload, &p).is_ok())
        return fail("bad PREDICT reply");
      if (!predict_pool_.empty()) {
        PoolEntry& e = predict_pool_[r.item];
        if (p.bit != e.expected.bit || p.flow_a != e.expected.flow_a ||
            p.flow_b != e.expected.flow_b)
          return fail("PREDICT differs from the in-process model");
        if (e.seen_reply.empty()) e.seen_reply = f.payload;
        if (e.seen_reply != f.payload)
          return fail("PREDICT reply bytes changed between reads");
        if (phase.pool_reads++ % kSampleEvery == 0 &&
            phase.sampled_pool_requests.size() < kReplayLimit)
          phase.sampled_pool_requests.emplace_back(f.request_id, r.item);
        return true;
      }
      const auto it = fresh_sample.find(r.item);
      if (it != fresh_sample.end()) {
        phase.predict_samples[it->second].reply = p;
        phase.predict_samples[it->second].request_id = f.request_id;
      }
      return true;
    };
    cb.enroll_body = [&](std::size_t k) {
      net::EnrollRequestBody body;
      body.node_count = kNodes;
      body.grid_size = kGrid;
      body.fabrication_seed = in_.enroll_seed_base + enrolls_sent_ + k;
      body.label = "perfbench-paced";
      return body;
    };

    perfbench::SessionLoopConfig sc;
    sc.endpoint = fleet_->front;
    sc.seconds = seconds;
    sc.window_s = spec_.window_s;
    sc.spans = spans;
    sc.think_s = spec_.session_think_s;
    for (std::size_t d = 0; d < kSessionDevices && d < refs_.size(); ++d)
      sc.devices.push_back({refs_[d].id, refs_[d].chip.get(),
                            refs_[d].verifier.get(), refs_[d].model.get()});
    std::thread sessions([&] { phase.sessions = perfbench::run_session_loop(sc); });
    phase.reads = perfbench::run_read_loop(rc, cb);
    sessions.join();
    enrolls_sent_ += phase.reads.enrolls.size();
    return phase;
  }

  /// Post-phase oracle; returns the number of mismatches and records the
  /// first one.
  std::size_t check(const Phase& phase, std::string* first) {
    std::size_t mismatches = 0;
    const auto miss = [&](const std::string& why) {
      if (mismatches++ == 0) *first = why;
    };
    for (const PredictSample& s : phase.predict_samples) {
      if (s.request_id == 0) continue;  // not answered (counted as failure)
      const SimulationModel::Prediction p = refs_[s.device].model->predict(
          s.challenge, maxflow::Algorithm::kPushRelabel);
      if (p.bit != s.reply.bit || p.flow_a != s.reply.flow_a ||
          p.flow_b != s.reply.flow_b)
        miss("sampled PREDICT differs from the in-process model");
    }
    // Gateway replies must be byte-identical to the owning shard's.
    if (spec_.gateway()) {
      std::vector<net::Socket> direct(fleet_->shards.size());
      std::uint64_t id = 1;
      for (const PoolEntry& e : predict_pool_) {
        if (e.seen_reply.empty()) continue;
        const std::size_t owner = fleet_->owner(refs_[e.device].id);
        net::Frame reply;
        if (!raw_round_trip(fleet_->shard_endpoint(owner), &direct[owner],
                            net::MessageType::kPredictRequest, id++,
                            refs_[e.device].id, e.payload, &reply)
                 .is_ok() ||
            reply.payload != e.seen_reply)
          miss("gateway reply differs from the direct-to-shard reply");
      }
    }
    // Paced enrolls: distinct ids, each resolvable to the model its seed
    // fabricates (checked through a PREDICT on the served device).
    std::set<std::uint64_t> ids;
    net::Socket socket;
    std::uint64_t rid = 1;
    util::Rng rng(in_.replay_seed);
    for (const perfbench::EnrollSample& e : phase.reads.enrolls) {
      if (!e.ok) continue;
      if (!ids.insert(e.device_id).second) miss("enroll id assigned twice");
      SimulationModel model;
      const registry::DeviceRegistry& reg =
          *fleet_->shards[fleet_->owner(e.device_id)].registry;
      if (!reg.load_model(e.device_id, &model).is_ok()) {
        miss("enrolled id does not resolve in the registry");
        continue;
      }
      const Challenge c = random_challenge(layout_, rng);
      net::Frame reply;
      SimulationModel::Prediction p;
      if (!raw_round_trip(fleet_->front, &socket,
                          net::MessageType::kPredictRequest, rid++,
                          e.device_id, net::encode_predict_request(c), &reply)
               .is_ok() ||
          reply.type != net::MessageType::kPredictReply ||
          !net::decode_predict_reply(reply.payload, &p).is_ok() ||
          p.bit != model.predict(c, maxflow::Algorithm::kPushRelabel).bit)
        miss("enrolled device is not served");
    }
    return mismatches;
  }

  // --- traced-run replay ---------------------------------------------------

  /// Replays sampled requests of `phase` through the public layer calls
  /// the server makes for them, recording spans into `log`.
  void replay(const Phase& phase, SpanLog* log,
              std::map<std::string, double>* out) {
    registry::HydrationCache::Options ho;  // as the server configures it
    ho.max_entries = spec_.server.hydration_cache_entries;
    ho.verifier_deadline_seconds = spec_.server.verifier_deadline_seconds;
    ho.flow_tolerance_fraction = spec_.server.flow_tolerance_fraction;
    std::vector<std::unique_ptr<registry::HydrationCache>> caches;
    for (const Shard& s : fleet_->shards)
      caches.push_back(
          std::make_unique<registry::HydrationCache>(*s.registry, ho));
    // The hot workload's shards answer from their response caches; the
    // replay gets a cache answered once, like set-up did.
    std::unique_ptr<ResponseCache> response_cache;
    if (spec_.server.response_cache_bytes > 0) {
      response_cache =
          std::make_unique<ResponseCache>(spec_.server.response_cache_bytes);
      for (const PoolEntry& e : predict_pool_) {
        SimulationModel::PredictBatchOptions po;
        po.cache = response_cache.get();
        po.cache_device_id = refs_[e.device].id;
        refs_[e.device].model->predict_batch({e.challenge}, po);
      }
    }
    std::map<std::uint64_t, double> client_rtt;
    for (const perfbench::ReadSample& r : phase.reads.reads)
      client_rtt[r.request_id] = r.latency_us;

    struct Item {
      std::uint64_t request_id;
      std::size_t device;
      ReadKind kind;
      Challenge challenge;
      protocol::ProverReport report;  ///< VERIFY only
    };
    std::vector<Item> items;
    for (const PredictSample& s : phase.predict_samples)
      if (s.request_id != 0 && items.size() < kReplayLimit)
        items.push_back({s.request_id, s.device, ReadKind::kPredict,
                         s.challenge, {}});
    for (const auto& [id, item] : phase.sampled_pool_requests) {
      const PoolEntry& e = predict_pool_[item];
      items.push_back({id, e.device, ReadKind::kPredict, e.challenge, {}});
    }
    std::size_t v = 0;
    for (const perfbench::ReadSample& r : phase.reads.reads) {
      if (r.kind != ReadKind::kVerify || v >= kReplayLimit) continue;
      if (r.request_id % kSampleEvery != 0) continue;
      const PoolEntry& e = verify_pool_[r.item];
      Item item{r.request_id, e.device, ReadKind::kVerify, {}, {}};
      net::decode_verify_request(e.payload, &item.challenge, &item.report);
      items.push_back(std::move(item));
      ++v;
    }

    const bool coalescing = spec_.server.coalesce_max_batch > 1;
    std::vector<double> residual, encode_us, decode_us, report_encode,
        report_decode, predict_us, verify_us;
    double backend_total = 0.0, inprocess_total = 0.0;
    for (const Item& it : items) {
      const std::uint64_t id = refs_[it.device].id;
      const int root = log->begin("replay.read", -1, it.request_id);
      std::vector<std::pair<std::string, double>> leaves;
      const auto timed = [&](const std::string& name, auto&& fn) {
        const Clock::time_point a = Clock::now();
        fn();
        const Clock::time_point b = Clock::now();
        log->add(name, a, b, root, it.request_id);
        leaves.emplace_back(name, us_between(a, b));
        return us_between(a, b);
      };
      const bool verify = it.kind == ReadKind::kVerify;
      const net::MessageType req_type = verify
                                            ? net::MessageType::kVerifyRequest
                                            : net::MessageType::kPredictRequest;
      std::vector<std::uint8_t> payload, frame_bytes, reply_payload,
          reply_bytes;
      net::Frame frame, reply_frame;
      std::size_t consumed = 0;
      const double pe = timed("protocol.request_encode", [&] {
        payload = verify ? net::encode_verify_request(it.challenge, it.report)
                         : net::encode_predict_request(it.challenge);
      });
      encode_us.push_back(timed("net.frame_encode", [&] {
        frame_bytes = net::encode_frame(req_type, it.request_id, id, 0, payload);
      }));
      decode_us.push_back(timed("net.frame_decode", [&] {
        net::decode_frame(frame_bytes.data(), frame_bytes.size(), &frame,
                          &consumed);
      }));
      Challenge c;
      protocol::ProverReport report;
      const double pd = timed("protocol.request_decode", [&] {
        if (verify)
          net::decode_verify_request(frame.payload, &c, &report);
        else
          net::decode_predict_request(frame.payload, &c);
      });
      if (verify) {
        report_encode.push_back(pe);
        report_decode.push_back(pd);
      }
      std::shared_ptr<const registry::HydratedDevice> device;
      Status hydrated;
      timed("registry.hydrate", [&] {
        hydrated = caches[fleet_->owner(id)]->get(id, &device);
      });
      if (!hydrated.is_ok()) {
        log->end(root);
        continue;
      }
      SimulationModel::Prediction prediction;
      protocol::AuthenticationResult verdict;
      // The call the server makes: per-frame dispatch answers one item
      // through predict/verify, a coalescing server through the batch
      // calls with its response cache.
      const double b = timed(verify ? "backend.verify" : "backend.predict", [&] {
        const backend::Device& d = *device->device;
        if (verify && coalescing) {
          verdict = d.verify_batch({c}, {report}, {})[0];
        } else if (verify) {
          verdict = d.verify(c, report);
        } else if (coalescing) {
          SimulationModel::PredictBatchOptions po;
          po.cache = response_cache.get();
          po.cache_device_id = id;
          prediction = d.predict_batch({c}, po)[0];
        } else {
          prediction = d.predict(c, {});
        }
      });
      (verify ? verify_us : predict_us).push_back(b);
      backend_total += b;
      timed("protocol.reply_encode", [&] {
        reply_payload = verify ? net::encode_verify_reply(verdict)
                               : net::encode_predict_reply(prediction);
      });
      encode_us.push_back(timed("net.frame_encode", [&] {
        reply_bytes = net::encode_frame(
            verify ? net::MessageType::kVerifyReply
                   : net::MessageType::kPredictReply,
            it.request_id, id, 0, reply_payload);
      }));
      decode_us.push_back(timed("net.frame_decode", [&] {
        net::decode_frame(reply_bytes.data(), reply_bytes.size(), &reply_frame,
                          &consumed);
      }));
      timed("protocol.reply_decode", [&] {
        if (verify) {
          protocol::AuthenticationResult r;
          net::decode_verify_reply(reply_frame.payload, &r);
        } else {
          SimulationModel::Prediction p;
          net::decode_predict_reply(reply_frame.payload, &p);
        }
      });
      log->end(root);
      double layers = 0.0;
      for (const auto& [name, us] : leaves) layers += us;
      inprocess_total += layers;
      const auto rtt = client_rtt.find(it.request_id);
      if (rtt != client_rtt.end()) residual.push_back(rtt->second - layers);
    }
    using perfbench::percentile;
    (*out)["net.frame_encode_us"] = percentile(encode_us, 0.5);
    (*out)["net.frame_decode_us"] = percentile(decode_us, 0.5);
    (*out)["protocol.report_encode_us"] = percentile(report_encode, 0.5);
    (*out)["protocol.report_decode_us"] = percentile(report_decode, 0.5);
    (*out)["server.residual_us"] = percentile(residual, 0.5);
    (*out)["backend.predict_us"] = percentile(predict_us, 0.5);
    (*out)["backend.verify_us"] = percentile(verify_us, 0.5);
    (*out)["backend.inprocess_share"] =
        inprocess_total > 0 ? backend_total / inprocess_total : 0.0;
    const std::vector<double> hydrate = log->durations("registry.hydrate");
    (*out)["registry.hydrate_p50_us"] = percentile(hydrate, 0.5);
    (*out)["registry.hydrate_tail_us"] = percentile(hydrate, 0.99);

    // Chained sessions sampled during the traced phase.
    std::vector<double> chain_us;
    util::Rng spot(in_.replay_seed);
    for (const perfbench::SessionRecord& s : phase.sessions.samples) {
      std::shared_ptr<const registry::HydratedDevice> device;
      if (!caches[fleet_->owner(s.device_id)]->get(s.device_id, &device).is_ok())
        continue;
      const Clock::time_point a = Clock::now();
      device->device->verify_chain(s.grant.challenge, s.grant.chain_length,
                                   s.grant.nonce, s.report, 2, spot);
      const Clock::time_point b = Clock::now();
      log->add("backend.verify_chain", a, b, -1, 0);
      chain_us.push_back(us_between(a, b));
    }
    (*out)["backend.verify_chain_us"] = percentile(chain_us, 0.5);
  }

  /// Enrollments into a scratch registry: DeviceRegistry::enroll, and the
  /// same fabrication through PufBackend::fabricate with the registry's
  /// shared symbolic cache just before it (the fabricate a real enroll
  /// makes inside its own call).
  void replay_enrolls(SpanLog* log, std::map<std::string, double>* out) {
    const std::string dir = workdir_ + "/replay-registry";
    std::filesystem::remove_all(dir);
    registry::DeviceRegistry reg;
    registry::EnrollRequest req;
    req.node_count = kNodes;
    req.grid_size = kGrid;
    req.seed = in_.enroll_seed_base + 900000;
    std::uint64_t id = 0;
    // The first enroll builds the registry's shared symbolic cache.
    if (!reg.open(dir).is_ok() || !reg.enroll(req, &id).is_ok()) return;
    const backend::PufBackend* fab =
        backend::find_backend(backend::BackendKind::kMaxFlow);
    obs::MetricsRegistry& m = obs::MetricsRegistry::global();
    m.reset();
    std::vector<double> fabricate_us, enroll_us, self_us;  // self: PDL below
    for (std::size_t k = 0; k < kReplayEnrolls; ++k) {
      req.seed = in_.enroll_seed_base + 900001 + k;
      const int root = log->begin("replay.enroll", -1, k);
      backend::FabricateRequest fr{kNodes, kGrid, req.seed};
      std::vector<std::uint8_t> blob;
      const Clock::time_point f0 = Clock::now();
      fab->fabricate(fr, reg.enroll_symbolic_cache(), &blob);
      const Clock::time_point f1 = Clock::now();
      reg.enroll(req, &id);
      const Clock::time_point e1 = Clock::now();
      log->add("backend.fabricate", f0, f1, root, k);
      log->add("registry.enroll", f1, e1, root, k);
      log->end(root);
      fabricate_us.push_back(us_between(f0, f1));
      enroll_us.push_back(us_between(f1, e1));
    }
    using perfbench::percentile;
    (*out)["backend.fabricate_us"] = percentile(fabricate_us, 0.5);
    (*out)["registry.enroll_us"] = percentile(enroll_us, 0.5);
    // Each replayed enroll fabricated twice (backend call + enroll).
    const double fabrications = 2.0 * kReplayEnrolls;
    const double solves =
        static_cast<double>(m.counter_value("circuit.dc.solves"));
    (*out)["circuit.dc.solves_per_enroll"] = solves / fabrications;
    (*out)["circuit.dc.newton_iterations_per_solve"] =
        solves > 0
            ? static_cast<double>(m.counter_value("circuit.dc.newton_iterations")) /
                  solves
            : 0.0;
    (*out)["circuit.dc.solve_us"] =
        m.histogram_snapshot("circuit.dc.solve_time_us").mean();

    // The registry's own work per enroll (validation, WAL append, fsync,
    // bookkeeping) is ~1 ms, far below the run-to-run spread of a 0.3 s
    // max-flow fabrication, so the pairs above cannot resolve it.  A PDL
    // device takes the same registry path with a fabrication of a few
    // microseconds, timed on its own and subtracted.
    const backend::PufBackend* pdl =
        backend::find_backend(backend::BackendKind::kPdlDelay);
    registry::EnrollRequest small;
    small.backend = backend::BackendKind::kPdlDelay;
    small.node_count = 64;
    small.grid_size = 4;
    for (std::size_t k = 0; k < 2 * kReplayEnrolls; ++k) {
      small.seed = in_.enroll_seed_base + 950000 + k;
      const int root = log->begin("replay.enroll_pdl", -1, k);
      backend::FabricateRequest fr{small.node_count, small.grid_size,
                                   small.seed};
      std::vector<std::uint8_t> blob;
      const Clock::time_point f0 = Clock::now();
      pdl->fabricate(fr, nullptr, &blob);
      const Clock::time_point f1 = Clock::now();
      reg.enroll(small, &id);
      const Clock::time_point e1 = Clock::now();
      log->add("backend.fabricate_pdl", f0, f1, root, k);
      log->add("registry.enroll_pdl", f1, e1, root, k);
      log->end(root);
      self_us.push_back(us_between(f1, e1) - us_between(f0, f1));
    }
    (*out)["registry.enroll_self_us"] = percentile(self_us, 0.5);
    std::filesystem::remove_all(dir);
  }

  /// Gateway hop: the same pooled requests sent alternately through the
  /// gateway and straight to the owning shard, one at a time.
  double measure_hop() {
    if (!spec_.gateway()) return 0.0;
    net::Socket via_gateway;
    std::vector<net::Socket> direct(fleet_->shards.size());
    std::vector<double> hop;
    std::uint64_t rid = 1;
    for (std::size_t k = 0; k < 2 * predict_pool_.size(); ++k) {
      const PoolEntry& e = predict_pool_[k % predict_pool_.size()];
      const std::uint64_t id = refs_[e.device].id;
      const std::size_t owner = fleet_->owner(id);
      net::Frame reply;
      const Clock::time_point a = Clock::now();
      raw_round_trip(fleet_->front, &via_gateway,
                     net::MessageType::kPredictRequest, rid++, id, e.payload,
                     &reply);
      const Clock::time_point b = Clock::now();
      raw_round_trip(fleet_->shard_endpoint(owner), &direct[owner],
                     net::MessageType::kPredictRequest, rid++, id, e.payload,
                     &reply);
      const Clock::time_point c = Clock::now();
      hop.push_back(us_between(a, b) - us_between(b, c));
    }
    return perfbench::percentile(hop, 0.5);
  }

  Fleet& fleet() { return *fleet_; }
  const std::vector<double>& setup_enroll_us() const {
    return setup_enroll_us_;
  }
  std::size_t verify_pool_rejected() const {
    return verify_pool_tried_ - verify_pool_.size();
  }

 private:
  Spec spec_;
  Inputs in_;
  std::string workdir_;
  CrossbarLayout layout_;
  std::vector<std::unique_ptr<MaxFlowPpuf>> chips_;
  std::unique_ptr<Fleet> fleet_;
  std::vector<double> setup_enroll_us_;
  std::vector<DeviceRef> refs_;
  std::vector<PoolEntry> verify_pool_;
  std::size_t verify_pool_tried_ = 0;
  std::vector<PoolEntry> predict_pool_;
  std::size_t enrolls_sent_ = 0;
};

// --- reporting ---------------------------------------------------------------

/// Share of reads whose interval overlaps an enroll's (send .. reply).
double reads_blocked_share(const perfbench::ReadLoopResult& r) {
  return r.attempted == 0 ? 0.0
                          : static_cast<double>(r.enroll_overlapped) /
                                static_cast<double>(r.attempted);
}

double miss_share(const Phase& p) {
  return p.lru_accesses == 0 ? 0.0
                             : static_cast<double>(p.lru_misses) /
                                   static_cast<double>(p.lru_accesses);
}

/// Host steal share of each timed window, from the read loop's CPU marks
/// (1 for a window whose closing mark is missing).
std::vector<double> window_steal(const perfbench::ReadLoopResult& r) {
  std::vector<double> out;
  for (std::size_t w = 0; w < r.latency.size(); ++w)
    out.push_back(w + 1 < r.cpu_marks.size()
                      ? perfbench::steal_share(r.cpu_marks[w],
                                               r.cpu_marks[w + 1])
                      : 1.0);
  return out;
}

/// Indices of the items whose steal is no larger than that of the item at
/// rank ceil(share * n), least first: the least-stolen share of the items
/// and every item tied with the last of them, so on a quiet host all.
std::vector<std::size_t> least_stolen(const std::vector<double>& steal,
                                      double share) {
  if (steal.empty()) return {};
  std::vector<double> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(share * static_cast<double>(sorted.size())));
  const double limit = sorted[std::max<std::size_t>(rank, 1) - 1];
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < steal.size(); ++i)
    if (steal[i] <= limit) out.push_back(i);
  return out;
}

/// The quarter of the windows in which the host stole the least CPU time
/// from this guest.  Other guests on the host only ever slow the benchmark
/// down, in bursts of a fraction of a second: 10% steal halves the read
/// rate.  The windows they hit least are the ones that measure the program.
std::vector<std::size_t> clean_windows(const std::vector<double>& steal) {
  return least_stolen(steal, 0.25);
}

/// Reads per second over the clean windows of a phase.
double clean_read_rate(const perfbench::ReadLoopResult& r) {
  const std::vector<std::size_t> clean = clean_windows(window_steal(r));
  return static_cast<double>(r.latency.pooled(clean).count()) /
         (static_cast<double>(clean.size()) * r.latency.window_s());
}

/// The median of the half of `values` (set-up times, enroll latencies)
/// during which the host stole the least CPU time, for the reason given
/// above.
double clean_median(const std::vector<double>& values,
                    const std::vector<double>& steal) {
  std::vector<double> kept;
  for (const std::size_t i : least_stolen(steal, 0.5)) kept.push_back(values[i]);
  return perfbench::percentile(kept, 0.5);
}

/// CPU seconds (user + system) this process has used so far.
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name, unit;
  double value;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
  std::string source = "unknown";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    try {
      if (flag == "--workload") a->workload = value;
      else if (flag == "--seed") a->seed = std::stoull(value);
      else if (flag == "--seconds") a->seconds = std::stod(value);
      else if (flag == "--trace") a->trace = value == "1";
      else if (flag == "--workdir") a->workdir = value;
      else if (flag == "--source") a->source = value;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

struct OpCount {
  std::size_t attempted = 0, failed = 0;
};

std::string ops_json(const char* name, OpCount c) {
  return std::string("\"") + name + "\": {\"attempted\": " +
         std::to_string(c.attempted) + ", \"succeeded\": " +
         std::to_string(c.attempted - c.failed) + ", \"failed\": " +
         std::to_string(c.failed) + "}";
}

int run(const Args& args) {
  const std::optional<Spec> spec = spec_for(args.workload);
  if (!spec) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
  std::filesystem::create_directories(args.workdir);
  Bench bench(*spec, make_inputs(*spec, args.seed), args.workdir);
  bench.prepare_chips();
  // The generator's own memory, which peak_rss_mb includes: everything
  // resident before the program starts (binary, chips), and what the
  // reference models and report pools add after set-up.
  const double rss_before_setup = perfbench::rss_mb();

  // --- set-up ---
  // The first set-up is the one measured; the repeats that make setup_s a
  // median run after the measurement, so their churn stays out of
  // peak_rss_mb.
  std::vector<double> setup_s, setup_steal;
  const auto set_up = [&](int r) {
    double seconds = 0.0;
    const std::string dir = args.workdir + "/setup" + std::to_string(r);
    const perfbench::CpuTimes cpu0 = perfbench::read_cpu_times();
    const Status s = bench.set_up_once(dir, &seconds);
    if (!s.is_ok()) std::cerr << "set-up failed: " << s.to_string() << "\n";
    setup_s.push_back(seconds);
    setup_steal.push_back(
        perfbench::steal_share(cpu0, perfbench::read_cpu_times()));
    return s.is_ok();
  };
  if (!set_up(0)) return 1;
  const double hwm_after_setup = perfbench::peak_rss_mb();
  const double rss_before_references = perfbench::rss_mb();
  if (Status s = bench.prepare_references(); !s.is_ok()) {
    std::cerr << "reference preparation failed: " << s.to_string() << "\n";
    return 1;
  }
  const double rss_references = perfbench::rss_mb() - rss_before_references;

  // --- timed phases ---
  // A traced run splits its time between an untraced and a traced phase
  // of the same workload, so it takes no longer than an untraced run.
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  std::unique_ptr<SpanLog> spans;
  const double cpu0 = process_cpu_s();
  Phase untraced = bench.run_phase(phase_s, nullptr, 1);
  const double cores_busy = (process_cpu_s() - cpu0) / phase_s;
  Phase traced;
  std::map<std::string, double> layer;
  fleet::Gateway::Stats gw_before{}, gw_after{};
  if (args.trace) {
    obs::MetricsRegistry& m = obs::MetricsRegistry::global();
    m.set_enabled(true);
    obs::register_standard_metrics(m);
    m.reset();
    if (bench.fleet().gateway) gw_before = bench.fleet().gateway->stats();
    spans = std::make_unique<SpanLog>(Clock::now());
    traced = bench.run_phase(phase_s, spans.get(), 1);
    if (bench.fleet().gateway) gw_after = bench.fleet().gateway->stats();

    const double reads = static_cast<double>(traced.reads.attempted);
    const auto per_read = [reads](double v) { return reads > 0 ? v / reads : 0.0; };
    const double solves =
        static_cast<double>(m.counter_value("maxflow.push_relabel.solves"));
    layer["maxflow.push_relabel.solves_per_read"] = per_read(solves);
    layer["maxflow.push_relabel.work_per_solve"] =
        solves > 0 ? static_cast<double>(
                         m.counter_value("maxflow.push_relabel.work")) /
                         solves
                   : 0.0;
    layer["maxflow.push_relabel.solve_us"] =
        m.histogram_snapshot("maxflow.push_relabel.solve_time_us").mean();
    const double items =
        static_cast<double>(m.counter_value("ppuf.predict_batch.items"));
    layer["ppuf.response_cache_hit_ratio"] =
        items > 0 ? static_cast<double>(
                        m.counter_value("ppuf.predict_batch.cache_hits")) /
                        items
                  : 0.0;
    layer["server.batch_size_mean"] =
        m.histogram_snapshot("server.batch_size").mean();
    layer["server.coalesce_wait_us"] =
        m.histogram_snapshot("server.coalesce_wait_us").mean();
    layer["server.solo_dispatches"] =
        static_cast<double>(m.counter_value("server.solo_dispatches"));
    layer["server.overloaded_rejections"] =
        static_cast<double>(m.counter_value("server.overloaded_rejections"));
    layer["fleet.forwarded"] =
        static_cast<double>(m.counter_value("gateway.forwarded"));
    layer["fleet.unavailable_rejections"] = static_cast<double>(
        gw_after.unavailable_rejections - gw_before.unavailable_rejections);
    const double hits =
        static_cast<double>(m.counter_value("registry.hydration.hits"));
    const double misses =
        static_cast<double>(m.counter_value("registry.hydration.misses"));
    layer["registry.hydration_hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    layer["registry.hydration_load_us"] =
        m.histogram_snapshot("registry.hydration.load_time_us").mean();
    layer["registry.reads_blocked_share"] = reads_blocked_share(traced.reads);
    layer["net.request_bytes"] =
        per_read(static_cast<double>(traced.reads.request_bytes));
    layer["net.reply_bytes"] =
        per_read(static_cast<double>(traced.reads.reply_bytes));
    layer["protocol.verify_accept_ratio"] =
        traced.verify_reads > 0
            ? static_cast<double>(traced.verify_accepted) /
                  static_cast<double>(traced.verify_reads)
            : 0.0;
    const double rps_untraced = clean_read_rate(untraced.reads);
    const double rps_traced = clean_read_rate(traced.reads);
    layer["obs.trace_overhead_pct"] =
        rps_untraced > 0 ? 100.0 * (rps_untraced - rps_traced) / rps_untraced
                         : 0.0;

    bench.replay(traced, spans.get(), &layer);
    layer["fleet.hop_us"] = bench.measure_hop();
    bench.replay_enrolls(spans.get(), &layer);
    m.set_enabled(false);
  }
  const Phase& measured = args.trace ? traced : untraced;

  // --- oracle ---
  std::string first_mismatch;
  std::size_t mismatches = bench.check(untraced, &first_mismatch);
  if (args.trace) mismatches += bench.check(traced, &first_mismatch);
  mismatches += untraced.sessions.mismatches + traced.sessions.mismatches;

  // --- counts ---
  OpCount reads_c, sessions_c, enrolls_c;
  for (const Phase* p : {&untraced, &traced}) {
    if (p == &traced && !args.trace) continue;
    reads_c.attempted += p->reads.attempted;
    reads_c.failed += p->reads.failed;
    sessions_c.attempted += p->sessions.attempted;
    sessions_c.failed += p->sessions.failed;
    for (const perfbench::EnrollSample& e : p->reads.enrolls) {
      ++enrolls_c.attempted;
      if (!e.ok) ++enrolls_c.failed;
    }
  }
  const bool transport_ok = untraced.reads.transport_error.empty() &&
                            traced.reads.transport_error.empty();
  const std::size_t failed =
      reads_c.failed + sessions_c.failed + enrolls_c.failed +
      (transport_ok ? 0 : 1);
  const std::size_t attempted =
      std::max<std::size_t>(1, reads_c.attempted + sessions_c.attempted +
                                   enrolls_c.attempted);
  const bool correct = mismatches == 0 && failed == 0 && transport_ok;
  const double peak_rss = perfbench::peak_rss_mb();
  bench.tear_down();
  for (int r = 1; !args.trace && r < spec->setup_repeats; ++r) {
    if (!set_up(r)) return 1;
    bench.tear_down();
  }

  // --- end-to-end metrics (from the untraced phase) ---
  const perfbench::WindowedLatency& reads_w = untraced.reads.latency;
  const perfbench::WindowedLatency& sessions_w = untraced.sessions.latency;
  const std::vector<perfbench::CpuTimes>& marks = untraced.reads.cpu_marks;
  const std::vector<double> steal = window_steal(untraced.reads);
  const std::vector<std::size_t> clean = clean_windows(steal);
  const perfbench::LatencyHistogram reads_h = reads_w.pooled(clean);
  const perfbench::LatencyHistogram sessions_h = sessions_w.pooled(clean);
  const double clean_s =
      static_cast<double>(clean.size()) * spec->window_s;
  double clean_steal_max = 0.0;
  for (const std::size_t w : clean)
    clean_steal_max = std::max(clean_steal_max, steal[w]);
  // The timed phases' latency histograms, allocated and touched up front.
  const double histograms_mb =
      static_cast<double>((reads_w.size() + sessions_w.size()) *
                          perfbench::LatencyHistogram::bytes() *
                          (args.trace ? 2 : 1)) /
      (1024.0 * 1024.0);
  const double steal_all =
      marks.size() > 1 ? perfbench::steal_share(marks.front(), marks.back())
                       : 0.0;
  // Paced enrolls each fabricate a different circuit: the median of the
  // least-stolen half.  Set-up enrolls repeat the same few circuits, so
  // choosing among them by steal would choose among circuits: the median
  // of all.
  std::vector<double> enroll_us, enroll_steal, lateness_ms;
  for (const perfbench::EnrollSample& e : untraced.reads.enrolls) {
    lateness_ms.push_back((e.sent_us - e.due_us) / 1000.0);
    if (e.ok) {
      enroll_us.push_back(e.end_us - e.due_us);
      enroll_steal.push_back(e.steal);
    }
  }
  if (!spec->enroll_period_s) {
    enroll_us = bench.setup_enroll_us();
    enroll_steal.assign(enroll_us.size(), 0.0);
  }
  using perfbench::percentile;
  const auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
      out += (i ? ", " : "") + num(v[i]);
    return out + "]";
  };
  std::ostringstream meta;
  meta << "{\"meta\": {\"workload\": \"" << spec->name << "\", \"seed\": "
       << args.seed << ", \"seconds\": " << num(args.seconds)
       << ", \"trace\": " << (args.trace ? 1 : 0)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu_model\": \"" << escape(perfbench::cpu_model())
       << "\", \"cores_busy_untraced_phase\": " << num(cores_busy)
       << ", \"host_steal_share_untraced_phase\": " << num(steal_all)
       << ", \"rss_mb_before_setup\": " << num(rss_before_setup)
       << ", \"peak_rss_mb_after_setup\": " << num(hwm_after_setup)
       << ", \"rss_mb_generator_references\": " << num(rss_references)
       << ", \"rss_mb_generator_histograms\": " << num(histograms_mb)
       << ", \"peak_rss_mb_program_growth\": "
       << num(peak_rss - rss_before_setup - rss_references - histograms_mb)
       << ", \"source\": \"" << escape(args.source) << "\""
       << ", \"statistics\": \"read and session metrics pooled over the "
          "quarter of the windows with the least host steal; enroll_p50_us "
          "the median of the half of the enrolls with the least\""
       << ", \"warmup_s\": " << num(kWarmupS)
       << ", \"window_s\": " << num(spec->window_s)
       << ", \"windows\": " << steal.size()
       << ", \"clean_windows\": " << clean.size()
       << ", \"clean_window_steal_max\": " << num(clean_steal_max)
       << ", \"window_steal\": " << list(steal)
       << ", \"reads_per_s_windows\": " << list(reads_w.rates())
       << ", \"read_tail_percentile\": " << num(100 * kReadTailQ)
       << ", \"read_samples\": " << reads_w.total()
       << ", \"read_samples_clean\": " << reads_h.count()
       << ", \"session_tail_percentile\": " << num(100 * kSessionTailQ)
       << ", \"session_samples\": " << sessions_w.total()
       << ", \"session_samples_clean\": " << sessions_h.count()
       << ", \"enroll_samples\": " << enroll_us.size()
       << ", \"enroll_source\": \""
       << (spec->enroll_period_s ? "paced enrolls, timed from due time"
                                 : "set-up enrolls to an idle server")
       << "\", \"ops\": {" << ops_json("read", reads_c) << ", "
       << ops_json("session", sessions_c) << ", "
       << ops_json("enroll", enrolls_c) << "}"
       << ", \"hydration_miss_share_lru_model\": "
       << num(miss_share(measured))
       << ", \"enroll_blocked_read_share\": "
       << num(reads_blocked_share(measured.reads))
       << ", \"enroll_lateness_ms_max\": "
       << num(lateness_ms.empty() ? 0.0
                                  : *std::max_element(lateness_ms.begin(),
                                                      lateness_ms.end()))
       << ", \"enroll_lateness_ms_mean\": " << num(perfbench::mean(lateness_ms))
       << ", \"sessions_out_of_tolerance\": "
       << untraced.sessions.out_of_tolerance + traced.sessions.out_of_tolerance
       << ", \"verify_pool_rejected_by_reference\": "
       << bench.verify_pool_rejected()
       << ", \"setup_s_each\": " << list(setup_s)
       << ", \"setup_steal_each\": " << list(setup_steal)
       << ", \"enroll_steal_each\": " << list(enroll_steal)
       << ", \"oracle_mismatches\": " << mismatches
       << ", \"first_problem\": \""
       << escape(!first_mismatch.empty()           ? first_mismatch
                 : !untraced.first_error.empty()   ? untraced.first_error
                 : !untraced.sessions.error.empty() ? untraced.sessions.error
                 : !traced.first_error.empty()     ? traced.first_error
                 : !traced.sessions.error.empty()  ? traced.sessions.error
                 : !untraced.reads.transport_error.empty()
                     ? untraced.reads.transport_error
                     : traced.reads.transport_error)
       << "\"";
  if (spans) {
    const std::string path = args.workdir + "/spans-" + spec->name + "-" +
                             std::to_string(args.seed) + ".jsonl";
    spans->write_jsonl(path);
    meta << ", \"spans\": \"" << escape(path) << "\", \"span_count\": "
         << spans->spans().size();
  }
  meta << "}}";

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", "s", clean_median(setup_s, setup_steal)},
        {"peak_rss_mb", "MB", peak_rss},
        {"reads_per_s", "1/s",
         static_cast<double>(reads_h.count()) / clean_s},
        {"read_p50_us", "us", reads_h.percentile(0.5)},
        {"read_tail_us", "us", reads_h.percentile(kReadTailQ)},
        {"session_p50_us", "us", sessions_h.percentile(0.5)},
        {"session_tail_us", "us", sessions_h.percentile(kSessionTailQ)},
        {"enroll_p50_us", "us", clean_median(enroll_us, enroll_steal)},
    };
  } else {
    static const std::vector<std::pair<std::string, std::string>> kLayer = {
        {"net.frame_encode_us", "us"}, {"net.frame_decode_us", "us"},
        {"net.request_bytes", "bytes"}, {"net.reply_bytes", "bytes"},
        {"protocol.report_encode_us", "us"}, {"protocol.report_decode_us", "us"},
        {"protocol.verify_accept_ratio", "ratio"},
        {"server.residual_us", "us"}, {"server.batch_size_mean", "count"},
        {"server.coalesce_wait_us", "us"}, {"server.solo_dispatches", "count"},
        {"server.overloaded_rejections", "count"},
        {"fleet.hop_us", "us"}, {"fleet.forwarded", "count"},
        {"fleet.unavailable_rejections", "count"},
        {"registry.hydrate_p50_us", "us"}, {"registry.hydrate_tail_us", "us"},
        {"registry.hydration_hit_ratio", "ratio"},
        {"registry.hydration_load_us", "us"},
        {"registry.reads_blocked_share", "ratio"},
        {"registry.enroll_us", "us"}, {"registry.enroll_self_us", "us"},
        {"backend.predict_us", "us"}, {"backend.verify_us", "us"},
        {"backend.verify_chain_us", "us"}, {"backend.fabricate_us", "us"},
        {"backend.inprocess_share", "ratio"},
        {"ppuf.response_cache_hit_ratio", "ratio"},
        {"maxflow.push_relabel.solves_per_read", "count"},
        {"maxflow.push_relabel.work_per_solve", "count"},
        {"maxflow.push_relabel.solve_us", "us"},
        {"circuit.dc.solves_per_enroll", "count"},
        {"circuit.dc.newton_iterations_per_solve", "count"},
        {"circuit.dc.solve_us", "us"},
        {"obs.trace_overhead_pct", "%"},
    };
    for (const auto& [name, unit] : kLayer) metrics.push_back({name, unit, layer[name]});
  }

  std::cout << meta.str() << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::cerr << "usage: perfbench_serve --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workdir <dir>] "
                 "[--source <id>]\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_serve: " << e.what() << "\n";
    return 1;
  }
}
