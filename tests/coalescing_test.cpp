// Cross-connection request coalescing + client pipelining, end to end.
//
// PR 8's serving change lets the AuthServer drain pending PREDICT/VERIFY
// frames from *different* connections into per-device batches and scatter
// the replies back, while the AuthClient keeps a bounded window of
// pipelined requests outstanding and matches replies strictly by request
// id.  Everything about that is an invariant-preservation exercise — the
// batched path must be observationally identical to per-frame dispatch —
// so this suite is differential where it can be and adversarial where it
// must be:
//
//   * differential     - the same pipelined, device-interleaved workload
//                        against a coalesce-off and a coalesce-on server
//                        (warm response cache included) is bit-for-bit
//                        identical, and equal to the local model;
//   * deadline mixing  - a tight budget coalesced next to unlimited
//                        batch-mates expires typed DEADLINE_EXCEEDED
//                        without poisoning the rest of the batch;
//   * reordering       - replies legally overtake slower requests on one
//                        connection, and the pipelined client attributes
//                        them correctly by id (never by arrival order);
//   * desync           - a reply id matching no outstanding request drops
//                        the connection with a typed error instead of
//                        being misattributed to the oldest waiter;
//   * late replies     - a timed-out request's answer can never leak into
//                        the next request on that connection (the client
//                        reconnects on every transport failure);
//   * slow peers       - a connection that stops draining its socket is
//                        disconnected at the backlog bound instead of
//                        wedging workers or the event loop;
//   * soak             - thousands of simultaneously open connections are
//                        each served while all stay in the event loop.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "ppuf/ppuf.hpp"
#include "ppuf/sim_model.hpp"
#include "protocol/authentication.hpp"
#include "registry/device_registry.hpp"
#include "server/auth_server.hpp"
#include "util/fault_hooks.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "test_dirs.hpp"

namespace ppuf {
namespace {

using test::fresh_dir;

using net::AuthClient;
using net::Frame;
using net::MessageType;
using net::WireCode;
using server::AuthServer;
using server::AuthServerOptions;
using util::Status;
using util::StatusCode;

constexpr std::uint64_t kSeed = 7;
constexpr double kChipDelay = 1e-6;

PpufParams small_params() {
  PpufParams p;
  p.node_count = 16;
  p.grid_size = 4;
  return p;
}

MaxFlowPpuf& shared_puf() {
  static MaxFlowPpuf puf(small_params(), kSeed);
  return puf;
}

SimulationModel& shared_model() {
  static SimulationModel model(shared_puf());
  return model;
}

/// Coalescing on: small batches, a window comfortably wider than the
/// loopback round trip, and a warm response cache.
AuthServerOptions coalescing_options() {
  AuthServerOptions o;
  o.threads = 2;
  o.chain_length = 3;
  o.spot_checks = 0;
  o.coalesce_max_batch = 4;
  o.coalesce_wait_us = 2000;
  o.response_cache_bytes = 4 * 1024 * 1024;
  return o;
}

AuthServerOptions per_frame_options() {
  AuthServerOptions o;
  o.threads = 2;
  o.chain_length = 3;
  o.spot_checks = 0;
  o.coalesce_max_batch = 1;  // per-frame dispatch: the reference behaviour
  return o;
}

WireCode error_code_of(const Frame& reply) {
  net::ErrorReply err;
  if (reply.type != MessageType::kErrorReply ||
      !net::decode_error_reply(reply.payload, &err).is_ok())
    return WireCode::kOk;
  return err.code;
}

std::uint64_t enroll_small(registry::DeviceRegistry& reg, std::uint64_t seed,
                           const std::string& label) {
  registry::EnrollRequest req;
  req.node_count = small_params().node_count;
  req.grid_size = small_params().grid_size;
  req.seed = seed;
  req.label = label;
  std::uint64_t id = 0;
  EXPECT_TRUE(reg.enroll(req, &id).is_ok());
  return id;
}

/// A registry of one: a fresh registry named `name` holding the shared
/// device (small_params(), kSeed — the silicon shared_puf() holds, whose
/// published model is shared_model()).  Returns its device id.
std::uint64_t enroll_shared(registry::DeviceRegistry& reg, const char* name) {
  EXPECT_TRUE(reg.open(fresh_dir(name)).is_ok());
  return enroll_small(reg, kSeed, "shared");
}

AuthClient pipelined_client(std::uint16_t port, std::uint64_t device_id,
                            int depth) {
  net::ClientOptions o;
  o.device_id = device_id;
  o.pipeline_depth = depth;
  return AuthClient("127.0.0.1", port, o);
}

/// One PREDICT before a timing-sensitive step, so neither the server's
/// first-use hydration of the device nor the first build of
/// shared_model() lands inside the step's timing.
void warm_device(std::uint16_t port, std::uint64_t device_id) {
  util::Rng rng(1);
  SimulationModel::Prediction p;
  ASSERT_TRUE(pipelined_client(port, device_id, 1)
                  .predict(random_challenge(shared_model().layout(), rng), &p)
                  .is_ok());
}

// ---------------------------------------------------------------------------
// Differential: coalesced serving is observationally identical to
// per-frame serving — mixed devices, pipelined connections, warm cache.

TEST(Coalescing, DifferentialMatchesPerFrameServing) {
  registry::DeviceRegistry reg;
  ASSERT_TRUE(reg.open(fresh_dir("coalesce_diff")).is_ok());
  constexpr int kDevices = 3;
  const std::uint64_t seeds[kDevices] = {101, 102, 103};
  std::uint64_t ids[kDevices];
  SimulationModel models[kDevices];
  for (int d = 0; d < kDevices; ++d) {
    ids[d] = enroll_small(reg, seeds[d], "diff");
    ASSERT_TRUE(reg.load_model(ids[d], &models[d]).is_ok());
  }

  // Per-device challenge lists (seeded: both servers see the same work).
  constexpr int kPerDevice = 6;
  std::vector<Challenge> challenges[kDevices];
  for (int d = 0; d < kDevices; ++d) {
    util::Rng rng(900 + d);
    for (int i = 0; i < kPerDevice; ++i)
      challenges[d].push_back(
          random_challenge(models[d].layout(), rng));
  }

  AuthServer per_frame(reg, per_frame_options());
  AuthServer coalesced(reg, coalescing_options());
  ASSERT_TRUE(per_frame.start().is_ok());
  ASSERT_TRUE(coalesced.start().is_ok());

  // One pipelined connection per device, all three running concurrently so
  // frames from different devices interleave inside the server's window.
  auto run_workload = [&](const AuthServer& srv,
                          std::vector<SimulationModel::Prediction>* out) {
    std::vector<std::thread> workers;
    std::atomic<int> failures{0};
    for (int d = 0; d < kDevices; ++d) {
      workers.emplace_back([&, d] {
        AuthClient client =
            pipelined_client(srv.port(), ids[d], /*depth=*/4);
        const Status s =
            client.predict_pipelined(challenges[d], &out[d]);
        if (!s.is_ok()) failures.fetch_add(1);
      });
    }
    for (std::thread& w : workers) w.join();
    return failures.load();
  };

  // Solver work per pass, read off the process-wide push-relabel counter.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  metrics.set_enabled(true);
  const auto solves = [&] {
    return metrics.counter_value("maxflow.push_relabel.solves");
  };

  std::vector<SimulationModel::Prediction> want[kDevices];
  std::vector<SimulationModel::Prediction> got[kDevices];
  std::vector<SimulationModel::Prediction> warm[kDevices];
  const std::uint64_t before_per_frame = solves();
  ASSERT_EQ(run_workload(per_frame, want), 0);
  const std::uint64_t before_cold = solves();
  ASSERT_EQ(run_workload(coalesced, got), 0);
  const std::uint64_t before_warm = solves();
  // Second pass against the coalesced server: answered from the response
  // cache, and still required to be identical.
  ASSERT_EQ(run_workload(coalesced, warm), 0);
  const std::uint64_t after_warm = solves();

  // Work gate: the warm pass solves nothing, so the coalesced server's two
  // passes together cost at most the per-frame server's one — at least a
  // 2x reduction in solver work for the same answers.
  const std::uint64_t per_frame_solves = before_cold - before_per_frame;
  const std::uint64_t warm_solves = after_warm - before_warm;
  EXPECT_GT(per_frame_solves, 0u);
  EXPECT_EQ(warm_solves, 0u);
  EXPECT_LE(after_warm - before_cold, per_frame_solves);

  for (int d = 0; d < kDevices; ++d) {
    ASSERT_EQ(want[d].size(), challenges[d].size());
    for (int i = 0; i < kPerDevice; ++i) {
      ASSERT_TRUE(want[d][i].ok()) << "device " << d << " item " << i;
      ASSERT_TRUE(got[d][i].ok()) << "device " << d << " item " << i;
      ASSERT_TRUE(warm[d][i].ok()) << "device " << d << " item " << i;
      // Per-frame, coalesced, and cache-hit serving are bit- AND
      // flow-exact with each other and with the local model.
      const SimulationModel::Prediction local =
          models[d].predict(challenges[d][i]);
      EXPECT_EQ(want[d][i].bit, local.bit);
      EXPECT_EQ(want[d][i].flow_a, local.flow_a);
      EXPECT_EQ(want[d][i].flow_b, local.flow_b);
      EXPECT_EQ(got[d][i].bit, want[d][i].bit);
      EXPECT_EQ(got[d][i].flow_a, want[d][i].flow_a);
      EXPECT_EQ(got[d][i].flow_b, want[d][i].flow_b);
      EXPECT_EQ(warm[d][i].bit, want[d][i].bit);
      EXPECT_EQ(warm[d][i].flow_a, want[d][i].flow_a);
      EXPECT_EQ(warm[d][i].flow_b, want[d][i].flow_b);
    }
  }

  // VERIFY coalesces through the same path and must agree verdict-for-
  // verdict with per-frame serving.
  MaxFlowPpuf chip(small_params(), seeds[0]);
  const Challenge vc = challenges[0][0];
  const protocol::ProverReport honest =
      protocol::prove_with_ppuf(chip, vc, kChipDelay);
  protocol::ProverReport tampered = honest;
  tampered.bit ^= 1;
  for (const AuthServer* srv : {&per_frame, &coalesced}) {
    AuthClient client = pipelined_client(srv->port(), ids[0], 1);
    protocol::AuthenticationResult result;
    ASSERT_TRUE(client.verify(vc, honest, &result).is_ok());
    EXPECT_TRUE(result.accepted) << result.detail;
    ASSERT_TRUE(client.verify(vc, tampered, &result).is_ok());
    EXPECT_FALSE(result.accepted);
  }

  // The coalesced server actually batched (pipeline depth 4 inside a 2 ms
  // window guarantees it), and the per-frame server never did.
  const AuthServer::Stats cs = coalesced.stats();
  EXPECT_GT(cs.coalesced_batches, 0u);
  EXPECT_GT(cs.coalesced_items, cs.coalesced_batches);
  EXPECT_EQ(per_frame.stats().coalesced_batches, 0u);

  coalesced.stop();
  per_frame.stop();
  metrics.set_enabled(false);
}

// ---------------------------------------------------------------------------
// The response cache serves every PREDICT, coalescing or not.

TEST(Coalescing, ResponseCacheServesCoalesceOffServer) {
  AuthServerOptions o = per_frame_options();
  o.response_cache_bytes = 4 * 1024 * 1024;
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "coalesce_off_cache");
  AuthServer srv(reg, o);
  ASSERT_TRUE(srv.start().is_ok());

  util::Rng rng(45);
  std::vector<Challenge> challenges;
  std::vector<SimulationModel::Prediction> want;
  for (int i = 0; i < 6; ++i) {
    challenges.push_back(random_challenge(shared_model().layout(), rng));
    want.push_back(shared_model().predict(challenges.back()));
  }

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  metrics.set_enabled(true);
  const auto solves = [&] {
    return metrics.counter_value("maxflow.push_relabel.solves");
  };
  std::vector<SimulationModel::Prediction> passes[2];
  std::uint64_t pass_solves[2];
  for (int pass = 0; pass < 2; ++pass) {
    const std::uint64_t before = solves();
    ASSERT_TRUE(pipelined_client(srv.port(), device_id, /*depth=*/4)
                    .predict_pipelined(challenges, &passes[pass])
                    .is_ok());
    pass_solves[pass] = solves() - before;
  }
  metrics.set_enabled(false);

  // The first pass solves and fills the cache; the second solves nothing.
  EXPECT_GT(pass_solves[0], 0u);
  EXPECT_EQ(pass_solves[1], 0u);
  for (const std::vector<SimulationModel::Prediction>& got : passes) {
    ASSERT_EQ(got.size(), challenges.size());
    for (std::size_t i = 0; i < challenges.size(); ++i) {
      ASSERT_TRUE(got[i].ok()) << "item " << i;
      EXPECT_EQ(got[i].bit, want[i].bit) << "item " << i;
      EXPECT_EQ(got[i].flow_a, want[i].flow_a) << "item " << i;
      EXPECT_EQ(got[i].flow_b, want[i].flow_b) << "item " << i;
    }
  }
  const AuthServer::Stats st = srv.stats();
  EXPECT_EQ(st.coalesced_batches, 0u);
  EXPECT_EQ(st.coalesced_items, 0u);
  EXPECT_EQ(st.solo_dispatches, 0u);
  srv.stop();
}

// ---------------------------------------------------------------------------
// Loop-answered hits: a PREDICT whose device is resident and whose response
// is cached is answered on the event loop, ahead of coalescing.

Frame predict_round_trip(const net::Socket& sock, std::uint64_t request_id,
                         std::uint64_t device_id, const Challenge& c) {
  const util::Deadline io = util::Deadline::after_seconds(10.0);
  const std::vector<std::uint8_t> f =
      net::encode_frame(MessageType::kPredictRequest, request_id, device_id,
                        0, net::encode_predict_request(c));
  EXPECT_TRUE(net::send_all(sock.fd(), f.data(), f.size(), io).is_ok());
  Frame reply;
  EXPECT_TRUE(net::read_frame(sock.fd(), &reply, io).is_ok());
  return reply;
}

std::vector<std::uint8_t> wire_bytes(const Frame& f) {
  return net::encode_frame(f.type, f.request_id, f.device_id, f.budget_ms,
                           f.payload);
}

TEST(Coalescing, LoopAnsweredHitIsByteIdenticalToTheWorkerReply) {
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "loop_hit_bytes");
  const std::uint64_t other = enroll_small(reg, kSeed + 1, "other");
  AuthServer srv(reg, coalescing_options());
  ASSERT_TRUE(srv.start().is_ok());
  net::Socket sock;
  ASSERT_TRUE(net::connect_tcp("127.0.0.1", srv.port(), 2000, &sock).is_ok());
  util::Rng rng(46);
  const Challenge c = random_challenge(shared_model().layout(), rng);

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  metrics.set_enabled(true);
  metrics.reset();
  const auto cache_count = [&](const char* event) {
    return metrics.counter_value(std::string("ppuf.response_cache.") + event);
  };
  // 1. Cold: the worker solves and fills the cache (one miss).
  const Frame solved = predict_round_trip(sock, 77, device_id, c);
  ASSERT_EQ(solved.type, MessageType::kPredictReply);
  EXPECT_EQ(srv.stats().loop_cache_hits, 0u);
  // 2. Warm: answered on the loop (one hit).
  const Frame on_loop = predict_round_trip(sock, 77, device_id, c);
  EXPECT_EQ(srv.stats().loop_cache_hits, 1u);
  // 3. A revoke elsewhere makes the resident entry stale for the loop, so
  //    this one is a hit on the worker's predict_batch path.
  ASSERT_TRUE(reg.revoke(other).is_ok());
  const Frame on_worker = predict_round_trip(sock, 77, device_id, c);
  EXPECT_EQ(srv.stats().loop_cache_hits, 1u);
  // 4. The worker's resolve re-stamped the entry: back on the loop.
  const Frame again = predict_round_trip(sock, 77, device_id, c);
  EXPECT_EQ(srv.stats().loop_cache_hits, 2u);
  EXPECT_EQ(cache_count("misses"), 1u);
  EXPECT_EQ(cache_count("hits"), 3u);
  // 5. A cold challenge on a resident device: the loop's probe misses and
  //    the worker's lookup misses too, counted once.
  const Challenge cold = random_challenge(shared_model().layout(), rng);
  ASSERT_EQ(predict_round_trip(sock, 78, device_id, cold).type,
            MessageType::kPredictReply);
  EXPECT_EQ(cache_count("misses"), 2u);
  EXPECT_EQ(cache_count("hits"), 3u);
  EXPECT_EQ(metrics.counter_value("server.loop_cache_hits"), 2u);
  metrics.set_enabled(false);

  EXPECT_EQ(wire_bytes(on_loop), wire_bytes(solved));
  EXPECT_EQ(wire_bytes(on_loop), wire_bytes(on_worker));
  EXPECT_EQ(wire_bytes(again), wire_bytes(on_worker));
  srv.stop();
}

TEST(Coalescing, RevokedDeviceIsRefusedDespiteResidentCachedResponses) {
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "loop_hit_revoked");
  AuthServer srv(reg, coalescing_options());
  ASSERT_TRUE(srv.start().is_ok());
  net::Socket sock;
  ASSERT_TRUE(net::connect_tcp("127.0.0.1", srv.port(), 2000, &sock).is_ok());
  util::Rng rng(47);
  const Challenge c = random_challenge(shared_model().layout(), rng);
  for (std::uint64_t rid = 1; rid <= 2; ++rid)
    ASSERT_EQ(predict_round_trip(sock, rid, device_id, c).type,
              MessageType::kPredictReply);
  ASSERT_EQ(srv.stats().loop_cache_hits, 1u);  // warm on the loop

  ASSERT_TRUE(reg.revoke(device_id).is_ok());
  for (std::uint64_t rid = 3; rid <= 4; ++rid)
    EXPECT_EQ(error_code_of(predict_round_trip(sock, rid, device_id, c)),
              WireCode::kUnknownDevice);
  EXPECT_EQ(srv.stats().loop_cache_hits, 1u);
  srv.stop();
}

// ---------------------------------------------------------------------------
// Deadline mixing: one tight budget inside a batch of unlimited mates.

TEST(Coalescing, MidBatchDeadlineExpiryDoesNotPoisonBatchMates) {
  AuthServerOptions o = coalescing_options();
  o.threads = 1;  // a single worker, parked on purpose
  o.coalesce_max_batch = 8;
  o.coalesce_wait_us = 50'000;
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "coalesce_mid_batch");
  AuthServer srv(reg, o);
  ASSERT_TRUE(srv.start().is_ok());
  warm_device(srv.port(), device_id);
  const util::Deadline io = util::Deadline::after_seconds(10.0);

  // Park the only worker for 150 ms so the batch window closes (50 ms)
  // long before any predict can run.
  net::Socket parker;
  ASSERT_TRUE(
      net::connect_tcp("127.0.0.1", srv.port(), 2000, &parker).is_ok());
  const std::vector<std::uint8_t> park = net::encode_frame(
      MessageType::kPingRequest, 99, device_id, 0,
      net::encode_ping_request(150));
  ASSERT_TRUE(
      net::send_all(parker.fd(), park.data(), park.size(), io).is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Three predicts coalesce into one batch: ids 1 and 3 unlimited, id 2
  // with a 70 ms budget that is alive at admission (so it coalesces: 70 ms
  // remaining >= the 50 ms window) but dead by the time the worker frees
  // up at ~150 ms.
  util::Rng rng(41);
  const Challenge c = random_challenge(shared_model().layout(), rng);
  const std::vector<std::uint8_t> payload = net::encode_predict_request(c);
  net::Socket sock;
  ASSERT_TRUE(
      net::connect_tcp("127.0.0.1", srv.port(), 2000, &sock).is_ok());
  std::vector<std::uint8_t> burst;
  for (const auto& [id, budget_ms] :
       std::vector<std::pair<std::uint64_t, std::uint32_t>>{
           {1, 0}, {2, 70}, {3, 0}}) {
    const std::vector<std::uint8_t> f = net::encode_frame(
        MessageType::kPredictRequest, id, device_id, budget_ms, payload);
    burst.insert(burst.end(), f.begin(), f.end());
  }
  ASSERT_TRUE(
      net::send_all(sock.fd(), burst.data(), burst.size(), io).is_ok());

  const SimulationModel::Prediction want = shared_model().predict(c);
  int served = 0, expired = 0;
  for (int i = 0; i < 3; ++i) {
    Frame reply;
    ASSERT_TRUE(net::read_frame(sock.fd(), &reply, io).is_ok());
    if (reply.request_id == 2) {
      // The tight budget dies typed — never a wrong bit, never a hang.
      EXPECT_EQ(error_code_of(reply), WireCode::kDeadlineExceeded);
      ++expired;
    } else {
      ASSERT_EQ(reply.type, MessageType::kPredictReply)
          << "id " << reply.request_id;
      SimulationModel::Prediction p;
      ASSERT_TRUE(net::decode_predict_reply(reply.payload, &p).is_ok());
      EXPECT_EQ(p.bit, want.bit) << "id " << reply.request_id;
      EXPECT_EQ(p.flow_a, want.flow_a) << "id " << reply.request_id;
      EXPECT_EQ(p.flow_b, want.flow_b) << "id " << reply.request_id;
      ++served;
    }
  }
  EXPECT_EQ(served, 2);
  EXPECT_EQ(expired, 1);
  // The unlimited-budget frames really were served from a batch.
  EXPECT_GE(srv.stats().coalesced_items, 2u);
  srv.stop();
}

// ---------------------------------------------------------------------------
// Unresolvable devices: a coalesced batch whose device id does not resolve
// answers every parked item typed, beside a healthy batch.

TEST(Coalescing, UnknownDeviceBatchesAnswerEveryItemTyped) {
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "coalesce_unknown");
  SimulationModel model;
  ASSERT_TRUE(reg.load_model(device_id, &model).is_ok());
  AuthServer srv(reg, coalescing_options());
  ASSERT_TRUE(srv.start().is_ok());
  const util::Deadline io = util::Deadline::after_seconds(10.0);

  util::Rng rng(44);
  std::vector<Challenge> challenges;
  for (int i = 0; i < 3; ++i)
    challenges.push_back(random_challenge(model.layout(), rng));
  const protocol::ProverReport honest =
      protocol::prove_with_ppuf(shared_puf(), challenges[0], kChipDelay);

  // One pipelined burst: PREDICT and VERIFY for id 0 (never a device) and
  // for a never-enrolled id, interleaved with PREDICTs for the enrolled
  // device.  Unlimited budgets, so every frame parks in a batch.
  constexpr std::uint64_t kUnknownId = 999;
  struct Item {
    std::uint64_t device;
    bool verify;
    std::size_t challenge;
  };
  const std::vector<Item> items = {
      {device_id, false, 0}, {0, false, 0},          {0, true, 0},
      {kUnknownId, false, 1}, {device_id, false, 1}, {kUnknownId, true, 0},
      {device_id, false, 2},
  };
  std::vector<std::uint8_t> burst;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Challenge& c = challenges[items[i].challenge];
    const std::vector<std::uint8_t> f =
        items[i].verify
            ? net::encode_frame(MessageType::kVerifyRequest, i + 1,
                                items[i].device, 0,
                                net::encode_verify_request(c, honest))
            : net::encode_frame(MessageType::kPredictRequest, i + 1,
                                items[i].device, 0,
                                net::encode_predict_request(c));
    burst.insert(burst.end(), f.begin(), f.end());
  }
  net::Socket sock;
  ASSERT_TRUE(
      net::connect_tcp("127.0.0.1", srv.port(), 2000, &sock).is_ok());
  ASSERT_TRUE(
      net::send_all(sock.fd(), burst.data(), burst.size(), io).is_ok());

  std::size_t rejected = 0, served = 0;
  for (std::size_t n = 0; n < items.size(); ++n) {
    Frame reply;
    ASSERT_TRUE(net::read_frame(sock.fd(), &reply, io).is_ok());
    ASSERT_GE(reply.request_id, 1u);
    ASSERT_LE(reply.request_id, items.size());
    const Item& item = items[reply.request_id - 1];
    EXPECT_EQ(reply.device_id, item.device) << "id " << reply.request_id;
    if (item.device != device_id) {
      // Typed UNKNOWN_DEVICE, which the client surfaces as kNotFound.
      EXPECT_EQ(net::wire_code_to_status(error_code_of(reply), "").code(),
                StatusCode::kNotFound)
          << "id " << reply.request_id;
      ++rejected;
      continue;
    }
    ASSERT_EQ(reply.type, MessageType::kPredictReply)
        << "id " << reply.request_id;
    SimulationModel::Prediction p;
    ASSERT_TRUE(net::decode_predict_reply(reply.payload, &p).is_ok());
    const SimulationModel::Prediction want =
        model.predict(challenges[item.challenge]);
    EXPECT_EQ(p.bit, want.bit) << "id " << reply.request_id;
    EXPECT_EQ(p.flow_a, want.flow_a) << "id " << reply.request_id;
    EXPECT_EQ(p.flow_b, want.flow_b) << "id " << reply.request_id;
    ++served;
  }
  EXPECT_EQ(rejected, 4u);
  EXPECT_EQ(served, 3u);
  // Every frame went through a batch, and each unresolvable item was
  // counted once.
  const AuthServer::Stats st = srv.stats();
  EXPECT_EQ(st.coalesced_items, items.size());
  EXPECT_EQ(st.solo_dispatches, 0u);
  EXPECT_EQ(st.unknown_device_rejections, 4u);
  srv.stop();
}

// ---------------------------------------------------------------------------
// Reordering: a fast coalesced predict legally overtakes a slow request
// that was sent earlier on the same connection.

TEST(Coalescing, RepliesMayOvertakeSlowerRequests) {
  AuthServerOptions o = coalescing_options();
  o.threads = 2;
  o.coalesce_wait_us = 1000;
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "coalesce_overtake");
  AuthServer srv(reg, o);
  ASSERT_TRUE(srv.start().is_ok());
  warm_device(srv.port(), device_id);
  const util::Deadline io = util::Deadline::after_seconds(10.0);

  net::Socket sock;
  ASSERT_TRUE(
      net::connect_tcp("127.0.0.1", srv.port(), 2000, &sock).is_ok());
  util::Rng rng(42);
  const Challenge c = random_challenge(shared_model().layout(), rng);
  std::vector<std::uint8_t> burst = net::encode_frame(
      MessageType::kPingRequest, 1, device_id, 0,
      net::encode_ping_request(100));
  const std::vector<std::uint8_t> predict = net::encode_frame(
      MessageType::kPredictRequest, 2, device_id, 0,
      net::encode_predict_request(c));
  burst.insert(burst.end(), predict.begin(), predict.end());
  ASSERT_TRUE(
      net::send_all(sock.fd(), burst.data(), burst.size(), io).is_ok());

  // The predict (worker 2, ~ms) finishes while the ping (worker 1) still
  // sleeps: the reply stream reorders, ids keep everything attributable.
  Frame first, second;
  ASSERT_TRUE(net::read_frame(sock.fd(), &first, io).is_ok());
  ASSERT_TRUE(net::read_frame(sock.fd(), &second, io).is_ok());
  EXPECT_EQ(first.request_id, 2u);
  EXPECT_EQ(first.type, MessageType::kPredictReply);
  EXPECT_EQ(second.request_id, 1u);
  EXPECT_EQ(second.type, MessageType::kPingReply);
  srv.stop();
}

// ---------------------------------------------------------------------------
// Desync: a reply id that matches nothing outstanding must never be
// attributed to the oldest waiter.

TEST(Coalescing, PipelinedClientRejectsUnknownReplyIdAndResyncs) {
  // A confused peer: accepts one connection, reads one frame, answers it
  // with the WRONG request id (as a stale or cross-talked reply would).
  net::Socket listener;
  std::uint16_t port = 0;
  ASSERT_TRUE(net::listen_tcp(0, 4, &listener, &port).is_ok());
  std::atomic<bool> served{false};
  std::thread peer([&] {
    const util::Deadline accept_by = util::Deadline::after_seconds(5.0);
    int fd = -1;
    while (fd < 0 && !accept_by.expired()) {
      fd = ::accept(listener.fd(), nullptr, nullptr);  // non-blocking
      if (fd < 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (fd < 0) return;
    Frame request;
    if (net::read_frame(fd, &request, accept_by).is_ok()) {
      SimulationModel::Prediction p;
      p.bit = 1;
      const std::vector<std::uint8_t> reply = net::encode_frame(
          MessageType::kPredictReply, request.request_id + 1234,
          request.device_id, 0, net::encode_predict_reply(p));
      if (net::send_all(fd, reply.data(), reply.size(), accept_by).is_ok())
        served.store(true);
    }
    // Leave the socket open so the client sees the bad id, not a close.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ::close(fd);
  });

  net::ClientOptions copts;
  copts.pipeline_depth = 2;
  copts.max_attempts = 1;
  AuthClient client("127.0.0.1", port, copts);
  util::Rng rng(43);
  const std::vector<Challenge> one{
      random_challenge(shared_model().layout(), rng)};
  std::vector<SimulationModel::Prediction> out;
  const Status s = client.predict_pipelined(one, &out);
  peer.join();
  ASSERT_TRUE(served.load());
  // Typed desync error, connection dropped, and the item's prediction was
  // NOT populated from the impostor reply.
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.to_string();
  EXPECT_NE(s.message().find("matches no outstanding request"),
            std::string::npos)
      << s.to_string();
  EXPECT_FALSE(client.connected());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].ok());
}

// ---------------------------------------------------------------------------
// Late replies: a timed-out request's answer must never be credited to the
// next request on that connection.

TEST(Coalescing, LateReplyNeverMisattributedAfterTimeout) {
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "coalesce_late_reply");
  AuthServer srv(reg, coalescing_options());
  ASSERT_TRUE(srv.start().is_ok());

  net::ClientOptions copts;
  copts.request_timeout_ms = 50;
  copts.max_attempts = 1;  // surface the timeout instead of retrying
  copts.device_id = device_id;
  AuthClient client("127.0.0.1", srv.port(), copts);

  // The server answers this ping at once, but the fault hook holds every
  // server send (EAGAIN) until the client's 50 ms attempt budget is gone,
  // so the reply is late on every run (a delayed handler would race its
  // own typed DEADLINE_EXCEEDED against the client's timer).  The client
  // must time out typed and DROP the socket, so the late reply dies with
  // the connection instead of waiting to be misattributed to the next
  // request.
  auto& hooks = util::FaultHooks::instance();
  hooks.server_send_block.store(true);
  Status s = client.ping(0);
  hooks.server_send_block.store(false);
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.to_string();
  EXPECT_FALSE(client.connected());

  net::HealthInfo health;
  ASSERT_TRUE(client.ping(0, {}, &health).is_ok());
  EXPECT_EQ(client.stats().reconnects, 2u);  // fresh socket per attempt

  // Same property under injected transport latency (the fault-hook path):
  // every client socket op stalls 200 ms, the 50 ms budget dies typed,
  // and the connection is torn down before the late bytes arrive.
  hooks.net_latency_ppm.store(1'000'000);
  hooks.net_latency_us.store(200'000);
  s = client.ping(0);
  hooks.net_latency_ppm.store(0);
  hooks.net_latency_us.store(0);
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.to_string();
  EXPECT_FALSE(client.connected());
  ASSERT_TRUE(client.ping().is_ok());
  EXPECT_EQ(client.stats().reconnects, 3u);
  srv.stop();
}

// ---------------------------------------------------------------------------
// Slow peers: a connection that never drains its replies hits the backlog
// bound and is disconnected; workers and other connections stay live.

TEST(Coalescing, SlowPeerIsDisconnectedAtBacklogBound) {
  AuthServerOptions o = per_frame_options();
  o.threads = 1;
  o.max_connection_backlog_bytes = 256;
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "coalesce_slow_peer");
  AuthServer srv(reg, o);
  ASSERT_TRUE(srv.start().is_ok());
  const util::Deadline io = util::Deadline::after_seconds(10.0);

  // Simulate a peer whose socket never drains: every server-side send
  // reports EAGAIN, so replies pile up in the connection's outbound queue
  // (deterministic — real kernel socket buffers would absorb megabytes).
  util::FaultHooks::instance().server_send_block.store(true);

  net::Socket slow;
  ASSERT_TRUE(
      net::connect_tcp("127.0.0.1", srv.port(), 2000, &slow).is_ok());
  // All ten PINGs go out in one send: a server that answers the first
  // frames and trips the bound before the rest arrive must not be able to
  // close the socket under a later send.
  std::vector<std::uint8_t> pings;
  for (std::uint64_t id = 1; id <= 10; ++id) {
    const std::vector<std::uint8_t> f = net::encode_frame(
        MessageType::kPingRequest, id, device_id, 0,
        net::encode_ping_request(0));
    pings.insert(pings.end(), f.begin(), f.end());
  }
  ASSERT_TRUE(
      net::send_all(slow.fd(), pings.data(), pings.size(), io).is_ok());

  // The backlog bound trips without any worker blocking on the peer.
  const auto wait_until = std::chrono::steady_clock::now() +
                          std::chrono::seconds(5);
  while (srv.stats().slow_peer_disconnects == 0 &&
         std::chrono::steady_clock::now() < wait_until)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  util::FaultHooks::instance().server_send_block.store(false);
  EXPECT_GE(srv.stats().slow_peer_disconnects, 1u);

  // The event loop and worker never wedged: a healthy client is served.
  AuthClient healthy = pipelined_client(srv.port(), device_id, 1);
  EXPECT_TRUE(healthy.ping().is_ok());

  // And the slow peer really was cut off.
  Frame reply;
  EXPECT_FALSE(
      net::read_frame(slow.fd(), &reply, util::Deadline::after_seconds(2.0))
          .is_ok());
  srv.stop();
  util::FaultHooks::instance().reset();
}

// ---------------------------------------------------------------------------
// Soak: thousands of connections held open at once on a coalescing server,
// each served one PING, and the server still answers a fresh client.

TEST(Coalescing, ThousandsOfOpenConnectionsStayServed) {
  // Each connection costs this process two fds (client end and accepted
  // end), so the target is clamped to the fd limit with headroom.
  std::size_t target = 10000;
  struct rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur != RLIM_INFINITY)
    target = std::min<std::size_t>(
        target, rl.rlim_cur > 512
                    ? static_cast<std::size_t>(rl.rlim_cur - 256) / 2
                    : 64);

  AuthServerOptions o;
  o.threads = 2;
  o.coalesce_max_batch = 16;
  o.coalesce_wait_us = 200;
  o.response_cache_bytes = std::size_t{16} << 20;
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "coalesce_soak");
  AuthServer srv(reg, o);
  ASSERT_TRUE(srv.start().is_ok());
  const util::Deadline io = util::Deadline::after_seconds(60.0);

  std::vector<net::Socket> open_conns;
  open_conns.reserve(target);
  std::size_t served = 0;
  for (std::size_t i = 0; i < target; ++i) {
    net::Socket sock;
    if (!net::connect_tcp("127.0.0.1", srv.port(), 2000, &sock).is_ok())
      break;
    const std::vector<std::uint8_t> f = net::encode_frame(
        MessageType::kPingRequest, i + 1, device_id, 0,
        net::encode_ping_request(0));
    Frame reply;
    if (net::send_all(sock.fd(), f.data(), f.size(), io).is_ok() &&
        net::read_frame(sock.fd(), &reply, io).is_ok() &&
        reply.type == MessageType::kPingReply)
      ++served;
    open_conns.push_back(std::move(sock));
  }
  EXPECT_EQ(served, target);

  // Liveness while every soak connection still sits in the epoll set.
  AuthClient probe = pipelined_client(srv.port(), device_id, 1);
  EXPECT_TRUE(probe.ping().is_ok());
  open_conns.clear();
  srv.stop();
}

}  // namespace
}  // namespace ppuf
