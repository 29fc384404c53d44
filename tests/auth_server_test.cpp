// End-to-end tests of the authentication service: AuthServer + AuthClient
// over real loopback sockets.
//
// Everything here runs against in-process servers on ephemeral 127.0.0.1
// ports, so the suite exercises the full stack — framing, epoll loop,
// worker pool, admission control, deadline propagation, graceful drain —
// without touching anything outside the test process.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "backend/backend.hpp"
#include "backend/pdl_backend.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "ppuf/ppuf.hpp"
#include "ppuf/sim_model.hpp"
#include "protocol/authentication.hpp"
#include "registry/device_registry.hpp"
#include "server/auth_server.hpp"
#include "testing/fault_injection.hpp"
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

/// One fabricated instance + its public model, shared by every test (the
/// tests in this binary run sequentially on one thread).
MaxFlowPpuf& shared_puf() {
  static MaxFlowPpuf puf(small_params(), kSeed);
  return puf;
}

SimulationModel& shared_model() {
  static SimulationModel model(shared_puf());
  return model;
}

AuthServerOptions default_options() {
  AuthServerOptions o;
  o.threads = 2;
  o.chain_length = 3;
  o.spot_checks = 0;  // verify every round: deterministic verdicts
  return o;
}

/// Enroll a small device and return its id.  The enrollment seed fully
/// determines the fabricated instance, so tests can build the matching
/// "chip" locally as MaxFlowPpuf(params, seed).
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

AuthClient client_for_device(std::uint16_t port, std::uint64_t device_id) {
  net::ClientOptions o;
  o.device_id = device_id;
  return AuthClient("127.0.0.1", port, o);
}

/// A registry of one: a fresh registry named `name` holding the shared
/// device (small_params(), kSeed — the silicon shared_puf() holds, whose
/// published model is shared_model()).  Returns its device id.
std::uint64_t enroll_shared(registry::DeviceRegistry& reg, const char* name) {
  EXPECT_TRUE(reg.open(fresh_dir(name)).is_ok());
  return enroll_small(reg, kSeed, "shared");
}

WireCode error_code_of(const Frame& reply) {
  net::ErrorReply err;
  if (reply.type != MessageType::kErrorReply ||
      !net::decode_error_reply(reply.payload, &err).is_ok())
    return WireCode::kOk;
  return err.code;
}

TEST(AuthServer, BindsEphemeralPortAndStops) {
  registry::DeviceRegistry reg;
  enroll_shared(reg, "authsrv_bind");
  AuthServer srv(reg, default_options());
  ASSERT_TRUE(srv.start().is_ok());
  EXPECT_NE(srv.port(), 0);
  EXPECT_TRUE(srv.running());
  srv.stop();
  EXPECT_FALSE(srv.running());
}

TEST(AuthServer, PingReportsHealthPayload) {
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "authsrv_ping");
  AuthServer srv(reg, default_options());
  ASSERT_TRUE(srv.start().is_ok());
  AuthClient client = client_for_device(srv.port(), device_id);
  net::HealthInfo health;
  ASSERT_TRUE(client.ping(0, {}, &health).is_ok());
  EXPECT_EQ(health.draining, 0);
  EXPECT_EQ(health.max_inflight,
            static_cast<std::uint32_t>(default_options().max_inflight));
  // The ping being answered is itself in flight when the snapshot is
  // taken, so both tallies are at least one.
  EXPECT_GE(health.inflight, 1u);
  EXPECT_GE(health.requests_served, 1u);
  EXPECT_GE(health.connections_accepted, 1u);
  srv.stop();
}

TEST(AuthServer, PredictMatchesLocalModel) {
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "authsrv_predict");
  AuthServer srv(reg, default_options());
  ASSERT_TRUE(srv.start().is_ok());
  AuthClient client = client_for_device(srv.port(), device_id);
  util::Rng rng(21);
  for (int i = 0; i < 5; ++i) {
    const Challenge c = random_challenge(shared_model().layout(), rng);
    SimulationModel::Prediction remote;
    ASSERT_TRUE(client.predict(c, &remote).is_ok());
    const SimulationModel::Prediction local = shared_model().predict(c);
    EXPECT_EQ(remote.bit, local.bit);
    EXPECT_EQ(remote.flow_a, local.flow_a);
    EXPECT_EQ(remote.flow_b, local.flow_b);
  }
  srv.stop();
}

TEST(AuthServer, VerifyAcceptsHonestRejectsTampered) {
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "authsrv_verify");
  AuthServer srv(reg, default_options());
  ASSERT_TRUE(srv.start().is_ok());
  AuthClient client = client_for_device(srv.port(), device_id);
  util::Rng rng(22);
  const Challenge c = random_challenge(shared_model().layout(), rng);
  const protocol::ProverReport honest =
      protocol::prove_with_ppuf(shared_puf(), c, kChipDelay);

  protocol::AuthenticationResult result;
  ASSERT_TRUE(client.verify(c, honest, &result).is_ok());
  EXPECT_TRUE(result.accepted) << result.detail;

  protocol::ProverReport tampered = honest;
  tampered.bit ^= 1;  // claim the opposite response
  ASSERT_TRUE(client.verify(c, tampered, &result).is_ok());
  EXPECT_FALSE(result.accepted);
  srv.stop();
}

TEST(AuthServer, VerifyBatchKeepsItemOrder) {
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "authsrv_verify_batch");
  AuthServer srv(reg, default_options());
  ASSERT_TRUE(srv.start().is_ok());
  AuthClient client = client_for_device(srv.port(), device_id);
  util::Rng rng(23);
  std::vector<Challenge> challenges;
  std::vector<protocol::ProverReport> reports;
  for (int i = 0; i < 3; ++i) {
    challenges.push_back(random_challenge(shared_model().layout(), rng));
    reports.push_back(
        protocol::prove_with_ppuf(shared_puf(), challenges.back(),
                                  kChipDelay));
  }
  reports[1].flow_a *= 2.0;  // tamper the middle item only
  std::vector<protocol::AuthenticationResult> results;
  ASSERT_TRUE(client.verify_batch(challenges, reports, &results).is_ok());
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].accepted) << results[0].detail;
  EXPECT_FALSE(results[1].accepted);
  EXPECT_TRUE(results[2].accepted) << results[2].detail;
  srv.stop();
}

TEST(AuthServer, ChainedAuthAcceptsHolderRejectsWrongChip) {
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "authsrv_chained");
  AuthServer srv(reg, default_options());
  ASSERT_TRUE(srv.start().is_ok());
  AuthClient client = client_for_device(srv.port(), device_id);

  net::ChallengeGrant grant;
  ASSERT_TRUE(client.get_challenge(&grant).is_ok());
  EXPECT_EQ(grant.chain_length, 3u);
  EXPECT_GT(grant.deadline_seconds, 0.0);

  // The honest holder executes the chain on the real chip.
  const protocol::ChainedReport honest = protocol::prove_chain_with_ppuf(
      shared_puf(), grant.challenge, grant.chain_length, grant.nonce,
      kChipDelay);
  protocol::ChainedVerifyResult verdict;
  ASSERT_TRUE(client.chained_auth(grant, honest, &verdict).is_ok());
  EXPECT_TRUE(verdict.accepted) << verdict.detail;

  // A different chip (wrong seed) answers the same grant and must fail.
  MaxFlowPpuf impostor(small_params(), kSeed + 1);
  ASSERT_TRUE(client.get_challenge(&grant).is_ok());
  const protocol::ChainedReport forged = protocol::prove_chain_with_ppuf(
      impostor, grant.challenge, grant.chain_length, grant.nonce, kChipDelay);
  ASSERT_TRUE(client.chained_auth(grant, forged, &verdict).is_ok());
  EXPECT_FALSE(verdict.accepted);
  srv.stop();
}

TEST(AuthServer, InvalidChallengeIsTypedInvalidArgument) {
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "authsrv_invalid");
  AuthServer srv(reg, default_options());
  ASSERT_TRUE(srv.start().is_ok());
  AuthClient client = client_for_device(srv.port(), device_id);
  Challenge bad;
  bad.source = 0;
  bad.sink = 9999;  // out of range for a 16-node model
  bad.bits.assign(shared_model().layout().cell_count(), 0);
  SimulationModel::Prediction p;
  const Status s = client.predict(bad, &p);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  srv.stop();
}

TEST(AuthServer, DeadlineExpiryYieldsTypedReplyOnLiveConnection) {
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "authsrv_deadline");
  AuthServer srv(reg, default_options());
  ASSERT_TRUE(srv.start().is_ok());
  net::Socket sock;
  ASSERT_TRUE(
      net::connect_tcp("127.0.0.1", srv.port(), 2000, &sock).is_ok());
  const util::Deadline io = util::Deadline::after_seconds(5.0);

  // budget_ms = 25 while the handler is asked to hold the request 1000 ms:
  // the budget expires mid-work and must yield a typed error reply.
  const std::vector<std::uint8_t> request = net::encode_frame(
      MessageType::kPingRequest, 50, device_id, 25,
      net::encode_ping_request(1000));
  ASSERT_TRUE(
      net::send_all(sock.fd(), request.data(), request.size(), io).is_ok());
  Frame reply;
  ASSERT_TRUE(net::read_frame(sock.fd(), &reply, io).is_ok());
  EXPECT_EQ(reply.request_id, 50u);
  EXPECT_EQ(error_code_of(reply), WireCode::kDeadlineExceeded);

  // Not a dropped connection: the next request on the same socket works.
  const std::vector<std::uint8_t> followup = net::encode_frame(
      MessageType::kPingRequest, 51, device_id, 0,
      net::encode_ping_request(0));
  ASSERT_TRUE(
      net::send_all(sock.fd(), followup.data(), followup.size(), io)
          .is_ok());
  ASSERT_TRUE(net::read_frame(sock.fd(), &reply, io).is_ok());
  EXPECT_EQ(reply.type, MessageType::kPingReply);
  EXPECT_EQ(reply.request_id, 51u);
  srv.stop();
}

TEST(AuthServer, QueuedReadsExpireTypedBeforeHydration) {
  AuthServerOptions o = default_options();
  o.threads = 1;  // a single worker, parked on purpose
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "authsrv_read_expiry");
  AuthServer srv(reg, o);
  ASSERT_TRUE(srv.start().is_ok());
  const util::Deadline io = util::Deadline::after_seconds(10.0);

  // Pipelined: PREDICT, VERIFY and a PREDICT for a never-enrolled id, each
  // with a 40 ms budget that dies in the queue, then an unlimited PREDICT.
  // Built before the worker parks, so only the queue wait burns budget.
  constexpr std::uint64_t kUnknownId = 999;
  util::Rng rng(24);
  const Challenge c = random_challenge(shared_model().layout(), rng);
  const protocol::ProverReport honest =
      protocol::prove_with_ppuf(shared_puf(), c, kChipDelay);
  std::vector<std::uint8_t> burst;
  for (const std::vector<std::uint8_t>& f :
       {net::encode_frame(MessageType::kPredictRequest, 1, device_id, 40,
                          net::encode_predict_request(c)),
        net::encode_frame(MessageType::kVerifyRequest, 2, device_id, 40,
                          net::encode_verify_request(c, honest)),
        net::encode_frame(MessageType::kPredictRequest, 3, kUnknownId, 40,
                          net::encode_predict_request(c)),
        net::encode_frame(MessageType::kPredictRequest, 4, device_id, 0,
                          net::encode_predict_request(c))})
    burst.insert(burst.end(), f.begin(), f.end());
  const SimulationModel::Prediction want = shared_model().predict(c);
  net::Socket sock;
  ASSERT_TRUE(
      net::connect_tcp("127.0.0.1", srv.port(), 2000, &sock).is_ok());

  // Park the only worker for 150 ms; the reads queue behind it.
  net::Socket parker;
  ASSERT_TRUE(
      net::connect_tcp("127.0.0.1", srv.port(), 2000, &parker).is_ok());
  const std::vector<std::uint8_t> park = net::encode_frame(
      MessageType::kPingRequest, 99, device_id, 0,
      net::encode_ping_request(150));
  ASSERT_TRUE(
      net::send_all(parker.fd(), park.data(), park.size(), io).is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(
      net::send_all(sock.fd(), burst.data(), burst.size(), io).is_ok());

  for (int n = 0; n < 4; ++n) {
    Frame reply;
    ASSERT_TRUE(net::read_frame(sock.fd(), &reply, io).is_ok());
    ASSERT_GE(reply.request_id, 1u);
    ASSERT_LE(reply.request_id, 4u);
    if (reply.request_id != 4) {
      // Expiry is checked before the device resolves, so even the unknown
      // id answers DEADLINE_EXCEEDED rather than UNKNOWN_DEVICE.
      EXPECT_EQ(error_code_of(reply), WireCode::kDeadlineExceeded)
          << "id " << reply.request_id;
      continue;
    }
    ASSERT_EQ(reply.type, MessageType::kPredictReply);
    SimulationModel::Prediction p;
    ASSERT_TRUE(net::decode_predict_reply(reply.payload, &p).is_ok());
    EXPECT_EQ(p.bit, want.bit);
    EXPECT_EQ(p.flow_a, want.flow_a);
    EXPECT_EQ(p.flow_b, want.flow_b);
  }
  Frame parked;
  ASSERT_TRUE(net::read_frame(parker.fd(), &parked, io).is_ok());
  EXPECT_EQ(parked.type, MessageType::kPingReply);
  EXPECT_EQ(srv.stats().unknown_device_rejections, 0u);
  srv.stop();
}

TEST(AuthServer, OverloadYieldsTypedRepliesWithoutBlockingAcceptor) {
  AuthServerOptions tiny = default_options();
  tiny.threads = 1;
  tiny.max_inflight = 1;
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "authsrv_overload");
  AuthServer srv(reg, tiny);
  ASSERT_TRUE(srv.start().is_ok());
  net::Socket sock;
  ASSERT_TRUE(
      net::connect_tcp("127.0.0.1", srv.port(), 2000, &sock).is_ok());
  const util::Deadline io = util::Deadline::after_seconds(10.0);

  // Three pipelined requests; the first parks the only worker for 300 ms,
  // so admission control must answer the other two typed OVERLOADED.
  std::vector<std::uint8_t> burst;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const std::vector<std::uint8_t> f = net::encode_frame(
        MessageType::kPingRequest, id, device_id, 0,
        net::encode_ping_request(300));
    burst.insert(burst.end(), f.begin(), f.end());
  }
  ASSERT_TRUE(
      net::send_all(sock.fd(), burst.data(), burst.size(), io).is_ok());

  int served = 0, overloaded = 0;
  for (int i = 0; i < 3; ++i) {
    Frame reply;
    ASSERT_TRUE(net::read_frame(sock.fd(), &reply, io).is_ok());
    if (reply.type == MessageType::kPingReply)
      ++served;
    else if (error_code_of(reply) == WireCode::kOverloaded)
      ++overloaded;
  }
  EXPECT_EQ(served, 1);
  EXPECT_EQ(overloaded, 2);

  // While the admission bound was doing its job the acceptor stayed live:
  // a second connection gets served immediately afterwards.
  AuthClient client = client_for_device(srv.port(), device_id);
  EXPECT_TRUE(client.ping().is_ok());
  srv.stop();
  EXPECT_EQ(srv.stats().overloaded_rejections, 2u);
}

TEST(AuthServer, ClientRetriesThroughOverload) {
  AuthServerOptions tiny = default_options();
  tiny.threads = 1;
  tiny.max_inflight = 1;
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "authsrv_retries");
  AuthServer srv(reg, tiny);
  ASSERT_TRUE(srv.start().is_ok());

  // Thread A parks the only worker; B's first attempt is rejected typed
  // OVERLOADED, then backoff + retry succeed once the worker frees up.
  std::thread occupant([&] {
    AuthClient a = client_for_device(srv.port(), device_id);
    EXPECT_TRUE(a.ping(150).is_ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  net::ClientOptions retrying;
  retrying.max_attempts = 10;
  retrying.backoff_initial_ms = 20;
  retrying.backoff_max_ms = 100;
  retrying.device_id = device_id;
  AuthClient b("127.0.0.1", srv.port(), retrying);
  EXPECT_TRUE(b.ping().is_ok());
  EXPECT_GE(b.stats().retries, 1u);
  occupant.join();
  srv.stop();
}

TEST(AuthServer, DrainRejectsNewFinishesInflight) {
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "authsrv_drain");
  AuthServer srv(reg, default_options());
  ASSERT_TRUE(srv.start().is_ok());
  net::Socket sock;
  ASSERT_TRUE(
      net::connect_tcp("127.0.0.1", srv.port(), 2000, &sock).is_ok());
  const util::Deadline io = util::Deadline::after_seconds(10.0);

  // In-flight work before the drain begins...
  const std::vector<std::uint8_t> slow = net::encode_frame(
      MessageType::kPingRequest, 1, device_id, 0,
      net::encode_ping_request(300));
  ASSERT_TRUE(
      net::send_all(sock.fd(), slow.data(), slow.size(), io).is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  srv.request_drain();
  EXPECT_TRUE(srv.draining());

  // ...must finish; new *work* must be answered typed SHUTTING_DOWN
  // (PING is exempt: readiness probes are served inline during a drain).
  const std::vector<std::uint8_t> late = net::encode_frame(
      MessageType::kChallengeRequest, 2, device_id, 0,
      net::encode_challenge_request());
  ASSERT_TRUE(
      net::send_all(sock.fd(), late.data(), late.size(), io).is_ok());
  const std::vector<std::uint8_t> probe = net::encode_frame(
      MessageType::kPingRequest, 3, device_id, 0,
      net::encode_ping_request(0));
  ASSERT_TRUE(
      net::send_all(sock.fd(), probe.data(), probe.size(), io).is_ok());

  int ping_ok = 0, shutting_down = 0, drain_visible = 0;
  for (int i = 0; i < 3; ++i) {
    Frame reply;
    ASSERT_TRUE(net::read_frame(sock.fd(), &reply, io).is_ok());
    if (reply.type == MessageType::kPingReply && reply.request_id == 1) {
      ++ping_ok;
    } else if (reply.type == MessageType::kPingReply &&
               reply.request_id == 3) {
      net::HealthInfo health;
      ASSERT_TRUE(net::decode_ping_reply(reply.payload, &health).is_ok());
      EXPECT_EQ(health.draining, 1);
      ++drain_visible;
    } else if (error_code_of(reply) == WireCode::kShuttingDown) {
      ++shutting_down;
    }
  }
  EXPECT_EQ(ping_ok, 1);
  EXPECT_EQ(shutting_down, 1);
  EXPECT_EQ(drain_visible, 1);

  srv.wait();
  EXPECT_FALSE(srv.running());
  EXPECT_EQ(srv.stats().shutdown_rejections, 1u);

  // Fully drained: the listener is gone.
  net::Socket refused;
  EXPECT_FALSE(
      net::connect_tcp("127.0.0.1", srv.port(), 250, &refused).is_ok());
}

TEST(AuthServer, MalformedStreamGetsTypedErrorThenClose) {
  registry::DeviceRegistry reg;
  enroll_shared(reg, "authsrv_malformed");
  AuthServer srv(reg, default_options());
  ASSERT_TRUE(srv.start().is_ok());
  net::Socket sock;
  ASSERT_TRUE(
      net::connect_tcp("127.0.0.1", srv.port(), 2000, &sock).is_ok());
  const util::Deadline io = util::Deadline::after_seconds(5.0);

  std::vector<std::uint8_t> garbage(net::kHeaderSize, 0x58);  // "XXXX..."
  ASSERT_TRUE(
      net::send_all(sock.fd(), garbage.data(), garbage.size(), io).is_ok());
  Frame reply;
  ASSERT_TRUE(net::read_frame(sock.fd(), &reply, io).is_ok());
  EXPECT_EQ(error_code_of(reply), WireCode::kMalformed);

  // An unsynchronised stream cannot be trusted further: the server closes
  // after flushing the error.
  std::uint8_t byte = 0;
  EXPECT_FALSE(net::recv_exact(sock.fd(), &byte, 1, io).is_ok());
  srv.stop();
  EXPECT_EQ(srv.stats().malformed_frames, 1u);
}

TEST(AuthServer, NonRequestTypeGetsTypedUnsupported) {
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "authsrv_unsupported");
  AuthServer srv(reg, default_options());
  ASSERT_TRUE(srv.start().is_ok());
  net::Socket sock;
  ASSERT_TRUE(
      net::connect_tcp("127.0.0.1", srv.port(), 2000, &sock).is_ok());
  const util::Deadline io = util::Deadline::after_seconds(5.0);
  // A well-framed message whose type is a *reply*: framing survives, the
  // dispatcher rejects it typed.
  const std::vector<std::uint8_t> bogus =
      net::encode_frame(MessageType::kPingReply, 3, device_id, 0, {});
  ASSERT_TRUE(
      net::send_all(sock.fd(), bogus.data(), bogus.size(), io).is_ok());
  Frame reply;
  ASSERT_TRUE(net::read_frame(sock.fd(), &reply, io).is_ok());
  EXPECT_EQ(error_code_of(reply), WireCode::kUnsupportedType);
  srv.stop();
}

TEST(AuthServer, SurvivesInjectedSendFailureMidPipeline) {
  // Deterministic regression for a use-after-free: the fault hook makes the
  // server's first reply send fail as if the peer reset the connection, so
  // close_connection() destroys the Connection inside consume_frames with
  // 63 pipelined frames still unprocessed.  The loop must re-look-up the
  // connection instead of touching the destroyed one (the ASan CI job
  // turns any regression into a crash).
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "authsrv_send_failure");
  AuthServer srv(reg, default_options());
  ASSERT_TRUE(srv.start().is_ok());
  const util::Deadline io = util::Deadline::after_seconds(5.0);
  const std::vector<std::uint8_t> one =
      net::encode_frame(MessageType::kPingReply, 9, device_id, 0, {});
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < 64; ++i)
    burst.insert(burst.end(), one.begin(), one.end());
  {
    testing::FaultSpec spec;
    spec.server_send_failures = 1;
    const testing::ScopedFaultInjection fault(spec);
    net::Socket sock;
    ASSERT_TRUE(
        net::connect_tcp("127.0.0.1", srv.port(), 2000, &sock).is_ok());
    ASSERT_TRUE(
        net::send_all(sock.fd(), burst.data(), burst.size(), io).is_ok());
    // The injected failure makes the server close this connection without
    // replying; recv returning 0/error is the sync point proving the burst
    // was fully processed before the hook is disarmed.
    std::uint8_t sink[256];
    while (::recv(sock.fd(), sink, sizeof(sink), 0) > 0) {
    }
  }
  // The server must come through intact and still serving.
  AuthClient client = client_for_device(srv.port(), device_id);
  EXPECT_TRUE(client.ping().is_ok());
  srv.stop();
}

TEST(AuthServer, SurvivesPipelinedFramesWithAbruptReset) {
  // Regression for a use-after-free: a send error while replying to one of
  // several pipelined frames closes (destroys) the connection inside
  // consume_frames, which must then stop touching it.  Non-request frames
  // produce their error replies synchronously on the event loop, so an
  // RST racing the reply burst exercises exactly that path (the ASan CI
  // job turns any regression into a crash).
  registry::DeviceRegistry reg;
  const std::uint64_t device_id = enroll_shared(reg, "authsrv_abrupt_reset");
  AuthServer srv(reg, default_options());
  ASSERT_TRUE(srv.start().is_ok());
  const util::Deadline io = util::Deadline::after_seconds(5.0);
  const std::vector<std::uint8_t> one =
      net::encode_frame(MessageType::kPingReply, 9, device_id, 0, {});
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < 64; ++i)
    burst.insert(burst.end(), one.begin(), one.end());
  for (int trial = 0; trial < 20; ++trial) {
    net::Socket sock;
    ASSERT_TRUE(
        net::connect_tcp("127.0.0.1", srv.port(), 2000, &sock).is_ok());
    ASSERT_TRUE(
        net::send_all(sock.fd(), burst.data(), burst.size(), io).is_ok());
    // Close with the replies unread and linger zeroed: the peer sees an
    // RST, so the server's next send on this connection fails mid-burst.
    struct linger lg = {1, 0};
    setsockopt(sock.fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  }  // ~Socket closes the fd here
  // The server must come through intact and still serving.
  AuthClient client = client_for_device(srv.port(), device_id);
  EXPECT_TRUE(client.ping().is_ok());
  srv.stop();
}

TEST(AuthServer, RetryBackoffRespectsDeadline) {
  // Find a port with no listener behind it.
  net::Socket probe;
  std::uint16_t dead_port = 0;
  ASSERT_TRUE(net::listen_tcp(0, 1, &probe, &dead_port).is_ok());
  probe.close();

  net::ClientOptions slow;
  slow.max_attempts = 5;
  slow.backoff_initial_ms = 2000;  // well past the deadline if slept fully
  slow.backoff_max_ms = 2000;
  AuthClient client("127.0.0.1", dead_port, slow);
  const auto start = std::chrono::steady_clock::now();
  const Status s = client.ping(0, util::Deadline::after_seconds(0.1));
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  // Refusal on loopback is near-instant, so the attempts may exhaust
  // (UNAVAILABLE) a hair before the expiry check fires (DEADLINE_EXCEEDED);
  // either way the loop must bail or clamp its backoff at the deadline
  // instead of sleeping the full 2 s schedule.
  EXPECT_FALSE(s.is_ok());
  EXPECT_TRUE(s.code() == StatusCode::kDeadlineExceeded ||
              s.code() == StatusCode::kUnavailable)
      << s.to_string();
  EXPECT_LT(elapsed_ms, 1500);
}

// ---------------------------------------------------------------------------
// Multi-tenant mode: one server fronting a DeviceRegistry.

/// Run one full chained authentication against `port` as `device_id`,
/// proving with `chip`.  Returns the transport status; *verdict reports
/// the protocol outcome when the exchange itself succeeded.
Status chained_auth_as(std::uint16_t port, std::uint64_t device_id,
                       MaxFlowPpuf& chip,
                       protocol::ChainedVerifyResult* verdict) {
  AuthClient client = client_for_device(port, device_id);
  net::ChallengeGrant grant;
  if (Status s = client.get_challenge(&grant); !s.is_ok()) return s;
  const protocol::ChainedReport report = protocol::prove_chain_with_ppuf(
      chip, grant.challenge, grant.chain_length, grant.nonce, kChipDelay);
  return client.chained_auth(grant, report, verdict);
}

TEST(AuthServerRegistry, ServesEnrolledDevicesAndRejectsCrossDeviceProofs) {
  registry::DeviceRegistry reg;
  ASSERT_TRUE(
      reg.open(fresh_dir("authsrv_multi")).is_ok());
  const std::uint64_t seeds[3] = {101, 102, 103};
  std::uint64_t ids[3];
  for (int i = 0; i < 3; ++i)
    ids[i] = enroll_small(reg, seeds[i], "dev");

  AuthServer srv(reg, default_options());
  ASSERT_TRUE(srv.start().is_ok());

  // Every enrolled device authenticates with its own silicon...
  for (int i = 0; i < 3; ++i) {
    MaxFlowPpuf chip(small_params(), seeds[i]);
    protocol::ChainedVerifyResult verdict;
    ASSERT_TRUE(
        chained_auth_as(srv.port(), ids[i], chip, &verdict).is_ok());
    EXPECT_TRUE(verdict.accepted)
        << "device " << ids[i] << ": " << verdict.detail;
  }
  // ...and device A's chip cannot answer for device B.
  MaxFlowPpuf chip_a(small_params(), seeds[0]);
  protocol::ChainedVerifyResult verdict;
  ASSERT_TRUE(
      chained_auth_as(srv.port(), ids[1], chip_a, &verdict).is_ok());
  EXPECT_FALSE(verdict.accepted);

  // PREDICT is routed per device too: same challenge, per-device answers
  // matching each device's own published model.
  util::Rng rng(31);
  SimulationModel model_a, model_b;
  ASSERT_TRUE(reg.load_model(ids[0], &model_a).is_ok());
  ASSERT_TRUE(reg.load_model(ids[1], &model_b).is_ok());
  const Challenge c = random_challenge(model_a.layout(), rng);
  SimulationModel::Prediction pa, pb;
  ASSERT_TRUE(client_for_device(srv.port(), ids[0]).predict(c, &pa).is_ok());
  ASSERT_TRUE(client_for_device(srv.port(), ids[1]).predict(c, &pb).is_ok());
  EXPECT_EQ(pa.flow_a, model_a.predict(c).flow_a);
  EXPECT_EQ(pb.flow_a, model_b.predict(c).flow_a);
  srv.stop();
}

TEST(AuthServerRegistry, UnknownRevokedAndZeroIdsGetTypedNotFound) {
  registry::DeviceRegistry reg;
  ASSERT_TRUE(
      reg.open(fresh_dir("authsrv_unknown")).is_ok());
  const std::uint64_t id = enroll_small(reg, 55, "victim");

  AuthServer srv(reg, default_options());
  ASSERT_TRUE(srv.start().is_ok());

  net::ChallengeGrant grant;
  // Never-enrolled id.
  EXPECT_EQ(client_for_device(srv.port(), 999).get_challenge(&grant).code(),
            StatusCode::kNotFound);
  // Id 0 has no implicit meaning in registry mode.
  EXPECT_EQ(client_for_device(srv.port(), 0).get_challenge(&grant).code(),
            StatusCode::kNotFound);

  // The device works until revoked, then gets the same typed refusal —
  // even though its model may still sit in the hydration cache.
  ASSERT_TRUE(client_for_device(srv.port(), id).get_challenge(&grant).is_ok());
  ASSERT_TRUE(reg.revoke(id).is_ok());
  EXPECT_EQ(client_for_device(srv.port(), id).get_challenge(&grant).code(),
            StatusCode::kNotFound);

  EXPECT_GE(srv.stats().unknown_device_rejections, 3u);
  srv.stop();
}

TEST(AuthServerRegistry, RegistryPersistsAcrossServerRestart) {
  // Seed 101 is known-good for the first grant of a challenge_seed=1
  // server (the chained protocol's flow tolerance is approximate, so
  // accept/reject is deterministic per (device seed, challenge) pair).
  constexpr std::uint64_t kDeviceSeed = 101;
  const std::string dir = fresh_dir("authsrv_restart");
  std::uint64_t id = 0;
  {
    registry::DeviceRegistry reg;
    ASSERT_TRUE(reg.open(dir).is_ok());
    id = enroll_small(reg, kDeviceSeed, "persistent");
    AuthServer srv(reg, default_options());
    ASSERT_TRUE(srv.start().is_ok());
    MaxFlowPpuf chip(small_params(), kDeviceSeed);
    protocol::ChainedVerifyResult verdict;
    ASSERT_TRUE(chained_auth_as(srv.port(), id, chip, &verdict).is_ok());
    EXPECT_TRUE(verdict.accepted) << verdict.detail;
    srv.stop();
  }
  // Cold start: a new registry instance recovered from disk serves the
  // same device to a new server.
  registry::DeviceRegistry reg;
  ASSERT_TRUE(reg.open(dir).is_ok());
  AuthServer srv(reg, default_options());
  ASSERT_TRUE(srv.start().is_ok());
  MaxFlowPpuf chip(small_params(), kDeviceSeed);
  protocol::ChainedVerifyResult verdict;
  ASSERT_TRUE(chained_auth_as(srv.port(), id, chip, &verdict).is_ok());
  EXPECT_TRUE(verdict.accepted) << verdict.detail;
  srv.stop();
}

// ------------------------------------------------------------ mixed fleet
//
// One registry, one server, two PUF families side by side: the paper's
// max-flow PPUF and the PDL delay-PUF baseline.  Everything below runs
// through the real wire path — the server must route each request to the
// right backend per device.

constexpr std::size_t kPdlStages = 24;
constexpr std::size_t kPdlInstances = 2;

std::uint64_t enroll_pdl(registry::DeviceRegistry& reg, std::uint64_t seed,
                         const std::string& label) {
  registry::EnrollRequest req;
  req.backend = backend::BackendKind::kPdlDelay;
  req.node_count = kPdlStages;     // chain stages
  req.grid_size = kPdlInstances;   // XORed instances
  req.seed = seed;
  req.label = label;
  std::uint64_t id = 0;
  EXPECT_TRUE(reg.enroll(req, &id).is_ok());
  return id;
}

/// PDL counterpart of chained_auth_as: the holder re-fabricates its
/// silicon from the enrollment seed and proves the chain with it.
Status chained_auth_as_pdl(std::uint16_t port, std::uint64_t device_id,
                           std::uint64_t holder_seed,
                           protocol::ChainedVerifyResult* verdict) {
  AuthClient client = client_for_device(port, device_id);
  net::ChallengeGrant grant;
  if (Status s = client.get_challenge(&grant); !s.is_ok()) return s;
  const std::vector<puf::ArbiterPuf> silicon =
      backend::fabricate_pdl_instances(kPdlStages, kPdlInstances,
                                       holder_seed);
  const protocol::ChainedReport report = backend::prove_chain_with_pdl(
      silicon, grant.challenge, grant.chain_length, grant.nonce, kChipDelay);
  return client.chained_auth(grant, report, verdict);
}

TEST(AuthServerMixedFleet, InterleavedBackendsAuthenticatePerDevice) {
  registry::DeviceRegistry reg;
  ASSERT_TRUE(reg.open(fresh_dir("authsrv_mixed")).is_ok());
  // Interleave enrollment order so ids alternate between the families.
  const std::uint64_t mf_seeds[2] = {201, 202};
  const std::uint64_t pdl_seeds[2] = {301, 302};
  std::uint64_t mf_ids[2], pdl_ids[2];
  mf_ids[0] = enroll_small(reg, mf_seeds[0], "mf-0");
  pdl_ids[0] = enroll_pdl(reg, pdl_seeds[0], "pdl-0");
  mf_ids[1] = enroll_small(reg, mf_seeds[1], "mf-1");
  pdl_ids[1] = enroll_pdl(reg, pdl_seeds[1], "pdl-1");

  AuthServer srv(reg, default_options());
  ASSERT_TRUE(srv.start().is_ok());

  // Each max-flow device authenticates with its own silicon...
  for (int i = 0; i < 2; ++i) {
    MaxFlowPpuf chip(small_params(), mf_seeds[i]);
    protocol::ChainedVerifyResult verdict;
    ASSERT_TRUE(
        chained_auth_as(srv.port(), mf_ids[i], chip, &verdict).is_ok());
    EXPECT_TRUE(verdict.accepted)
        << "maxflow device " << mf_ids[i] << ": " << verdict.detail;
  }
  // ...and each PDL device with its own (grants carry PDL-shaped
  // challenges: k stage bits, fixed 0->1 terminals).
  for (int i = 0; i < 2; ++i) {
    protocol::ChainedVerifyResult verdict;
    ASSERT_TRUE(chained_auth_as_pdl(srv.port(), pdl_ids[i], pdl_seeds[i],
                                    &verdict)
                    .is_ok());
    EXPECT_TRUE(verdict.accepted)
        << "pdl device " << pdl_ids[i] << ": " << verdict.detail;
  }
  // Cross-device rejection holds within the PDL family too: device 0's
  // silicon cannot answer device 1's chain.
  protocol::ChainedVerifyResult verdict;
  ASSERT_TRUE(chained_auth_as_pdl(srv.port(), pdl_ids[1], pdl_seeds[0],
                                  &verdict)
                  .is_ok());
  EXPECT_FALSE(verdict.accepted);

  // PREDICT routes per backend: a PDL device answers its parity-model
  // bit, byte-identical to a local evaluation of the public model.
  AuthClient pdl_client = client_for_device(srv.port(), pdl_ids[0]);
  net::ChallengeGrant grant;
  ASSERT_TRUE(pdl_client.get_challenge(&grant).is_ok());
  SimulationModel::Prediction p;
  ASSERT_TRUE(pdl_client.predict(grant.challenge, &p).is_ok());
  const std::vector<puf::ArbiterPuf> silicon =
      backend::fabricate_pdl_instances(kPdlStages, kPdlInstances,
                                       pdl_seeds[0]);
  EXPECT_EQ(p.bit, backend::pdl_response(silicon, grant.challenge.bits));
  // A max-flow-shaped challenge is a typed error on a PDL device.
  Challenge bad = grant.challenge;
  bad.sink = 5;
  EXPECT_EQ(pdl_client.predict(bad, &p).code(),
            StatusCode::kInvalidArgument);
  srv.stop();
}

TEST(AuthServerMixedFleet, WireEnrollTagsBackendAndRejectsUnknownTag) {
  registry::DeviceRegistry reg;
  ASSERT_TRUE(reg.open(fresh_dir("authsrv_mixed_enroll")).is_ok());
  AuthServer srv(reg, default_options());
  ASSERT_TRUE(srv.start().is_ok());

  AuthClient admin("127.0.0.1", srv.port());
  net::EnrollRequestBody spec;
  spec.backend = static_cast<std::uint8_t>(backend::BackendKind::kPdlDelay);
  spec.node_count = kPdlStages;
  spec.grid_size = kPdlInstances;
  spec.fabrication_seed = 411;
  spec.label = "wire-pdl";
  std::uint64_t id = 0;
  ASSERT_TRUE(admin.enroll_device(spec, 0, &id).is_ok());
  ASSERT_NE(id, 0u);
  // The registry recorded the tag and the device serves as PDL.
  bool found = false;
  for (const auto& info : reg.list()) {
    if (info.id != id) continue;
    found = true;
    EXPECT_EQ(info.backend, backend::BackendKind::kPdlDelay);
  }
  EXPECT_TRUE(found);
  protocol::ChainedVerifyResult verdict;
  ASSERT_TRUE(chained_auth_as_pdl(srv.port(), id, 411, &verdict).is_ok());
  EXPECT_TRUE(verdict.accepted) << verdict.detail;

  // An unknown backend tag passes the wire codec but dies server-side
  // with a typed error — no partial enrollment.
  net::EnrollRequestBody future = spec;
  future.backend = 0x7f;
  std::uint64_t unused = 0;
  EXPECT_EQ(admin.enroll_device(future, 0, &unused).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.device_count(), 1u);
  srv.stop();
}

TEST(AuthServer, PublishesMetricsWhenRegistryEnabled) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.set_enabled(true);
  reg.reset();
  {
    registry::DeviceRegistry devices;
    const std::uint64_t device_id = enroll_shared(devices, "authsrv_metrics");
    AuthServer srv(devices, default_options());
    ASSERT_TRUE(srv.start().is_ok());
    AuthClient client = client_for_device(srv.port(), device_id);
    ASSERT_TRUE(client.ping().is_ok());
    srv.stop();
  }
  EXPECT_GE(reg.counter_value("server.requests"), 1u);
  EXPECT_GE(reg.counter_value("server.connections_accepted"), 1u);
  EXPECT_GE(reg.histogram_snapshot("server.ping.request_us").count, 1u);
  reg.set_enabled(false);
}

}  // namespace
}  // namespace ppuf
