// End-to-end tests of the fleet serving subsystem: consistent-hash ring,
// gateway routing/pinning/drain, shard admin, and the WAL-shipping
// standby with promotion.
//
// Everything runs in-process on loopback ephemeral ports, like
// auth_server_test: real sockets, real epoll loops, real WAL files under
// the test temp root.  Challenge seeds and enrollment seeds are fixed and
// requests are issued sequentially, so every verifier verdict in this
// file is deterministic — a green run stays green.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "circuit/mna.hpp"
#include "fleet/gateway.hpp"
#include "fleet/ring.hpp"
#include "fleet/standby.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "ppuf/ppuf.hpp"
#include "ppuf/response_cache.hpp"
#include "protocol/authentication.hpp"
#include "registry/device_registry.hpp"
#include "registry/hydration_cache.hpp"
#include "server/auth_server.hpp"
#include "testing/fault_injection.hpp"
#include "util/fault_hooks.hpp"
#include "util/status.hpp"
#include "test_dirs.hpp"

namespace ppuf {
namespace {

using test::fresh_dir;

namespace fs = std::filesystem;
using fleet::Gateway;
using fleet::GatewayOptions;
using fleet::HashRing;
using fleet::StandbyOptions;
using fleet::WalStandby;
using net::AuthClient;
using net::ClientOptions;
using server::AuthServer;
using server::AuthServerOptions;
using util::Status;
using util::StatusCode;

constexpr double kChipDelay = 1e-6;
// 16/4 matches auth_server_test: large enough that characterised
// capacities are well-conditioned, small enough to enroll by the dozen.
constexpr std::uint32_t kNodes = 16;
constexpr std::uint32_t kGrid = 4;
constexpr std::uint64_t kDeviceSeedBase = 9000;

AuthServerOptions shard_options(std::uint64_t challenge_seed) {
  AuthServerOptions o;
  o.threads = 2;
  o.chain_length = 2;
  o.spot_checks = 0;  // verify every round: deterministic verdicts
  o.challenge_seed = challenge_seed;
  return o;
}

net::EnrollRequestBody enroll_spec(std::uint64_t device_id) {
  net::EnrollRequestBody spec;
  spec.node_count = kNodes;
  spec.grid_size = kGrid;
  spec.fabrication_seed = kDeviceSeedBase + device_id;
  return spec;
}

/// The "chip" a device holder would possess: same params and fabrication
/// seed the registry used at enrollment.  Chips share one symbolic cache
/// (identical topology) so a 30-device test does one symbolic analysis.
std::unique_ptr<MaxFlowPpuf> make_chip(
    std::uint64_t device_id,
    const std::shared_ptr<circuit::SymbolicCache>& cache) {
  PpufParams p;
  p.node_count = kNodes;
  p.grid_size = kGrid;
  auto chip = std::make_unique<MaxFlowPpuf>(p, kDeviceSeedBase + device_id);
  chip->network_a().set_symbolic_cache(cache);
  chip->network_b().set_symbolic_cache(cache);
  return chip;
}

/// One registry-backed shard: its durable directory, registry, and server.
struct Shard {
  std::string dir;
  registry::DeviceRegistry registry;
  std::unique_ptr<AuthServer> server;

  Status open_and_start(const std::string& name,
                        std::uint64_t challenge_seed) {
    dir = fresh_dir(name);
    if (Status s = registry.open(dir); !s.is_ok()) return s;
    server = std::make_unique<AuthServer>(registry,
                                          shard_options(challenge_seed));
    return server->start();
  }
};

/// Poll the gateway's admin STATUS until every shard reports `kUp` (the
/// health prober needs a probe round trip before routing opens).
void wait_all_shards_up(AuthClient& admin_client, std::size_t expected) {
  for (int i = 0; i < 200; ++i) {
    net::AdminRequestBody req;
    req.op = net::AdminOp::kStatus;
    net::AdminReplyBody reply;
    if (admin_client.admin(req, &reply).is_ok() &&
        reply.shards.size() == expected) {
      std::size_t up = 0;
      for (const net::ShardStatus& s : reply.shards)
        if (s.state == 1) ++up;
      if (up == expected) return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  FAIL() << "shards never became healthy";
}

ClientOptions client_options_for(std::uint64_t device_id) {
  ClientOptions c;
  c.device_id = device_id;
  c.backoff_seed = 1;
  return c;
}

// --- HashRing --------------------------------------------------------------

TEST(HashRing, RoutesDeterministicallyAndSpreadsLoad) {
  HashRing ring;
  ring.add("a");
  ring.add("b");
  ring.add("c");
  ASSERT_EQ(ring.shard_count(), 3u);

  std::map<std::string, int> hits;
  for (std::uint64_t id = 1; id <= 9000; ++id) ++hits[ring.route(id)];
  // 128 vnodes per shard keeps the split well away from degenerate.
  for (const auto& [name, count] : hits)
    EXPECT_GT(count, 9000 / 6) << name << " is starved";

  HashRing twin;
  twin.add("c");  // insertion order must not matter
  twin.add("a");
  twin.add("b");
  for (std::uint64_t id = 1; id <= 500; ++id)
    EXPECT_EQ(ring.route(id), twin.route(id));
}

TEST(HashRing, RemovalOnlyMovesTheVictimsKeys) {
  HashRing ring;
  ring.add("a");
  ring.add("b");
  ring.add("c");
  std::map<std::uint64_t, std::string> before;
  for (std::uint64_t id = 1; id <= 4000; ++id) before[id] = ring.route(id);

  ring.remove("c");
  for (const auto& [id, owner] : before) {
    if (owner == "c") continue;  // these must land somewhere new
    EXPECT_EQ(ring.route(id), owner) << "id " << id << " moved needlessly";
  }
}

TEST(HashRing, EmptyAndMembershipBasics) {
  HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.route(42), "");
  ring.add("only");
  EXPECT_TRUE(ring.contains("only"));
  EXPECT_EQ(ring.route(42), "only");
  ring.add("only");  // idempotent
  EXPECT_EQ(ring.shard_count(), 1u);
  ring.remove("only");
  EXPECT_TRUE(ring.empty());
}

// --- Gateway end-to-end ----------------------------------------------------

TEST(FleetGateway, EndToEndEnrollPredictAndChainedAuth) {
  constexpr std::size_t kShards = 3;
  constexpr std::uint64_t kDevices = 30;

  Shard shards[kShards];
  ASSERT_TRUE(shards[0].open_and_start("e2e_a", 111).is_ok());
  ASSERT_TRUE(shards[1].open_and_start("e2e_b", 222).is_ok());
  ASSERT_TRUE(shards[2].open_and_start("e2e_c", 333).is_ok());

  GatewayOptions go;
  go.health_interval_ms = 25;
  Gateway gateway(go);
  ASSERT_TRUE(
      gateway.add_shard("a", "127.0.0.1", shards[0].server->port()).is_ok());
  ASSERT_TRUE(
      gateway.add_shard("b", "127.0.0.1", shards[1].server->port()).is_ok());
  ASSERT_TRUE(
      gateway.add_shard("c", "127.0.0.1", shards[2].server->port()).is_ok());
  ASSERT_TRUE(gateway.start().is_ok());

  AuthClient admin_client("127.0.0.1", gateway.port());
  wait_all_shards_up(admin_client, kShards);

  // Enroll every device THROUGH the gateway with an explicit id.
  for (std::uint64_t id = 1; id <= kDevices; ++id) {
    AuthClient c("127.0.0.1", gateway.port(), client_options_for(id));
    std::uint64_t assigned = 0;
    ASSERT_TRUE(c.enroll_device(enroll_spec(id), id, &assigned).is_ok())
        << "device " << id;
    EXPECT_EQ(assigned, id);
  }

  // Enrollments landed exactly once, spread across all three shards.
  std::uint64_t total = 0;
  for (Shard& s : shards) {
    EXPECT_GT(s.registry.device_count(), 0u);
    total += s.registry.device_count();
  }
  EXPECT_EQ(total, kDevices);

  // An id the ring cannot route (0) and a duplicate id are both typed
  // invalid-argument, not transport errors.
  {
    AuthClient c("127.0.0.1", gateway.port(), client_options_for(1));
    std::uint64_t assigned = 0;
    EXPECT_EQ(c.enroll_device(enroll_spec(1), 0, &assigned).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(c.enroll_device(enroll_spec(1), 1, &assigned).code(),
              StatusCode::kInvalidArgument);
  }

  auto cache = std::make_shared<circuit::SymbolicCache>();
  util::Rng challenge_rng(77);

  for (std::uint64_t id = 1; id <= kDevices; ++id) {
    // Find the owning shard the honest way: it is the only registry that
    // actually holds the device.
    Shard* owner = nullptr;
    for (Shard& s : shards)
      if (s.registry.contains(id)) {
        ASSERT_EQ(owner, nullptr) << "device " << id << " double-enrolled";
        owner = &s;
      }
    ASSERT_NE(owner, nullptr) << "device " << id << " lost";

    // PREDICT through the gateway must be byte-exact with the shard's own
    // answer: the gateway forwards frames verbatim, both replies come
    // from the same stored model.
    SimulationModel model;
    ASSERT_TRUE(owner->registry.load_model(id, &model).is_ok());
    const Challenge c = random_challenge(model.layout(), challenge_rng);
    AuthClient via_gateway("127.0.0.1", gateway.port(),
                           client_options_for(id));
    AuthClient direct("127.0.0.1", owner->server->port(),
                      client_options_for(id));
    SimulationModel::Prediction from_gateway, from_shard;
    ASSERT_TRUE(via_gateway.predict(c, &from_gateway).is_ok());
    ASSERT_TRUE(direct.predict(c, &from_shard).is_ok());
    EXPECT_EQ(from_gateway.bit, from_shard.bit);
    EXPECT_EQ(from_gateway.flow_a, from_shard.flow_a);
    EXPECT_EQ(from_gateway.flow_b, from_shard.flow_b);

    // Full chained authentication through the gateway: grant pins the
    // session, the proof follows the pin to the same shard.
    net::ChallengeGrant grant;
    ASSERT_TRUE(via_gateway.get_challenge(&grant).is_ok());
    auto chip = make_chip(id, cache);
    const protocol::ChainedReport proof = protocol::prove_chain_with_ppuf(
        *chip, grant.challenge, grant.chain_length, grant.nonce, kChipDelay);
    protocol::ChainedVerifyResult verdict;
    ASSERT_TRUE(via_gateway.chained_auth(grant, proof, &verdict).is_ok());
    EXPECT_TRUE(verdict.accepted)
        << "device " << id << ": " << verdict.detail;
  }

  const Gateway::Stats stats = gateway.stats();
  EXPECT_GE(stats.forwarded, 3 * kDevices);  // enroll + 2 auth legs each
  EXPECT_EQ(stats.pins_created, kDevices);
  EXPECT_EQ(stats.dropped_inflight, 0u);

  // Typed errors survive the forward: an unknown device is NOT_FOUND
  // through the gateway, exactly as it is direct to a shard.
  {
    AuthClient c("127.0.0.1", gateway.port(), client_options_for(4242));
    net::ChallengeGrant grant;
    EXPECT_EQ(c.get_challenge(&grant).code(), StatusCode::kNotFound);
  }

  gateway.stop();
  for (Shard& s : shards) s.server->stop();
}

TEST(FleetGateway, DrainCompletesPinnedSessionsAndRedirectsNewOnes) {
  Shard primary, successor;
  ASSERT_TRUE(primary.open_and_start("drain_primary", 11).is_ok());
  ASSERT_TRUE(successor.open_and_start("drain_successor", 22).is_ok());

  GatewayOptions go;
  go.health_interval_ms = 25;
  Gateway gateway(go);
  // One shard in the ring: every device routes to it, its drain successor
  // lives outside the ring (the handoff target).
  ASSERT_TRUE(
      gateway.add_shard("s", "127.0.0.1", primary.server->port()).is_ok());
  ASSERT_TRUE(gateway.start().is_ok());
  AuthClient admin_client("127.0.0.1", gateway.port());
  wait_all_shards_up(admin_client, 1);

  // Device 1 exists on BOTH nodes (real drains migrate data first); the
  // redirected client must find it at the successor.
  for (Shard* s : {&primary, &successor}) {
    registry::EnrollRequest req;
    req.node_count = kNodes;
    req.grid_size = kGrid;
    req.seed = kDeviceSeedBase + 1;
    req.device_id = 1;
    ASSERT_TRUE(s->registry.enroll(req, nullptr).is_ok());
  }

  auto cache = std::make_shared<circuit::SymbolicCache>();
  auto chip = make_chip(1, cache);

  // Open a chained session BEFORE the drain: the grant pins it.
  AuthClient pinned("127.0.0.1", gateway.port(), client_options_for(1));
  net::ChallengeGrant grant;
  ASSERT_TRUE(pinned.get_challenge(&grant).is_ok());

  // Drain the shard, naming the successor.
  net::AdminRequestBody drain;
  drain.op = net::AdminOp::kDrainShard;
  drain.shard = "s";
  drain.host = "127.0.0.1";
  drain.port = successor.server->port();
  net::AdminReplyBody reply;
  ASSERT_TRUE(admin_client.admin(drain, &reply).is_ok());
  ASSERT_EQ(reply.ok, 1) << reply.message;

  // The pinned session completes on the draining shard.
  const protocol::ChainedReport proof = protocol::prove_chain_with_ppuf(
      *chip, grant.challenge, grant.chain_length, grant.nonce, kChipDelay);
  protocol::ChainedVerifyResult verdict;
  ASSERT_TRUE(pinned.chained_auth(grant, proof, &verdict).is_ok());
  EXPECT_TRUE(verdict.accepted) << verdict.detail;

  // A NEW session is redirected to the successor; the client follows the
  // redirect transparently and completes a full auth there.
  AuthClient fresh("127.0.0.1", gateway.port(), client_options_for(1));
  ASSERT_TRUE(fresh.get_challenge(&grant).is_ok());
  EXPECT_GE(fresh.stats().redirects_followed, 1u);
  const protocol::ChainedReport proof2 = protocol::prove_chain_with_ppuf(
      *chip, grant.challenge, grant.chain_length, grant.nonce, kChipDelay);
  ASSERT_TRUE(fresh.chained_auth(grant, proof2, &verdict).is_ok());
  EXPECT_TRUE(verdict.accepted) << verdict.detail;

  const Gateway::Stats stats = gateway.stats();
  EXPECT_EQ(stats.dropped_inflight, 0u);
  EXPECT_GE(stats.redirects_sent, 1u);

  // Undrain restores normal routing through the gateway.
  net::AdminRequestBody undrain;
  undrain.op = net::AdminOp::kUndrainShard;
  undrain.shard = "s";
  ASSERT_TRUE(admin_client.admin(undrain, &reply).is_ok());
  ASSERT_EQ(reply.ok, 1);
  AuthClient again("127.0.0.1", gateway.port(), client_options_for(1));
  ASSERT_TRUE(again.get_challenge(&grant).is_ok());
  EXPECT_EQ(again.stats().redirects_followed, 0u);

  gateway.stop();
  primary.server->stop();
  successor.server->stop();
}

TEST(FleetGateway, RemoveShardAndUnroutableRing) {
  Shard shard;
  ASSERT_TRUE(shard.open_and_start("remove_me", 5).is_ok());

  GatewayOptions go;
  go.health_interval_ms = 25;
  Gateway gateway(go);
  ASSERT_TRUE(
      gateway.add_shard("x", "127.0.0.1", shard.server->port()).is_ok());
  ASSERT_TRUE(gateway.start().is_ok());
  AuthClient admin_client("127.0.0.1", gateway.port());
  wait_all_shards_up(admin_client, 1);

  net::AdminRequestBody remove;
  remove.op = net::AdminOp::kRemoveShard;
  remove.shard = "x";
  net::AdminReplyBody reply;
  ASSERT_TRUE(admin_client.admin(remove, &reply).is_ok());
  ASSERT_EQ(reply.ok, 1) << reply.message;

  // An empty ring yields typed SHARD_UNAVAILABLE → kUnavailable, and the
  // client's retries make it a clean error, not a hang.
  ClientOptions one_shot = client_options_for(1);
  one_shot.max_attempts = 1;
  one_shot.breaker_failure_threshold = 0;
  AuthClient c("127.0.0.1", gateway.port(), one_shot);
  net::ChallengeGrant grant;
  EXPECT_EQ(c.get_challenge(&grant).code(), StatusCode::kUnavailable);

  // Removing an unknown shard is a refusal, not a crash.
  remove.shard = "never-existed";
  ASSERT_TRUE(admin_client.admin(remove, &reply).is_ok());
  EXPECT_EQ(reply.ok, 0);

  gateway.stop();
  shard.server->stop();
}

// --- Gateway hardening -----------------------------------------------------
//
// The gateway runs on the same reactor as the server, so the server's
// transport hardening must hold on the gateway side too.  These gateways
// have no shards: they answer PING and non-request frames on their own
// loop, so the process-global fault hooks touch only the gateway's reactor.

net::ErrorReply error_of(const net::Frame& frame) {
  net::ErrorReply err;
  EXPECT_EQ(frame.type, net::MessageType::kErrorReply);
  EXPECT_TRUE(net::decode_error_reply(frame.payload, &err).is_ok());
  return err;
}

TEST(FleetGateway, MalformedStreamGetsTypedErrorThenClose) {
  Gateway gateway;
  ASSERT_TRUE(gateway.start().is_ok());
  net::Socket sock;
  ASSERT_TRUE(
      net::connect_tcp("127.0.0.1", gateway.port(), 2000, &sock).is_ok());
  const util::Deadline io = util::Deadline::after_seconds(5.0);

  std::vector<std::uint8_t> garbage(net::kHeaderSize, 0x58);  // "XXXX..."
  ASSERT_TRUE(
      net::send_all(sock.fd(), garbage.data(), garbage.size(), io).is_ok());
  net::Frame reply;
  ASSERT_TRUE(net::read_frame(sock.fd(), &reply, io).is_ok());
  EXPECT_EQ(error_of(reply).code, net::WireCode::kMalformed);

  // The stream cannot be resynchronised: the gateway closes after the
  // error is flushed.
  std::uint8_t byte = 0;
  EXPECT_FALSE(net::recv_exact(sock.fd(), &byte, 1, io).is_ok());
  gateway.stop();
  EXPECT_EQ(gateway.stats().malformed_frames, 1u);
}

TEST(FleetGateway, SurvivesInjectedSendFailureMidPipeline) {
  // The first reply send fails as a peer reset, so the connection is
  // destroyed inside the frame loop with 63 pipelined frames unprocessed;
  // the loop must re-look-up the connection instead of touching the
  // destroyed one (the ASan job turns a regression into a crash).
  Gateway gateway;
  ASSERT_TRUE(gateway.start().is_ok());
  const util::Deadline io = util::Deadline::after_seconds(5.0);
  const std::vector<std::uint8_t> one =
      net::encode_frame(net::MessageType::kPingReply, 9, 0, 0, {});
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < 64; ++i)
    burst.insert(burst.end(), one.begin(), one.end());
  {
    testing::FaultSpec spec;
    spec.server_send_failures = 1;
    const testing::ScopedFaultInjection fault(spec);
    net::Socket sock;
    ASSERT_TRUE(
        net::connect_tcp("127.0.0.1", gateway.port(), 2000, &sock).is_ok());
    timeval timeout{5, 0};
    ASSERT_EQ(setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
              0);
    ASSERT_TRUE(
        net::send_all(sock.fd(), burst.data(), burst.size(), io).is_ok());
    // The gateway drops this connection without replying; EOF (or a
    // reset) proves the burst was processed before the hook is disarmed.
    std::uint8_t sink[256];
    ssize_t n = 0;
    while ((n = ::recv(sock.fd(), sink, sizeof(sink), 0)) > 0) {
    }
    const int recv_errno = errno;
    EXPECT_TRUE(n == 0 || recv_errno == ECONNRESET)
        << "connection still open: recv errno " << recv_errno;
  }
  // The gateway comes through intact and still serving.
  AuthClient client("127.0.0.1", gateway.port());
  EXPECT_TRUE(client.ping().is_ok());
  gateway.stop();
}

TEST(FleetGateway, SlowPeerIsDisconnectedAtBacklogBound) {
  GatewayOptions go;
  go.max_connection_backlog_bytes = 256;
  Gateway gateway(go);
  ASSERT_TRUE(gateway.start().is_ok());
  const util::Deadline io = util::Deadline::after_seconds(10.0);

  // Every gateway-side send reports EAGAIN, so PING replies pile up in the
  // slow connection's outbound queue until the backlog bound cuts it.
  struct SendBlock {
    SendBlock() { util::FaultHooks::instance().server_send_block.store(true); }
    ~SendBlock() {
      util::FaultHooks::instance().server_send_block.store(false);
    }
  };
  net::Socket slow;
  {
    const SendBlock blocked;
    ASSERT_TRUE(
        net::connect_tcp("127.0.0.1", gateway.port(), 2000, &slow).is_ok());
    // One write for the whole burst: PING is answered on the loop, so the
    // cut can land before a frame-by-frame sender has finished.
    std::vector<std::uint8_t> burst;
    for (std::uint64_t id = 1; id <= 10; ++id) {
      const std::vector<std::uint8_t> f =
          net::encode_frame(net::MessageType::kPingRequest, id, 0, 0,
                            net::encode_ping_request(0));
      burst.insert(burst.end(), f.begin(), f.end());
    }
    ASSERT_TRUE(
        net::send_all(slow.fd(), burst.data(), burst.size(), io).is_ok());
    const auto wait_until =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (gateway.stats().slow_peer_disconnects == 0 &&
           std::chrono::steady_clock::now() < wait_until)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(gateway.stats().slow_peer_disconnects, 1u);

  // The loop never wedged: a healthy client is served.
  AuthClient healthy("127.0.0.1", gateway.port());
  EXPECT_TRUE(healthy.ping().is_ok());

  // And the slow peer really was cut off.
  net::Frame reply;
  EXPECT_FALSE(net::read_frame(slow.fd(), &reply,
                               util::Deadline::after_seconds(2.0))
                   .is_ok());
  gateway.stop();
}

// --- Gateway forwarding ----------------------------------------------------
//
// What forwarding must never do: cross replies between clients, deliver a
// reply after its forward gave up, leave forwards hanging on a dead
// shard, or stall the event loop on a connect.

/// A scripted shard: PING is answered at once, any other request gets a
/// PREDICT reply (echoing its request id) after `reply_delay_ms`.
/// kill() closes the listener and every connection, as a crash would.
class FakeShard {
 public:
  explicit FakeShard(int reply_delay_ms) : delay_ms_(reply_delay_ms) {
    EXPECT_TRUE(net::listen_tcp(0, 16, &listener_, &port_).is_ok());
    acceptor_ = std::thread([this] { accept_loop(); });
  }
  ~FakeShard() { kill(); }

  std::uint16_t port() const { return port_; }
  int requests_seen() const { return requests_seen_.load(); }

  void kill() {
    if (stopped_.exchange(true)) return;
    acceptor_.join();
    for (std::thread& t : connections_) t.join();
  }

 private:
  void accept_loop() {
    while (!stopped_.load()) {
      const int fd = ::accept(listener_.fd(), nullptr, nullptr);
      if (fd < 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      connections_.emplace_back([this, fd] { serve(fd); });
    }
    listener_.close();
  }

  void serve(int fd) {
    while (!stopped_.load()) {
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 10) <= 0) continue;
      net::Frame request;
      if (!net::read_frame(fd, &request, util::Deadline::after_seconds(2.0))
               .is_ok())
        break;
      std::vector<std::uint8_t> reply;
      if (request.type == net::MessageType::kPingRequest) {
        reply = net::encode_frame(net::MessageType::kPingReply,
                                  request.request_id, request.device_id, 0,
                                  net::encode_ping_reply(net::HealthInfo{}));
      } else {
        requests_seen_.fetch_add(1);
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(delay_ms_);
        while (!stopped_.load() && std::chrono::steady_clock::now() < until)
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        if (stopped_.load()) break;
        SimulationModel::Prediction p;
        p.bit = 1;
        reply = net::encode_frame(net::MessageType::kPredictReply,
                                  request.request_id, request.device_id, 0,
                                  net::encode_predict_reply(p));
      }
      if (!net::send_all(fd, reply.data(), reply.size(),
                         util::Deadline::after_seconds(2.0))
               .is_ok())
        break;
    }
    ::close(fd);
  }

  const int delay_ms_;
  net::Socket listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopped_{false};
  std::atomic<int> requests_seen_{0};
  std::thread acceptor_;
  std::vector<std::thread> connections_;  ///< acceptor thread, then kill()
};

std::vector<std::uint8_t> predict_frame(std::uint64_t request_id,
                                        std::uint64_t device_id,
                                        const Challenge& c,
                                        std::uint32_t budget_ms = 0) {
  return net::encode_frame(net::MessageType::kPredictRequest, request_id,
                           device_id, budget_ms,
                           net::encode_predict_request(c));
}

std::vector<std::uint8_t> ping_frame(std::uint64_t request_id) {
  return net::encode_frame(net::MessageType::kPingRequest, request_id, 0, 0,
                           net::encode_ping_request(0));
}

void send_bytes(const net::Socket& sock, const std::vector<std::uint8_t>& b) {
  ASSERT_TRUE(net::send_all(sock.fd(), b.data(), b.size(),
                            util::Deadline::after_seconds(5.0))
                  .is_ok());
}

net::Frame read_reply(const net::Socket& sock, double seconds = 10.0) {
  net::Frame reply;
  EXPECT_TRUE(
      net::read_frame(sock.fd(), &reply, util::Deadline::after_seconds(seconds))
          .is_ok());
  return reply;
}

TEST(FleetGateway, ClientsPipeliningTheSameRequestIdsGetTheirOwnReplies) {
  Shard shard;
  ASSERT_TRUE(shard.open_and_start("same_ids", 41).is_ok());
  GatewayOptions go;
  go.health_interval_ms = 25;
  Gateway gateway(go);
  ASSERT_TRUE(gateway.add_shard("s", "127.0.0.1", shard.server->port()).is_ok());
  ASSERT_TRUE(gateway.start().is_ok());
  AuthClient admin_client("127.0.0.1", gateway.port());
  wait_all_shards_up(admin_client, 1);
  for (const std::uint64_t id : {1, 2}) {
    std::uint64_t assigned = 0;
    AuthClient c("127.0.0.1", gateway.port(), client_options_for(id));
    ASSERT_TRUE(c.enroll_device(enroll_spec(id), id, &assigned).is_ok());
  }

  // Two connections, each pipelining request ids 1..8 for its own
  // device, all sharing the gateway's one upstream to the shard.
  constexpr std::uint64_t kFrames = 8;
  util::Rng rng(5);
  const CrossbarLayout layout(kNodes, kGrid);
  std::map<std::pair<std::uint64_t, std::uint64_t>, Challenge> sent;
  net::Socket conns[2];
  for (std::uint64_t device = 1; device <= 2; ++device) {
    ASSERT_TRUE(net::connect_tcp("127.0.0.1", gateway.port(), 2000,
                                 &conns[device - 1])
                    .is_ok());
    std::vector<std::uint8_t> burst;
    for (std::uint64_t rid = 1; rid <= kFrames; ++rid) {
      const Challenge c = random_challenge(layout, rng);
      sent[{device, rid}] = c;
      const std::vector<std::uint8_t> f = predict_frame(rid, device, c);
      burst.insert(burst.end(), f.begin(), f.end());
    }
    send_bytes(conns[device - 1], burst);
  }

  // Each reply matches what the shard itself answers for that device and
  // challenge, under the client's own request id.
  net::Socket direct;
  ASSERT_TRUE(
      net::connect_tcp("127.0.0.1", shard.server->port(), 2000, &direct)
          .is_ok());
  for (std::uint64_t device = 1; device <= 2; ++device) {
    std::set<std::uint64_t> seen;
    for (std::uint64_t n = 0; n < kFrames; ++n) {
      const net::Frame got = read_reply(conns[device - 1]);
      ASSERT_EQ(got.type, net::MessageType::kPredictReply);
      EXPECT_EQ(got.device_id, device);
      ASSERT_TRUE(seen.insert(got.request_id).second) << "duplicate reply";
      const auto it = sent.find({device, got.request_id});
      ASSERT_NE(it, sent.end()) << "reply id " << got.request_id;
      send_bytes(direct, predict_frame(99, device, it->second));
      const net::Frame want = read_reply(direct);
      EXPECT_EQ(got.payload, want.payload)
          << "device " << device << " request " << got.request_id;
    }
  }
  gateway.stop();
  EXPECT_EQ(gateway.stats().dropped_inflight, 0u);
  shard.server->stop();
}

TEST(FleetGateway, ShardReplyAfterTheForwardDeadlineIsNeverDelivered) {
  FakeShard fake(/*reply_delay_ms=*/300);
  GatewayOptions go;
  go.health_interval_ms = 25;
  Gateway gateway(go);
  ASSERT_TRUE(gateway.add_shard("s", "127.0.0.1", fake.port()).is_ok());
  ASSERT_TRUE(gateway.start().is_ok());
  AuthClient admin_client("127.0.0.1", gateway.port());
  wait_all_shards_up(admin_client, 1);

  net::Socket client, bystander;
  ASSERT_TRUE(
      net::connect_tcp("127.0.0.1", gateway.port(), 2000, &client).is_ok());
  ASSERT_TRUE(
      net::connect_tcp("127.0.0.1", gateway.port(), 2000, &bystander).is_ok());
  util::Rng rng(6);
  const Challenge c = random_challenge(CrossbarLayout(kNodes, kGrid), rng);
  const auto sent_at = std::chrono::steady_clock::now();
  send_bytes(client, predict_frame(5, 1, c, /*budget_ms=*/100));
  const net::Frame expired = read_reply(client);
  EXPECT_LT(std::chrono::steady_clock::now() - sent_at,
            std::chrono::milliseconds(300));
  EXPECT_EQ(expired.request_id, 5u);
  EXPECT_EQ(error_of(expired).code, net::WireCode::kDeadlineExceeded);

  // The shard's reply lands meanwhile; neither connection may see it.
  while (fake.requests_seen() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  send_bytes(client, ping_frame(6));
  send_bytes(bystander, ping_frame(1));
  const net::Frame next = read_reply(client);
  EXPECT_EQ(next.type, net::MessageType::kPingReply);
  EXPECT_EQ(next.request_id, 6u);
  const net::Frame other = read_reply(bystander);
  EXPECT_EQ(other.type, net::MessageType::kPingReply);
  EXPECT_EQ(other.request_id, 1u);
  gateway.stop();
  EXPECT_EQ(gateway.stats().forwarded, 0u);
}

TEST(FleetGateway, KilledShardFailsPendingForwardsAndRepointingServesAgain) {
  FakeShard fake(/*reply_delay_ms=*/10000);
  Shard real;
  ASSERT_TRUE(real.open_and_start("repoint_real", 42).is_ok());
  GatewayOptions go;
  go.health_interval_ms = 25;
  Gateway gateway(go);
  ASSERT_TRUE(gateway.add_shard("s", "127.0.0.1", fake.port()).is_ok());
  ASSERT_TRUE(gateway.start().is_ok());
  AuthClient admin_client("127.0.0.1", gateway.port());
  wait_all_shards_up(admin_client, 1);

  net::Socket client;
  ASSERT_TRUE(
      net::connect_tcp("127.0.0.1", gateway.port(), 2000, &client).is_ok());
  util::Rng rng(7);
  const Challenge c = random_challenge(CrossbarLayout(kNodes, kGrid), rng);
  std::vector<std::uint8_t> two = predict_frame(1, 1, c);
  const std::vector<std::uint8_t> second = predict_frame(2, 1, c);
  two.insert(two.end(), second.begin(), second.end());
  send_bytes(client, two);
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  // The fake shard serves each connection in order, so it may hold the
  // second request behind the first; both are pending at the gateway.
  while (fake.requests_seen() < 1 && std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_GE(fake.requests_seen(), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Drain the shard, then crash it with both forwards pending: each is
  // answered SHARD_UNAVAILABLE at once, and counted as dropped in flight.
  net::AdminRequestBody drain;
  drain.op = net::AdminOp::kDrainShard;
  drain.shard = "s";
  net::AdminReplyBody reply;
  ASSERT_TRUE(admin_client.admin(drain, &reply).is_ok());
  const auto killed_at = std::chrono::steady_clock::now();
  fake.kill();
  std::set<std::uint64_t> failed;
  for (int i = 0; i < 2; ++i) {
    const net::Frame f = read_reply(client);
    EXPECT_EQ(error_of(f).code, net::WireCode::kShardUnavailable);
    failed.insert(f.request_id);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - killed_at,
            std::chrono::seconds(2));
  EXPECT_EQ(failed, (std::set<std::uint64_t>{1, 2}));
  EXPECT_EQ(gateway.stats().dropped_inflight, 2u);

  // Re-point the name at a live shard: the gateway serves again.
  net::AdminRequestBody add;
  add.op = net::AdminOp::kAddShard;
  add.shard = "s";
  add.host = "127.0.0.1";
  add.port = real.server->port();
  ASSERT_TRUE(admin_client.admin(add, &reply).is_ok());
  ASSERT_EQ(reply.ok, 1) << reply.message;
  AuthClient via_gateway("127.0.0.1", gateway.port(), client_options_for(1));
  std::uint64_t assigned = 0;
  ASSERT_TRUE(via_gateway.enroll_device(enroll_spec(1), 1, &assigned).is_ok());
  SimulationModel::Prediction p;
  EXPECT_TRUE(via_gateway.predict(c, &p).is_ok());
  gateway.stop();
  real.server->stop();
}

TEST(FleetGateway, BlackHoledShardConnectDoesNotStallPing) {
  // A listener whose accept queue is full drops further SYNs, so a
  // connect to it stays in progress: a black hole on loopback.
  net::Socket black_hole, filler;
  std::uint16_t port = 0;
  ASSERT_TRUE(net::listen_tcp(0, /*backlog=*/0, &black_hole, &port).is_ok());
  ASSERT_TRUE(net::connect_tcp("127.0.0.1", port, 2000, &filler).is_ok());

  GatewayOptions go;
  go.shard_connect_timeout_ms = 1000;
  go.health_interval_ms = 60000;  // the shard stays "up" for the test
  Gateway gateway(go);
  ASSERT_TRUE(gateway.add_shard("s", "127.0.0.1", port).is_ok());
  ASSERT_TRUE(gateway.start().is_ok());

  net::Socket client;
  ASSERT_TRUE(
      net::connect_tcp("127.0.0.1", gateway.port(), 2000, &client).is_ok());
  util::Rng rng(8);
  const Challenge c = random_challenge(CrossbarLayout(kNodes, kGrid), rng);
  const auto sent_at = std::chrono::steady_clock::now();
  std::vector<std::uint8_t> frames = predict_frame(1, 1, c);
  const std::vector<std::uint8_t> ping = ping_frame(2);
  frames.insert(frames.end(), ping.begin(), ping.end());
  send_bytes(client, frames);

  // The PING behind the stuck forward is answered at once...
  const net::Frame pong = read_reply(client);
  EXPECT_EQ(pong.type, net::MessageType::kPingReply);
  EXPECT_EQ(pong.request_id, 2u);
  EXPECT_LT(std::chrono::steady_clock::now() - sent_at,
            std::chrono::milliseconds(500));
  // ...and the forward fails typed once the connect times out.
  const net::Frame failed = read_reply(client);
  EXPECT_EQ(failed.request_id, 1u);
  EXPECT_EQ(failed.type, net::MessageType::kErrorReply);
  const auto waited = std::chrono::steady_clock::now() - sent_at;
  EXPECT_GE(waited, std::chrono::milliseconds(900));
  EXPECT_LT(waited, std::chrono::seconds(5));
  gateway.stop();
}

// --- WAL-shipping standby --------------------------------------------------

TEST(WalStandby, ReplicatesPromotesWithZeroAckedLoss) {
  Shard primary;
  ASSERT_TRUE(primary.open_and_start("ship_primary", 99).is_ok());

  std::vector<std::uint64_t> acked;
  auto enroll_one = [&](std::uint64_t id) {
    AuthClient c("127.0.0.1", primary.server->port(),
                 client_options_for(id));
    std::uint64_t assigned = 0;
    ASSERT_TRUE(c.enroll_device(enroll_spec(id), id, &assigned).is_ok());
    acked.push_back(assigned);
  };
  for (std::uint64_t id = 1; id <= 4; ++id) enroll_one(id);

  StandbyOptions so;
  so.primary_port = primary.server->port();
  so.directory = fresh_dir("ship_standby");
  WalStandby standby(so);
  ASSERT_TRUE(standby.start().is_ok());
  // Quiesce the poll thread immediately: this test drives every
  // replication pass itself via sync_once so each bootstrap/segment
  // transition is attributable (the poll loop is covered elsewhere).
  standby.stop();
  ASSERT_TRUE(standby.sync_once().is_ok());
  EXPECT_GE(standby.stats().bootstraps, 1u);  // first contact bootstraps

  // More acked enrollments after the bootstrap arrive as WAL segments.
  for (std::uint64_t id = 5; id <= 8; ++id) enroll_one(id);
  ASSERT_TRUE(standby.sync_once().is_ok());

  // Compaction on the primary rotates the WAL epoch; the standby's stale
  // cursor self-heals by re-bootstrapping on the next pass.
  ASSERT_TRUE(primary.registry.compact().is_ok());
  enroll_one(9);
  const std::uint64_t bootstraps_before = standby.stats().bootstraps;
  ASSERT_TRUE(standby.sync_once().is_ok());
  EXPECT_GT(standby.stats().bootstraps, bootstraps_before);

  // Primary dies; promotion reports the measured loss window.
  primary.server->stop();
  const fleet::PromotionReport report = standby.promote();
  EXPECT_TRUE(report.caught_up);
  EXPECT_EQ(report.device_count, acked.size());

  // Acceptance criterion: every acked enrollment survives failover.
  std::size_t lost = 0;
  for (std::uint64_t id : acked)
    if (!standby.registry().contains(id)) ++lost;
  EXPECT_EQ(lost, 0u) << "acked enrollments lost across promotion";

  // The promoted registry actually SERVES: a device authenticates against
  // a fresh server wrapped around it.
  AuthServer promoted(standby.registry(), shard_options(99));
  ASSERT_TRUE(promoted.start().is_ok());
  auto cache = std::make_shared<circuit::SymbolicCache>();
  auto chip = make_chip(3, cache);
  AuthClient c("127.0.0.1", promoted.port(), client_options_for(3));
  net::ChallengeGrant grant;
  ASSERT_TRUE(c.get_challenge(&grant).is_ok());
  const protocol::ChainedReport proof = protocol::prove_chain_with_ppuf(
      *chip, grant.challenge, grant.chain_length, grant.nonce, kChipDelay);
  protocol::ChainedVerifyResult verdict;
  ASSERT_TRUE(c.chained_auth(grant, proof, &verdict).is_ok());
  EXPECT_TRUE(verdict.accepted) << verdict.detail;
  promoted.stop();
}

TEST(WalStandby, TinySegmentsBufferPartialRecords) {
  Shard primary;
  ASSERT_TRUE(primary.open_and_start("tiny_primary", 7).is_ok());

  StandbyOptions so;
  so.primary_port = primary.server->port();
  so.directory = fresh_dir("tiny_standby");
  // 64-byte segments guarantee every WAL record (model blobs are KBs)
  // arrives sliced mid-record many times over.
  so.fetch_max_bytes = 64;
  WalStandby standby(so);
  ASSERT_TRUE(standby.start().is_ok());
  // Bootstrap against the EMPTY primary first: everything enrolled below
  // must then arrive via byte-sliced WAL segments, not the snapshot.
  ASSERT_TRUE(standby.sync_once().is_ok());

  for (std::uint64_t id = 1; id <= 3; ++id) {
    AuthClient c("127.0.0.1", primary.server->port(),
                 client_options_for(id));
    std::uint64_t assigned = 0;
    ASSERT_TRUE(c.enroll_device(enroll_spec(id), id, &assigned).is_ok());
  }
  ASSERT_TRUE(standby.sync_once().is_ok());

  EXPECT_EQ(standby.registry().device_count(), 3u);
  for (std::uint64_t id = 1; id <= 3; ++id)
    EXPECT_TRUE(standby.registry().contains(id)) << "device " << id;
  // Byte-sliced shipping really happened (not one lucky big segment)…
  EXPECT_GT(standby.stats().fetches, 10u);
  // …and the replica's devices are bit-identical to the primary's.
  for (std::uint64_t id = 1; id <= 3; ++id) {
    SimulationModel a, b;
    ASSERT_TRUE(primary.registry.load_model(id, &a).is_ok());
    ASSERT_TRUE(standby.registry().load_model(id, &b).is_ok());
    util::Rng rng(id);
    const Challenge c = random_challenge(a.layout(), rng);
    EXPECT_EQ(a.predict(c).bit, b.predict(c).bit);
    EXPECT_EQ(a.predict(c).flow_a, b.predict(c).flow_a);
  }
  primary.server->stop();
}

// --- Failover through the gateway ------------------------------------------

TEST(FleetFailover, PromotedStandbyRepointedIntoRingServesAllAckedDevices) {
  Shard a, b;
  ASSERT_TRUE(a.open_and_start("failover_a", 1001).is_ok());
  ASSERT_TRUE(b.open_and_start("failover_b", 1002).is_ok());

  GatewayOptions go;
  go.health_interval_ms = 25;
  go.health_failures_to_down = 2;
  Gateway gateway(go);
  ASSERT_TRUE(gateway.add_shard("a", "127.0.0.1", a.server->port()).is_ok());
  ASSERT_TRUE(gateway.add_shard("b", "127.0.0.1", b.server->port()).is_ok());
  ASSERT_TRUE(gateway.start().is_ok());
  AuthClient admin_client("127.0.0.1", gateway.port());
  wait_all_shards_up(admin_client, 2);

  constexpr std::uint64_t kDevices = 8;
  for (std::uint64_t id = 1; id <= kDevices; ++id) {
    AuthClient c("127.0.0.1", gateway.port(), client_options_for(id));
    std::uint64_t assigned = 0;
    ASSERT_TRUE(c.enroll_device(enroll_spec(id), id, &assigned).is_ok());
  }
  ASSERT_GT(a.registry.device_count(), 0u);
  ASSERT_GT(b.registry.device_count(), 0u);

  // Standby tails shard a; catch it up past every ack.
  StandbyOptions so;
  so.primary_port = a.server->port();
  so.directory = fresh_dir("failover_standby");
  WalStandby standby(so);
  ASSERT_TRUE(standby.start().is_ok());
  // Quiesce the poll thread before the last sync so no background pass
  // can race shard a's shutdown and mark the cursor unknown.
  standby.stop();
  ASSERT_TRUE(standby.sync_once().is_ok());

  // Kill shard a, promote, and re-point the ring name at the successor —
  // name-keyed placement means no other device moves.
  a.server->stop();
  const fleet::PromotionReport report = standby.promote();
  EXPECT_TRUE(report.caught_up);
  EXPECT_EQ(report.device_count, a.registry.device_count());

  AuthServer promoted(standby.registry(), shard_options(1001));
  ASSERT_TRUE(promoted.start().is_ok());
  net::AdminRequestBody repoint;
  repoint.op = net::AdminOp::kAddShard;
  repoint.shard = "a";
  repoint.host = "127.0.0.1";
  repoint.port = promoted.port();
  net::AdminReplyBody reply;
  ASSERT_TRUE(admin_client.admin(repoint, &reply).is_ok());
  ASSERT_EQ(reply.ok, 1) << reply.message;
  wait_all_shards_up(admin_client, 2);

  // Every acked enrollment — shard b's untouched, shard a's replicated —
  // still authenticates through the gateway.
  auto cache = std::make_shared<circuit::SymbolicCache>();
  for (std::uint64_t id = 1; id <= kDevices; ++id) {
    AuthClient c("127.0.0.1", gateway.port(), client_options_for(id));
    net::ChallengeGrant grant;
    ASSERT_TRUE(c.get_challenge(&grant).is_ok()) << "device " << id;
    auto chip = make_chip(id, cache);
    const protocol::ChainedReport proof = protocol::prove_chain_with_ppuf(
        *chip, grant.challenge, grant.chain_length, grant.nonce, kChipDelay);
    protocol::ChainedVerifyResult verdict;
    ASSERT_TRUE(c.chained_auth(grant, proof, &verdict).is_ok());
    EXPECT_TRUE(verdict.accepted)
        << "device " << id << ": " << verdict.detail;
  }

  gateway.stop();
  promoted.stop();
  b.server->stop();
}

// --- Per-endpoint breaker scoping ------------------------------------------

TEST(AuthClientBreaker, TripsPerEndpointNotPerProcess) {
  Shard live;
  ASSERT_TRUE(live.open_and_start("breaker_live", 3).is_ok());

  // A port that refuses connections: bind, note the port, close.
  std::uint16_t dead_port = 0;
  {
    net::Socket listener;
    ASSERT_TRUE(net::listen_tcp(0, 1, &listener, &dead_port).is_ok());
  }

  ClientOptions co;
  co.max_attempts = 1;
  co.breaker_failure_threshold = 1;  // one failure opens it
  co.breaker_cooldown_ms = 60000;    // stays open for the whole test
  co.connect_timeout_ms = 500;
  AuthClient client("127.0.0.1", dead_port, co);

  EXPECT_FALSE(client.ping().is_ok());  // trips the dead endpoint's breaker
  EXPECT_FALSE(client.ping().is_ok());  // now fails fast, locally
  EXPECT_GE(client.stats().breaker_fast_fails, 1u);

  // Same client, same process-wide breaker table — but the live endpoint
  // has its own untripped breaker.
  client.set_endpoint("127.0.0.1", live.server->port());
  EXPECT_TRUE(client.ping().is_ok());

  // Flipping back re-attaches the OPEN breaker: still failing fast.
  const std::uint64_t fast_fails = client.stats().breaker_fast_fails;
  client.set_endpoint("127.0.0.1", dead_port);
  EXPECT_FALSE(client.ping().is_ok());
  EXPECT_GT(client.stats().breaker_fast_fails, fast_fails);

  live.server->stop();
}

// --- one count, two views ------------------------------------------------
//
// Every counter field of a serving Stats struct is counted once, in its
// instance's obs::CounterSet, and mirrored into the global registry under
// `<prefix>.<field>` while that registry is enabled.  So with several
// instances in one process, each instance's Stats holds only its own
// events, and each global counter is the sum of the instances' fields.

template <typename Stats>
using StatsField = std::pair<const char*, std::uint64_t Stats::*>;

/// The global counter `<prefix>.<field>` for every listed field, against
/// the field summed over `instances`.
template <typename Stats>
void expect_global_sums(const std::string& prefix,
                        const std::vector<StatsField<Stats>>& fields,
                        const std::vector<Stats>& instances) {
  const obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  for (const auto& [name, field] : fields) {
    std::uint64_t sum = 0;
    for (const Stats& s : instances) sum += s.*field;
    EXPECT_EQ(reg.counter_value(prefix + "." + name), sum)
        << prefix << "." << name;
  }
}

TEST(ObsMetrics, InstanceStatsAndGlobalCountersAgree) {
  using HStats = registry::HydrationCache::Stats;
  using SStats = AuthServer::Stats;
  using GStats = Gateway::Stats;
  using WStats = WalStandby::Stats;
  using RStats = registry::DeviceRegistry::Stats;
  using CStats = ResponseCacheStats;
  const std::vector<StatsField<RStats>> registry_fields = {
      {"enrolls", &RStats::enrolls},
      {"revokes", &RStats::revokes},
      {"compactions", &RStats::compactions}};
  const std::vector<StatsField<HStats>> hydration_fields = {
      {"hits", &HStats::hits},
      {"misses", &HStats::misses},
      {"single_flight_waits", &HStats::single_flight_waits},
      {"evictions", &HStats::evictions}};
  const std::vector<StatsField<SStats>> server_fields = {
      {"connections_accepted", &SStats::connections_accepted},
      {"requests", &SStats::requests},
      {"overloaded_rejections", &SStats::overloaded_rejections},
      {"shutdown_rejections", &SStats::shutdown_rejections},
      {"malformed_frames", &SStats::malformed_frames},
      {"unknown_device_rejections", &SStats::unknown_device_rejections},
      {"coalesced_batches", &SStats::coalesced_batches},
      {"coalesced_items", &SStats::coalesced_items},
      {"solo_dispatches", &SStats::solo_dispatches},
      {"slow_peer_disconnects", &SStats::slow_peer_disconnects},
      {"enrolls_served", &SStats::enrolls_served},
      {"wal_fetches_served", &SStats::wal_fetches_served},
      {"loop_cache_hits", &SStats::loop_cache_hits}};
  const std::vector<StatsField<GStats>> gateway_fields = {
      {"connections_accepted", &GStats::connections_accepted},
      {"requests", &GStats::requests},
      {"forwarded", &GStats::forwarded},
      {"redirects_sent", &GStats::redirects_sent},
      {"unavailable_rejections", &GStats::unavailable_rejections},
      {"overloaded_rejections", &GStats::overloaded_rejections},
      {"shutdown_rejections", &GStats::shutdown_rejections},
      {"malformed_frames", &GStats::malformed_frames},
      {"admin_requests", &GStats::admin_requests},
      {"pins_created", &GStats::pins_created},
      {"health_probes", &GStats::health_probes},
      {"dropped_inflight", &GStats::dropped_inflight},
      {"slow_peer_disconnects", &GStats::slow_peer_disconnects}};
  const std::vector<StatsField<CStats>> response_cache_fields = {
      {"hits", &CStats::hits},
      {"misses", &CStats::misses},
      {"evictions", &CStats::evictions}};
  const std::vector<StatsField<WStats>> standby_fields = {
      {"fetches", &WStats::fetches},
      {"bootstraps", &WStats::bootstraps},
      {"bytes_applied", &WStats::bytes_applied},
      {"fetch_errors", &WStats::fetch_errors}};

  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.set_enabled(true);
  reg.reset();
  // The standard schema carries every field's name before any instance
  // exists.
  obs::register_standard_metrics(reg);
  for (const auto& [name, field] : registry_fields)
    EXPECT_TRUE(reg.has_metric(std::string("registry.") + name)) << name;
  for (const auto& [name, field] : hydration_fields)
    EXPECT_TRUE(reg.has_metric(std::string("registry.hydration.") + name))
        << name;
  for (const auto& [name, field] : server_fields)
    EXPECT_TRUE(reg.has_metric(std::string("server.") + name)) << name;
  for (const auto& [name, field] : gateway_fields)
    EXPECT_TRUE(reg.has_metric(std::string("gateway.") + name)) << name;
  for (const auto& [name, field] : standby_fields)
    EXPECT_TRUE(reg.has_metric(std::string("standby.") + name)) << name;
  for (const auto& [name, field] : response_cache_fields)
    EXPECT_TRUE(reg.has_metric(std::string("ppuf.response_cache.") + name))
        << name;

  // Two device registries with different traffic, before any other
  // registry of this test exists.
  {
    registry::DeviceRegistry one, two;
    ASSERT_TRUE(one.open(fresh_dir("obs_registry_one")).is_ok());
    ASSERT_TRUE(two.open(fresh_dir("obs_registry_two")).is_ok());
    registry::EnrollRequest req;
    req.node_count = kNodes;
    req.grid_size = kGrid;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      req.seed = kDeviceSeedBase + seed;
      ASSERT_TRUE(one.enroll(req, nullptr).is_ok());
    }
    ASSERT_TRUE(one.revoke(1).is_ok());
    ASSERT_TRUE(one.revoke(1).is_ok());  // idempotent: not a second revoke
    ASSERT_TRUE(one.compact().is_ok());
    ASSERT_TRUE(two.enroll(req, nullptr).is_ok());
    ASSERT_TRUE(two.compact().is_ok());
    ASSERT_TRUE(two.compact().is_ok());
    const RStats r1 = one.stats(), r2 = two.stats();
    EXPECT_EQ(r1.enrolls, 2u);
    EXPECT_EQ(r1.revokes, 1u);
    EXPECT_EQ(r1.compactions, 1u);
    EXPECT_EQ(r2.enrolls, 1u);
    EXPECT_EQ(r2.revokes, 0u);
    EXPECT_EQ(r2.compactions, 2u);
    expect_global_sums("registry", registry_fields, {r1, r2});
  }

  // Two hydration caches over one registry, before any server runs (a
  // server's own cache is not observable from here).  Different traffic
  // per cache, so a field read off the wrong counter cannot pass.
  {
    registry::DeviceRegistry devices;
    ASSERT_TRUE(devices.open(fresh_dir("obs_hydration")).is_ok());
    for (std::uint64_t id = 1; id <= 2; ++id) {
      registry::EnrollRequest req;
      req.node_count = kNodes;
      req.grid_size = kGrid;
      req.seed = kDeviceSeedBase + id;
      req.device_id = id;
      ASSERT_TRUE(devices.enroll(req, nullptr).is_ok());
    }
    registry::HydrationCache::Options ho;
    ho.max_entries = 1;
    registry::HydrationCache one(devices, ho), two(devices, ho);
    std::shared_ptr<const registry::HydratedDevice> d;
    for (const std::uint64_t id : {1, 1, 2})  // miss, hit, miss + eviction
      ASSERT_TRUE(one.get(id, &d).is_ok());
    for (const std::uint64_t id : {2, 2, 2, 2})  // miss, then three hits
      ASSERT_TRUE(two.get(id, &d).is_ok());
    const HStats h1 = one.stats(), h2 = two.stats();
    EXPECT_EQ(h1.hits, 1u);
    EXPECT_EQ(h1.misses, 2u);
    EXPECT_EQ(h1.evictions, 1u);
    EXPECT_EQ(h2.hits, 3u);
    EXPECT_EQ(h2.misses, 1u);
    EXPECT_EQ(h2.evictions, 0u);
    expect_global_sums("registry.hydration", hydration_fields, {h1, h2});
  }

  // Two response caches, before any server runs.  A probe that misses
  // counts nothing: its caller looks the key up again.
  {
    const circuit::Environment env = circuit::Environment::nominal();
    const CrossbarLayout layout(kNodes, kGrid);
    util::Rng rng(9);
    const Challenge x = random_challenge(layout, rng);
    const Challenge y = random_challenge(layout, rng);
    ResponseCache one(1 << 20);
    ResponseCache two(/*capacity_bytes=*/1, /*shard_count=*/1);
    EXPECT_FALSE(one.lookup(1, x, env).has_value());  // miss
    one.insert(1, x, env, {1, 1.0, 0.0});
    EXPECT_TRUE(one.lookup(1, x, env).has_value());   // hit
    EXPECT_TRUE(one.probe(1, x, env).has_value());    // hit
    EXPECT_FALSE(one.probe(1, y, env).has_value());   // uncounted
    two.insert(2, x, env, {0, 1.0, 2.0});
    two.insert(2, y, env, {0, 1.0, 2.0});  // over budget: evicts x
    EXPECT_FALSE(two.lookup(2, x, env).has_value());  // miss
    const CStats c1 = one.stats(), c2 = two.stats();
    EXPECT_EQ(c1.hits, 2u);
    EXPECT_EQ(c1.misses, 1u);
    EXPECT_EQ(c1.evictions, 0u);
    EXPECT_EQ(c2.hits, 0u);
    EXPECT_EQ(c2.misses, 1u);
    EXPECT_EQ(c2.evictions, 1u);
    expect_global_sums("ppuf.response_cache", response_cache_fields,
                       {c1, c2});
  }

  Shard a, b;
  ASSERT_TRUE(a.open_and_start("obs_a", 31).is_ok());
  ASSERT_TRUE(b.open_and_start("obs_b", 32).is_ok());
  GatewayOptions go;
  go.health_interval_ms = 25;
  Gateway gateway(go);
  ASSERT_TRUE(gateway.add_shard("s", "127.0.0.1", a.server->port()).is_ok());
  ASSERT_TRUE(gateway.start().is_ok());
  AuthClient admin_client("127.0.0.1", gateway.port());
  wait_all_shards_up(admin_client, 1);

  // ENROLL through the gateway (served by a) and directly on b; an
  // unknown device through the gateway (refused by a).
  std::uint64_t assigned = 0;
  AuthClient via_gateway("127.0.0.1", gateway.port(), client_options_for(1));
  ASSERT_TRUE(via_gateway.enroll_device(enroll_spec(1), 1, &assigned).is_ok());
  AuthClient direct_b("127.0.0.1", b.server->port(), client_options_for(1));
  ASSERT_TRUE(direct_b.enroll_device(enroll_spec(1), 1, &assigned).is_ok());
  net::ChallengeGrant grant;
  AuthClient unknown("127.0.0.1", gateway.port(), client_options_for(999));
  EXPECT_EQ(unknown.get_challenge(&grant).code(), StatusCode::kNotFound);
  ASSERT_TRUE(via_gateway.get_challenge(&grant).is_ok());  // pins on a

  // WAL shipping from a: a bootstrap, then a segment with one record.
  StandbyOptions so;
  so.primary_port = a.server->port();
  so.directory = fresh_dir("obs_standby");
  WalStandby standby(so);
  ASSERT_TRUE(standby.start().is_ok());
  standby.stop();
  ASSERT_TRUE(standby.sync_once().is_ok());
  AuthClient direct_a("127.0.0.1", a.server->port(), client_options_for(2));
  ASSERT_TRUE(direct_a.enroll_device(enroll_spec(2), 2, &assigned).is_ok());
  ASSERT_TRUE(standby.sync_once().is_ok());

  // Drain s naming b: a new session is redirected there.  Then remove s:
  // the empty ring answers SHARD_UNAVAILABLE.
  net::AdminRequestBody drain;
  drain.op = net::AdminOp::kDrainShard;
  drain.shard = "s";
  drain.host = "127.0.0.1";
  drain.port = b.server->port();
  net::AdminReplyBody reply;
  ASSERT_TRUE(admin_client.admin(drain, &reply).is_ok());
  AuthClient redirected("127.0.0.1", gateway.port(), client_options_for(1));
  ASSERT_TRUE(redirected.get_challenge(&grant).is_ok());
  EXPECT_GE(redirected.stats().redirects_followed, 1u);
  net::AdminRequestBody remove;
  remove.op = net::AdminOp::kRemoveShard;
  remove.shard = "s";
  ASSERT_TRUE(admin_client.admin(remove, &reply).is_ok());
  ClientOptions once = client_options_for(1);
  once.max_attempts = 1;
  AuthClient stranded("127.0.0.1", gateway.port(), once);
  EXPECT_FALSE(stranded.get_challenge(&grant).is_ok());

  // A fetch against a stopped primary fails.  Everything stops before the
  // comparison, so no prober or poller moves a count mid-read.
  gateway.stop();
  a.server->stop();
  b.server->stop();
  EXPECT_FALSE(standby.sync_once().is_ok());

  const SStats sa = a.server->stats(), sb = b.server->stats();
  const GStats g = gateway.stats();
  const WStats w = standby.stats();
  reg.set_enabled(false);

  // Each instance counted only its own events...
  EXPECT_EQ(sa.enrolls_served, 2u);
  EXPECT_EQ(sb.enrolls_served, 1u);
  EXPECT_EQ(sa.unknown_device_rejections, 1u);
  EXPECT_EQ(sb.unknown_device_rejections, 0u);
  EXPECT_EQ(sa.wal_fetches_served, w.fetches);
  EXPECT_EQ(sb.wal_fetches_served, 0u);
  EXPECT_GE(g.redirects_sent, 1u);
  EXPECT_GE(g.unavailable_rejections, 1u);
  EXPECT_GE(g.pins_created, 1u);
  EXPECT_GE(g.forwarded, 3u);
  EXPECT_GE(g.admin_requests, 3u);
  EXPECT_GE(g.health_probes, 1u);
  EXPECT_EQ(g.dropped_inflight, 0u);
  EXPECT_EQ(w.bootstraps, 1u);
  EXPECT_GT(w.bytes_applied, 0u);
  EXPECT_EQ(w.fetch_errors, 1u);

  // ...and each global counter is the sum of the instances' fields.
  expect_global_sums("server", server_fields, {sa, sb});
  expect_global_sums("gateway", gateway_fields, {g});
  expect_global_sums("standby", standby_fields, {w});
}

}  // namespace
}  // namespace ppuf
