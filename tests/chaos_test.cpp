// Chaos campaign suite: the serving stack under randomized fault
// schedules, process-death torture, and the client's self-protection.
//
// The bounded campaigns here are the tier-1 slice of the chaos layer:
// five fixed seeds, sub-second schedules, every invariant checked (no
// wrong accept, only typed errors, committed enrollments survive,
// recovery bounded).  The open-ended randomized sweep lives in
// bench_chaos / `ppuf_tool chaos`; a seed that fails there is reproduced
// by adding it to the list below.
//
// NOTE: the kill-9 torture forks, so it must not share a process with
// live threads; every test in this binary joins all of its threads before
// returning (AuthServer::stop, run_campaign), and the torture test is
// declared first for good measure.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/breaker.hpp"
#include "net/client.hpp"
#include "registry/device_registry.hpp"
#include "server/auth_server.hpp"
#include "testing/chaos/chaos.hpp"
#include "testing/fault_injection.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "test_dirs.hpp"

namespace ppuf {
namespace {

using test::fresh_dir;

namespace fs = std::filesystem;
using testing::chaos::CampaignOptions;
using testing::chaos::CampaignResult;
using testing::chaos::FaultPhase;
using testing::chaos::FaultSchedule;
using testing::chaos::TortureOptions;
using testing::chaos::TortureResult;
using util::Status;
using util::StatusCode;

// ---------------------------------------------------------------------------
// Kill-9 crash-recovery torture (first: it forks).

TEST(ChaosTorture, Kill9LoopNeverLosesCommittedEnrollments) {
  TortureOptions options;
  options.iterations = 22;
  options.seed = 11;
  const TortureResult result = testing::chaos::run_kill9_torture(options);

  for (const std::string& v : result.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(result.passed());
  EXPECT_EQ(result.iterations, 22);
  // The children must have committed real work for the diff to mean
  // anything, and every recovery must have been sampled.
  EXPECT_GT(result.committed_enrolls, 0u);
  EXPECT_EQ(result.recovery_ms.size(), 22u);
}

// ---------------------------------------------------------------------------
// Fault schedules.

TEST(ChaosSchedule, DeterministicInSeed) {
  const FaultSchedule a = FaultSchedule::from_seed(42, 5.0);
  const FaultSchedule b = FaultSchedule::from_seed(42, 5.0);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(a.phases[i].kind, b.phases[i].kind);
    EXPECT_EQ(a.phases[i].duration_s, b.phases[i].duration_s);
    EXPECT_EQ(a.phases[i].net_send_fail_ppm, b.phases[i].net_send_fail_ppm);
    EXPECT_EQ(a.phases[i].wal_append_fail_ppm,
              b.phases[i].wal_append_fail_ppm);
    EXPECT_EQ(a.phases[i].net_latency_us, b.phases[i].net_latency_us);
  }

  // A different seed draws a different walk (kinds or magnitudes).
  const FaultSchedule c = FaultSchedule::from_seed(43, 5.0);
  bool differs = c.phases.size() != a.phases.size();
  for (std::size_t i = 0; !differs && i < a.phases.size(); ++i) {
    differs = a.phases[i].kind != c.phases[i].kind ||
              a.phases[i].duration_s != c.phases[i].duration_s;
  }
  EXPECT_TRUE(differs);
}

TEST(ChaosSchedule, CoversDurationAndStartsQuiet) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const FaultSchedule s = FaultSchedule::from_seed(seed, 3.0);
    ASSERT_FALSE(s.phases.empty());
    // The opening window is always quiet so the stack warms up before the
    // first burst.
    EXPECT_EQ(s.phases.front().kind, FaultPhase::Kind::kQuiet);
    double total = 0.0;
    for (const FaultPhase& p : s.phases) {
      EXPECT_GT(p.duration_s, 0.0);
      total += p.duration_s;
    }
    EXPECT_NEAR(total, 3.0, 1e-6);
  }
  // Across a handful of seeds every burst kind must appear — a schedule
  // generator that never draws disk faults is not a chaos campaign.
  std::set<FaultPhase::Kind> seen;
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    for (const FaultPhase& p : FaultSchedule::from_seed(seed, 3.0).phases)
      seen.insert(p.kind);
  EXPECT_EQ(seen.size(), 5u);
}

// ---------------------------------------------------------------------------
// Circuit breaker (unit level).

TEST(CircuitBreaker, OpensAfterThresholdFastFailsAndRecovers) {
  net::CircuitBreaker::Options options;
  options.failure_threshold = 3;
  options.cooldown_ms = 50;
  net::CircuitBreaker breaker(options);

  EXPECT_TRUE(breaker.allow());
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_TRUE(breaker.allow());  // below threshold: still closed
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow());  // fast fail
  EXPECT_EQ(breaker.times_opened(), 1u);

  // After the cooldown exactly one half-open probe is admitted.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_TRUE(breaker.allow());
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allow());  // second concurrent probe refused

  // A failed probe slams it shut again...
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.times_opened(), 2u);

  // ...and a successful probe after the next cooldown closes it.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_TRUE(breaker.allow());
  breaker.record_success();
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow());
}

TEST(CircuitBreaker, SuccessResetsConsecutiveFailureCount) {
  net::CircuitBreaker::Options options;
  options.failure_threshold = 3;
  net::CircuitBreaker breaker(options);
  for (int round = 0; round < 5; ++round) {
    breaker.record_failure();
    breaker.record_failure();
    breaker.record_success();  // never three in a row
  }
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.times_opened(), 0u);
}

TEST(CircuitBreaker, EndpointBreakersAreSharedPerEndpoint) {
  const auto a = net::endpoint_breaker("chaos-test-host", 19001, {});
  const auto b = net::endpoint_breaker("chaos-test-host", 19001, {});
  const auto c = net::endpoint_breaker("chaos-test-host", 19002, {});
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
}

// ---------------------------------------------------------------------------
// Decorrelated-jitter backoff (distribution level).

TEST(BackoffJitter, DecorrelatedSeededBoundedAndSpread) {
  const int base = 10, cap = 500;

  // Same seed, same stream: the knob that makes chaos runs reproducible.
  util::Rng rng_a(7), rng_b(7);
  int prev_a = 0, prev_b = 0;
  for (int i = 0; i < 64; ++i) {
    prev_a = net::decorrelated_jitter_ms(rng_a, base, cap, prev_a);
    prev_b = net::decorrelated_jitter_ms(rng_b, base, cap, prev_b);
    ASSERT_EQ(prev_a, prev_b);
  }

  // Bounded: every draw stays in [base, cap] and within the 3x-previous
  // decorrelation envelope.
  util::Rng rng(12345);
  int prev = 0;
  std::set<int> distinct;
  for (int i = 0; i < 256; ++i) {
    const int next = net::decorrelated_jitter_ms(rng, base, cap, prev);
    ASSERT_GE(next, base);
    ASSERT_LE(next, cap);
    ASSERT_LE(next, std::max(3 * prev, 3 * base));
    distinct.insert(next);
    prev = next;
  }
  // Jitter that always lands on the same value is not jitter (the whole
  // point is to decorrelate a fleet's retries).
  EXPECT_GT(distinct.size(), 10u);

  // Distinct seeds decorrelate.
  util::Rng rng_c(1), rng_d(2);
  int same = 0;
  int pc = 0, pd = 0;
  for (int i = 0; i < 64; ++i) {
    pc = net::decorrelated_jitter_ms(rng_c, base, cap, pc);
    pd = net::decorrelated_jitter_ms(rng_d, base, cap, pd);
    if (pc == pd) ++same;
  }
  EXPECT_LT(same, 32);
}

// ---------------------------------------------------------------------------
// Registry WAL append failure mid-enroll against a live server
// (satellite: disk-full during enrollment must be typed, isolated, and
// recoverable while serving continues).

TEST(ChaosRegistry, WalAppendFailureMidEnrollIsTypedIsolatedAndRecovers) {
  registry::DeviceRegistry reg;
  ASSERT_TRUE(reg.open(fresh_dir("wal_mid_enroll")).is_ok());

  registry::EnrollRequest req;
  req.node_count = 6;
  req.grid_size = 3;
  req.seed = 501;
  std::uint64_t id1 = 0;
  ASSERT_TRUE(reg.enroll(req, &id1).is_ok());

  server::AuthServerOptions sopts;
  sopts.threads = 1;
  sopts.challenge_seed = 99;
  server::AuthServer server(reg, sopts);
  ASSERT_TRUE(server.start().is_ok());

  net::ClientOptions copts;
  copts.backoff_seed = 1;
  copts.device_id = id1;
  net::AuthClient client("127.0.0.1", server.port(), copts);
  net::ChallengeGrant grant;
  ASSERT_TRUE(client.get_challenge(&grant).is_ok());

  // Disk full: the enroll fails with a typed error, state is unchanged,
  // and the already-enrolled device keeps being served throughout.
  const std::size_t count_before = reg.device_count();
  {
    testing::FaultSpec spec;
    spec.registry_append_failures = 1;
    const testing::ScopedFaultInjection fault(spec);
    req.seed = 502;
    std::uint64_t id2 = 0;
    EXPECT_EQ(reg.enroll(req, &id2).code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(reg.device_count(), count_before);
  EXPECT_TRUE(client.get_challenge(&grant).is_ok());

  // The failure is transient: the next enroll succeeds and the new
  // device is immediately servable.
  req.seed = 503;
  std::uint64_t id3 = 0;
  ASSERT_TRUE(reg.enroll(req, &id3).is_ok());
  EXPECT_EQ(id3, id1 + 1);  // the failed attempt burned no id
  client.set_device_id(id3);
  EXPECT_TRUE(client.get_challenge(&grant).is_ok());

  server.stop();
}

// ---------------------------------------------------------------------------
// The tentpole: seeded chaos campaigns against the live stack.

TEST(ChaosCampaign, FiveSeededSchedulesNoInvariantViolations) {
  std::uint64_t total_faults = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    CampaignOptions options;
    options.seed = seed;
    options.duration_s = 0.7;
    options.devices = 2;
    options.clients = 3;
    options.restarts = 1;
    const CampaignResult result = testing::chaos::run_campaign(options);

    for (const std::string& v : result.violations)
      ADD_FAILURE() << "seed " << seed << ": " << v;
    EXPECT_TRUE(result.passed()) << "seed " << seed;
    EXPECT_GT(result.requests, 0u) << "seed " << seed;
    EXPECT_GT(result.ok, 0u) << "seed " << seed;
    // One restart per campaign, and its blackout must have been sampled.
    EXPECT_EQ(result.recovery_ms.size(), 1u) << "seed " << seed;
    total_faults += result.faults_injected;
  }
  // Campaigns that never injected a fault tested nothing.
  EXPECT_GT(total_faults, 0u);
}

TEST(ChaosCampaign, AggregateRollsUpAndEmitsJson) {
  testing::chaos::Aggregate agg;
  CampaignResult campaign;
  campaign.seed = 3;
  campaign.faults_injected = 17;
  campaign.requests = 100;
  campaign.ok = 90;
  campaign.recovery_ms = {12.0, 30.0};
  agg.add(campaign);
  TortureResult torture;
  torture.iterations = 20;
  torture.committed_enrolls = 55;
  torture.recovery_ms = {5.0};
  agg.add(torture);

  EXPECT_TRUE(agg.passed());
  EXPECT_EQ(agg.failing_seed, 0u);
  EXPECT_EQ(agg.recovery_ms.size(), 3u);

  const std::string json = agg.to_json();
  EXPECT_NE(json.find("\"bench\": \"chaos\""), std::string::npos);
  EXPECT_NE(json.find("\"faults_injected\": 17"), std::string::npos);
  EXPECT_NE(json.find("\"violations\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"recovery_ms_p99\""), std::string::npos);
  EXPECT_NE(json.find("\"torture_iterations\": 20"), std::string::npos);

  // A violating campaign pins the failing seed for reproduction.
  CampaignResult bad;
  bad.seed = 4;
  bad.violations.push_back("wrong response for device 1");
  agg.add(bad);
  EXPECT_FALSE(agg.passed());
  EXPECT_EQ(agg.failing_seed, 4u);
  EXPECT_NE(agg.to_json().find("\"failing_seed\": 4"), std::string::npos);
}

TEST(ChaosCampaign, PercentileIsNearestRank) {
  using testing::chaos::percentile;
  EXPECT_EQ(percentile({}, 99.0), 0.0);
  EXPECT_EQ(percentile({7.0}, 50.0), 7.0);
  EXPECT_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 50.0), 2.0);
  EXPECT_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 99.0), 4.0);
  EXPECT_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 25.0), 1.0);  // sorts first
}

}  // namespace
}  // namespace ppuf
