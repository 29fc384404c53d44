// Tests for the time-bound authentication protocol.
#include <gtest/gtest.h>

#include "protocol/authentication.hpp"
#include "util/thread_pool.hpp"

namespace ppuf::protocol {
namespace {

struct ProtocolFixture : public ::testing::Test {
  ProtocolFixture() {
    PpufParams p;
    p.node_count = 10;
    p.grid_size = 4;
    puf = std::make_unique<MaxFlowPpuf>(p, 404);
    model = std::make_unique<SimulationModel>(*puf);
  }

  /// Flow tolerance: ~10% of a typical edge capacity absorbs the
  /// circuit-vs-max-flow inaccuracy, including under-saturated min-cut
  /// edges (see authentication.hpp).
  double tolerance() const {
    double mean_cap = 0.0;
    const std::size_t edges = puf->layout().edge_count();
    for (graph::EdgeId e = 0; e < edges; ++e)
      mean_cap += model->capacity(0, e, 0);
    mean_cap /= static_cast<double>(edges);
    return 0.10 * mean_cap;
  }

  std::unique_ptr<MaxFlowPpuf> puf;
  std::unique_ptr<SimulationModel> model;
  util::Rng rng{11};
};

TEST_F(ProtocolFixture, HonestProverAccepted) {
  const Verifier verifier(*model, /*deadline=*/1e-3, tolerance());
  const Challenge c = verifier.issue_challenge(rng);
  const ProverReport report = prove_with_ppuf(*puf, c, 1e-6);
  const AuthenticationResult r = verifier.verify(c, report);
  EXPECT_TRUE(r.accepted) << r.detail;
  EXPECT_TRUE(r.flows_valid);
  EXPECT_TRUE(r.bit_consistent);
  EXPECT_TRUE(r.in_time);
}

TEST_F(ProtocolFixture, SimulatingProverIsCorrectButCanBeTimedOut) {
  // With a loose deadline the simulator passes (its flows are exactly
  // feasible); with a deadline below its wall-clock it is rejected.
  const Challenge c = random_challenge(puf->layout(), rng);
  const ProverReport sim = prove_by_simulation(*model, c);
  EXPECT_GT(sim.elapsed_seconds, 0.0);

  const Verifier loose(*model, 1e9, tolerance());
  EXPECT_TRUE(loose.verify(c, sim).accepted);

  const Verifier tight(*model, sim.elapsed_seconds * 0.5, tolerance());
  const AuthenticationResult r = tight.verify(c, sim);
  EXPECT_FALSE(r.accepted);
  EXPECT_FALSE(r.in_time);
  EXPECT_NE(r.detail.find("deadline"), std::string::npos);
}

TEST_F(ProtocolFixture, WrongBitRejected) {
  const Verifier verifier(*model, 1e-3, tolerance());
  const Challenge c = verifier.issue_challenge(rng);
  ProverReport report = prove_with_ppuf(*puf, c, 1e-6);
  report.bit ^= 1;
  const AuthenticationResult r = verifier.verify(c, report);
  EXPECT_FALSE(r.accepted);
  EXPECT_FALSE(r.bit_consistent);
}

TEST_F(ProtocolFixture, InflatedFlowClaimRejected) {
  const Verifier verifier(*model, 1e-3, tolerance());
  const Challenge c = verifier.issue_challenge(rng);
  ProverReport report = prove_with_ppuf(*puf, c, 1e-6);
  // Claim an over-capacity flow on the strongest edge of network A, as the
  // challenge configures it.  Doubling the largest capacity exceeds it by
  // more than the verifier tolerance (10% of the mean), so the capacity
  // constraint itself must reject, independent of conservation slack.
  const graph::Digraph g = model->build_graph(0, c);
  graph::EdgeId strongest = 0;
  for (graph::EdgeId e = 1; e < g.edge_count(); ++e)
    if (g.edge(e).capacity > g.edge(strongest).capacity) strongest = e;
  report.edge_flow_a[strongest] = g.edge(strongest).capacity * 2.0;
  const AuthenticationResult r = verifier.verify(c, report);
  EXPECT_FALSE(r.accepted);
  EXPECT_FALSE(r.flows_valid);
}

TEST_F(ProtocolFixture, SuboptimalFlowRejected) {
  const Verifier verifier(*model, 1e-3, tolerance());
  const Challenge c = verifier.issue_challenge(rng);
  ProverReport report = prove_with_ppuf(*puf, c, 1e-6);
  // Zeroed flows conserve trivially but leave an augmenting path.
  std::fill(report.edge_flow_a.begin(), report.edge_flow_a.end(), 0.0);
  report.flow_a = 0.0;
  const AuthenticationResult r = verifier.verify(c, report);
  EXPECT_FALSE(r.accepted);
  EXPECT_NE(r.detail.find("network A"), std::string::npos);
}

TEST_F(ProtocolFixture, ChainedHonestProverAccepted) {
  const std::size_t k = 4;
  const Verifier verifier(*model, /*total deadline=*/1.0, tolerance());
  const Challenge c1 = random_challenge(puf->layout(), rng);
  const protocol::ChainedReport report =
      prove_chain_with_ppuf(*puf, c1, k, 99, 1e-6);
  util::Rng vrng(1);
  const auto r =
      verify_chain(verifier, *model, c1, k, 99, report, 2, vrng);
  EXPECT_TRUE(r.accepted) << r.detail;
  EXPECT_TRUE(r.chain_consistent);
  EXPECT_TRUE(r.rounds_valid);
}

TEST_F(ProtocolFixture, ChainedSimulatorMatchesButSlower) {
  const std::size_t k = 3;
  const Challenge c1 = random_challenge(puf->layout(), rng);
  const protocol::ChainedReport honest =
      prove_chain_with_ppuf(*puf, c1, k, 7, 1e-6);
  const protocol::ChainedReport sim =
      prove_chain_by_simulation(*model, c1, k, 7);
  // The simulation model is faithful, so the chains agree bit for bit...
  for (std::size_t i = 0; i < k; ++i)
    EXPECT_EQ(honest.rounds[i].bit, sim.rounds[i].bit);
  // ...but a tight chain deadline rejects the simulator on time.
  const Verifier tight(*model, sim.elapsed_seconds * 0.5, tolerance());
  util::Rng vrng(2);
  const auto r = verify_chain(tight, *model, c1, k, 7, sim, 0, vrng);
  EXPECT_FALSE(r.accepted);
  EXPECT_FALSE(r.in_time);
}

TEST_F(ProtocolFixture, ChainedTamperedRoundDetectedWithFullChecks) {
  const std::size_t k = 4;
  const Verifier verifier(*model, 1.0, tolerance());
  const Challenge c1 = random_challenge(puf->layout(), rng);
  protocol::ChainedReport report =
      prove_chain_with_ppuf(*puf, c1, k, 13, 1e-6);
  // Corrupt the claimed flows of round 2.
  std::fill(report.rounds[2].edge_flow_a.begin(),
            report.rounds[2].edge_flow_a.end(), 0.0);
  util::Rng vrng(3);
  const auto r =
      verify_chain(verifier, *model, c1, k, 13, report, 0, vrng);
  EXPECT_FALSE(r.accepted);
  EXPECT_NE(r.detail.find("round 2"), std::string::npos);
}

TEST_F(ProtocolFixture, ChainedWrongRoundCountRejected) {
  const Verifier verifier(*model, 1.0, tolerance());
  const Challenge c1 = random_challenge(puf->layout(), rng);
  const protocol::ChainedReport report =
      prove_chain_with_ppuf(*puf, c1, 3, 5, 1e-6);
  util::Rng vrng(4);
  const auto r = verify_chain(verifier, *model, c1, 4, 5, report, 0, vrng);
  EXPECT_FALSE(r.accepted);
  EXPECT_NE(r.detail.find("round count"), std::string::npos);
}

TEST_F(ProtocolFixture, ParallelVerificationAgrees) {
  // verify_batch on four workers gives every item verify()'s verdict.
  const Verifier verifier(*model, 1e-3, tolerance());
  std::vector<Challenge> challenges;
  std::vector<ProverReport> reports;
  for (int i = 0; i < 6; ++i) {
    challenges.push_back(verifier.issue_challenge(rng));
    reports.push_back(prove_with_ppuf(*puf, challenges.back(), 1e-6));
  }
  util::ThreadPool pool(4);
  Verifier::BatchVerifyOptions four;
  four.pool = &pool;
  const auto parallel = verifier.verify_batch(challenges, reports, four);
  ASSERT_EQ(parallel.size(), challenges.size());
  for (std::size_t i = 0; i < challenges.size(); ++i) {
    const AuthenticationResult serial = verifier.verify(challenges[i],
                                                        reports[i]);
    EXPECT_EQ(parallel[i].accepted, serial.accepted) << "item " << i;
    EXPECT_EQ(parallel[i].detail, serial.detail) << "item " << i;
  }
}

}  // namespace
}  // namespace ppuf::protocol
