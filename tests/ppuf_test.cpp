// Tests for the assembled PPUF: determinism, the execution/simulation
// equivalence (the paper's central claim), the public model, delay and
// power estimates, and the feedback-loop protocol.
//
// PPUFs here are small (n <= 12) to keep characterisation fast; the bench
// binaries exercise the paper-scale instances.
#include <gtest/gtest.h>

#include <cmath>

#include "ppuf/block.hpp"
#include "ppuf/delay.hpp"
#include "ppuf/feedback.hpp"
#include "ppuf/power.hpp"
#include "ppuf/ppuf.hpp"
#include "ppuf/sim_model.hpp"
#include "util/thread_pool.hpp"

namespace ppuf {
namespace {

PpufParams small_params(std::size_t n = 8, std::size_t l = 4) {
  PpufParams p;
  p.node_count = n;
  p.grid_size = l;
  return p;
}

const circuit::Environment kNominal = circuit::Environment::nominal();

TEST(Ppuf, DeterministicForSameSeed) {
  MaxFlowPpuf a(small_params(), 123);
  MaxFlowPpuf b(small_params(), 123);
  util::Rng rng(1);
  for (int i = 0; i < 5; ++i) {
    const Challenge c = random_challenge(a.layout(), rng);
    const auto ea = a.evaluate(c);
    const auto eb = b.evaluate(c);
    EXPECT_EQ(ea.bit, eb.bit);
    EXPECT_DOUBLE_EQ(ea.current_a, eb.current_a);
    EXPECT_DOUBLE_EQ(ea.current_b, eb.current_b);
  }
}

TEST(Ppuf, DifferentSeedsAreDifferentInstances) {
  MaxFlowPpuf a(small_params(), 1);
  MaxFlowPpuf b(small_params(), 2);
  util::Rng rng(1);
  int agreements = 0;
  const int total = 24;
  for (int i = 0; i < total; ++i) {
    const Challenge c = random_challenge(a.layout(), rng);
    agreements += a.evaluate(c).bit == b.evaluate(c).bit ? 1 : 0;
  }
  // Two random instances agree ~half the time; identical instances would
  // agree on all.
  EXPECT_LT(agreements, total);
  EXPECT_GT(agreements, 0);
}

TEST(Ppuf, CurrentsAreInPhysicalRange) {
  MaxFlowPpuf puf(small_params(), 7);
  util::Rng rng(2);
  const Challenge c = random_challenge(puf.layout(), rng);
  const auto e = puf.evaluate(c);
  ASSERT_TRUE(e.converged);
  // n-1 = 7 source edges at tens of nA each.
  EXPECT_GT(e.current_a, 1e-8);
  EXPECT_LT(e.current_a, 1e-5);
  EXPECT_GT(e.current_b, 1e-8);
}

TEST(Ppuf, NoiseRngFlipsOnlyMarginalChallenges) {
  MaxFlowPpuf puf(small_params(), 11);
  util::Rng rng(3);
  util::Rng noise(4);
  int flips = 0;
  const int total = 20;
  for (int i = 0; i < total; ++i) {
    const Challenge c = random_challenge(puf.layout(), rng);
    const int clean = puf.evaluate(c).bit;
    const int noisy = puf.evaluate(c, kNominal, &noise).bit;
    flips += clean != noisy ? 1 : 0;
  }
  // Comparator noise is nA-scale vs ~100 nA typical margins: rare flips.
  EXPECT_LT(flips, total / 2);
}

// The central claim (Fig. 6): executing the circuit computes the max-flow
// of the published instance to within ~1%.
TEST(Ppuf, ExecutionMatchesMaxFlowSimulation) {
  MaxFlowPpuf puf(small_params(10, 4), 21);
  SimulationModel model(puf);
  util::Rng rng(5);
  double total_err = 0.0;
  const int trials = 8;
  for (int i = 0; i < trials; ++i) {
    const Challenge c = random_challenge(puf.layout(), rng);
    const auto exe = puf.evaluate(c);
    const auto sim = model.predict(c);
    ASSERT_GT(exe.current_a, 0.0);
    total_err += std::abs(exe.current_a - sim.flow_a) / exe.current_a;
    total_err += std::abs(exe.current_b - sim.flow_b) / exe.current_b;
  }
  EXPECT_LT(total_err / (2 * trials), 0.02);  // < 2% average inaccuracy
}

TEST(Ppuf, SimulationPredictsResponseBits) {
  MaxFlowPpuf puf(small_params(10, 4), 22);
  SimulationModel model(puf);
  util::Rng rng(6);
  int agree = 0;
  const int trials = 20;
  for (int i = 0; i < trials; ++i) {
    const Challenge c = random_challenge(puf.layout(), rng);
    agree += puf.evaluate(c).bit == model.predict(c).bit ? 1 : 0;
  }
  // The model is accurate to <1-2%, flow differences are usually larger:
  // expect near-perfect but tolerate a marginal challenge.
  EXPECT_GE(agree, trials - 2);
}

/// Every block curve of both networks, compared bit for bit: the value and
/// slope at every characterisation knot, the knot range and isat.
void expect_identical_curves(const MaxFlowPpuf& serial,
                             const MaxFlowPpuf& pooled) {
  const std::vector<double> grid = characterization_grid(serial.params());
  const std::size_t edges = serial.layout().edge_count();
  for (int net = 0; net < 2; ++net) {
    const CrossbarNetwork& a = net == 0 ? serial.network_a()
                                        : serial.network_b();
    const CrossbarNetwork& b = net == 0 ? pooled.network_a()
                                        : pooled.network_b();
    for (graph::EdgeId e = 0; e < edges; ++e) {
      for (int bit = 0; bit < 2; ++bit) {
        const BlockCurve& ca = a.curve(e, bit);
        const BlockCurve& cb = b.curve(e, bit);
        ASSERT_EQ(ca.isat, cb.isat) << "net " << net << " edge " << e;
        ASSERT_EQ(ca.iv.x_min(), cb.iv.x_min());
        ASSERT_EQ(ca.iv.x_max(), cb.iv.x_max());
        for (const double v : grid) {
          double da = 0.0, db = 0.0;
          ASSERT_EQ(ca.iv(v, &da), cb.iv(v, &db))
              << "net " << net << " edge " << e << " bit " << bit
              << " V=" << v;
          ASSERT_EQ(da, db);
        }
      }
    }
  }
}

TEST(Ppuf, PooledPrepareMatchesSerialBitForBit) {
  util::ThreadPool pool(4);
  for (const std::size_t n : {6u, 24u}) {
    for (const std::uint64_t seed : {31u, 32u}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" +
                   std::to_string(seed));
      MaxFlowPpuf serial(small_params(n, 3), seed);
      MaxFlowPpuf pooled(small_params(n, 3), seed);
      serial.prepare(kNominal);
      pooled.prepare(kNominal, &pool);
      expect_identical_curves(serial, pooled);
    }
  }

  // Off-nominal conditions re-characterise every block and drop the
  // stored warm-start point, on the pooled path as on the serial one.
  const circuit::Environment hot{0.9, 80.0};
  MaxFlowPpuf serial(small_params(6, 3), 33);
  MaxFlowPpuf pooled(small_params(6, 3), 33);
  serial.prepare(kNominal);
  pooled.prepare(kNominal, &pool);
  pooled.set_warm_start(true);
  util::Rng rng(9);
  const Challenge c = random_challenge(pooled.layout(), rng);
  ASSERT_TRUE(pooled.evaluate(c).converged);  // stores a warm start
  serial.prepare(hot);
  pooled.prepare(hot, &pool);
  expect_identical_curves(serial, pooled);
  // Both first solves under the new environment start cold.
  const MaxFlowPpuf::Evaluation es = serial.evaluate(c, hot);
  const MaxFlowPpuf::Evaluation ep = pooled.evaluate(c, hot);
  ASSERT_TRUE(es.converged);
  EXPECT_EQ(es.current_a, ep.current_a);
  EXPECT_EQ(es.current_b, ep.current_b);
}

TEST(SimulationModel, CapacitiesArePositiveAndBitDependent) {
  MaxFlowPpuf puf(small_params(), 31);
  SimulationModel model(puf);
  const std::size_t edges = puf.layout().edge_count();
  int differing = 0;
  for (graph::EdgeId e = 0; e < edges; ++e) {
    for (int net = 0; net < 2; ++net) {
      EXPECT_GT(model.capacity(net, e, 0), 0.0);
      EXPECT_GT(model.capacity(net, e, 1), 0.0);
    }
    if (std::abs(model.capacity(0, e, 0) - model.capacity(0, e, 1)) >
        0.01 * model.capacity(0, e, 0)) {
      ++differing;
    }
  }
  // Under variation the two input states differ for most blocks.
  EXPECT_GT(differing, static_cast<int>(edges / 2));
  EXPECT_THROW(model.capacity(2, 0, 0), std::invalid_argument);
}

TEST(SimulationModel, GraphMatchesLayoutAndChallenge) {
  MaxFlowPpuf puf(small_params(), 32);
  SimulationModel model(puf);
  util::Rng rng(7);
  const Challenge c = random_challenge(puf.layout(), rng);
  const graph::Digraph g = model.build_graph(0, c);
  EXPECT_TRUE(g.is_complete());
  EXPECT_EQ(g.vertex_count(), puf.layout().node_count());
  for (graph::VertexId i = 0; i < 4; ++i) {
    for (graph::VertexId j = 0; j < 4; ++j) {
      if (i == j) continue;
      const int bit = c.bits[puf.layout().cell_of_edge(i, j)] ? 1 : 0;
      EXPECT_DOUBLE_EQ(g.edge(puf.layout().edge_id(i, j)).capacity,
                       model.capacity(0, puf.layout().edge_id(i, j), bit));
    }
  }
}

TEST(SimulationModel, AllAlgorithmsAgreeOnPrediction) {
  MaxFlowPpuf puf(small_params(), 33);
  SimulationModel model(puf);
  util::Rng rng(8);
  const Challenge c = random_challenge(puf.layout(), rng);
  const auto pr = model.predict(c, maxflow::Algorithm::kPushRelabel);
  const auto dn = model.predict(c, maxflow::Algorithm::kDinic);
  const auto ek = model.predict(c, maxflow::Algorithm::kEdmondsKarp);
  EXPECT_NEAR(pr.flow_a, dn.flow_a, 1e-9 * pr.flow_a);
  EXPECT_NEAR(pr.flow_a, ek.flow_a, 1e-9 * pr.flow_a);
  EXPECT_EQ(pr.bit, dn.bit);
  EXPECT_EQ(pr.bit, ek.bit);
}

// ------------------------------------------------------------------- delay

TEST(Delay, AnalyticBoundIsLinearInN) {
  const PpufParams p = small_params();
  const double d100 = analytic_delay_bound(p, 100);
  const double d200 = analytic_delay_bound(p, 200);
  EXPECT_NEAR(d200 / d100, 199.0 / 99.0, 1e-9);
  EXPECT_THROW(analytic_delay_bound(p, 1), std::invalid_argument);
  EXPECT_THROW(analytic_delay_bound(p, 100, 2.0), std::invalid_argument);
}

TEST(Delay, MeasuredDelayWithinAnalyticBound) {
  PpufParams p = small_params(8, 4);
  MaxFlowPpuf puf(p, 41);
  util::Rng rng(9);
  const Challenge c = random_challenge(puf.layout(), rng);
  const double measured =
      measured_execution_delay(puf.network_a(), c, kNominal);
  const double bound = analytic_delay_bound(p, p.node_count);
  EXPECT_GT(measured, 0.0);
  EXPECT_LT(measured, bound * 4.0);  // bound is order-of-magnitude tight
}

// ------------------------------------------------------------------- power

TEST(Power, EstimateComposition) {
  const PpufParams p = small_params();
  const PowerEstimate e = estimate_power(p, 33.6e-6, 1e-6);
  EXPECT_NEAR(e.crossbar_power, 2.0 * 2.0 * 33.6e-6, 1e-12);
  EXPECT_DOUBLE_EQ(e.comparator_power, kComparatorPowerWatts);
  EXPECT_NEAR(e.total_power, e.crossbar_power + e.comparator_power, 1e-15);
  EXPECT_NEAR(e.energy_per_eval, e.total_power * 1e-6, 1e-18);
}

// ---------------------------------------------------------------- feedback

TEST(Feedback, SuccessorIsDeterministicAndResponseSensitive) {
  const CrossbarLayout layout(8, 4);
  util::Rng rng(10);
  const Challenge c = random_challenge(layout, rng);
  const Challenge n0 = next_challenge(layout, c, 0, 99);
  const Challenge n0_again = next_challenge(layout, c, 0, 99);
  const Challenge n1 = next_challenge(layout, c, 1, 99);
  EXPECT_EQ(n0, n0_again);
  EXPECT_FALSE(n0 == n1);  // response feeds the chain
  const Challenge other_nonce = next_challenge(layout, c, 0, 100);
  EXPECT_FALSE(n0 == other_nonce);
}

TEST(Feedback, PpufChainMatchesModelChain) {
  MaxFlowPpuf puf(small_params(10, 4), 55);
  SimulationModel model(puf);
  util::Rng rng(11);
  const Challenge c1 = random_challenge(puf.layout(), rng);
  const std::size_t k = 5;
  const FeedbackChain on_chip = run_chain_on_ppuf(puf, c1, k, 1234);
  const FeedbackChain simulated = run_chain_on_model(model, c1, k, 1234);
  ASSERT_EQ(on_chip.responses.size(), k);
  ASSERT_EQ(simulated.responses.size(), k);
  // The simulation model is faithful, so an honest simulator reproduces the
  // whole chain (it just takes asymptotically longer — that's the ESG).
  EXPECT_EQ(on_chip.responses, simulated.responses);
  EXPECT_EQ(on_chip.final_response(), simulated.final_response());
}

TEST(Feedback, ZeroRoundsRejected) {
  MaxFlowPpuf puf(small_params(), 56);
  util::Rng rng(12);
  const Challenge c1 = random_challenge(puf.layout(), rng);
  EXPECT_THROW(run_chain_on_ppuf(puf, c1, 0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace ppuf
