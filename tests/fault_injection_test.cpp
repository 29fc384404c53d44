// Deterministic fault-injection suite: forces the failures the robustness
// machinery exists for — Newton stalls, poisoned capacities, exhausted
// deadlines, malicious prover reports — and checks every layer degrades
// into a typed, inspectable outcome instead of a hang, crash, or silent
// wrong answer.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "circuit/dc.hpp"
#include "graph/complete.hpp"
#include "maxflow/approximate.hpp"
#include "maxflow/parallel_push_relabel.hpp"
#include "maxflow/solver.hpp"
#include "ppuf/network_solver.hpp"
#include "protocol/authentication.hpp"
#include "testing/fault_injection.hpp"

namespace ppuf {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// ------------------------------------------------ convergence-recovery ladder

/// Diode from a 1 V source: the exponential needs a handful of Newton
/// iterations, so a starved direct rung genuinely stalls.
circuit::Netlist diode_netlist() {
  circuit::Netlist net;
  const circuit::NodeId a = net.add_node("a");
  net.add_voltage_source(a, circuit::kGround, 1.0);
  net.add_diode(a, circuit::kGround, circuit::DiodeParams{});
  return net;
}

TEST(RecoveryLadder, StalledDirectNewtonFailsWithoutRecovery) {
  const circuit::Netlist net = diode_netlist();
  testing::FaultSpec spec;
  spec.newton_direct_iteration_cap = 1;
  const testing::ScopedFaultInjection fault(spec);

  circuit::DcOptions options;
  options.enable_recovery = false;  // the pre-ladder solver's behaviour
  const circuit::OperatingPoint op = circuit::DcSolver(net, options).solve();
  EXPECT_FALSE(op.converged);
  ASSERT_EQ(op.diagnostics.stages.size(), 1u);
  EXPECT_EQ(op.diagnostics.strategy, circuit::RecoveryStage::kDirect);
}

TEST(RecoveryLadder, StalledDirectNewtonRecoversAndNamesTheStage) {
  const circuit::Netlist net = diode_netlist();
  testing::FaultSpec spec;
  spec.newton_direct_iteration_cap = 1;
  const testing::ScopedFaultInjection fault(spec);

  const circuit::OperatingPoint op = circuit::DcSolver(net).solve();
  ASSERT_TRUE(op.converged) << op.diagnostics.summary();
  EXPECT_TRUE(op.diagnostics.recovered());
  EXPECT_EQ(op.diagnostics.strategy, circuit::RecoveryStage::kGminStepping);
  EXPECT_GE(op.diagnostics.stages.size(), 2u);
  EXPECT_FALSE(op.diagnostics.stages.front().converged);
  EXPECT_NE(op.diagnostics.summary().find("gmin-stepping"),
            std::string::npos);
  EXPECT_NEAR(op.voltage(1), 1.0, 1e-9);
}

TEST(RecoveryLadder, SkippingGminPinsRecoveryToSourceStepping) {
  const circuit::Netlist net = diode_netlist();
  testing::FaultSpec spec;
  spec.newton_direct_iteration_cap = 1;
  spec.newton_skip_gmin_stage = true;
  const testing::ScopedFaultInjection fault(spec);

  const circuit::OperatingPoint op = circuit::DcSolver(net).solve();
  ASSERT_TRUE(op.converged) << op.diagnostics.summary();
  EXPECT_EQ(op.diagnostics.strategy,
            circuit::RecoveryStage::kSourceStepping);
}

TEST(RecoveryLadder, HooksRestoredOnScopeExit) {
  {
    testing::FaultSpec spec;
    spec.newton_direct_iteration_cap = 1;
    const testing::ScopedFaultInjection fault(spec);
  }
  // Outside the scope the same netlist converges directly again.
  const circuit::OperatingPoint op =
      circuit::DcSolver(diode_netlist()).solve();
  ASSERT_TRUE(op.converged);
  EXPECT_EQ(op.diagnostics.strategy, circuit::RecoveryStage::kDirect);
}

/// Linear two-point curve through the origin with slope g.
MonotoneCurve linear_curve(double g) {
  return MonotoneCurve(std::vector<double>{-1.0, 1.0},
                       std::vector<double>{-g, g});
}

TEST(RecoveryLadder, NetworkSolverLadderRecoversToo) {
  const MonotoneCurve c = linear_curve(1e-6);
  const std::vector<const MonotoneCurve*> curves(3 * 2, &c);
  testing::FaultSpec spec;
  spec.newton_direct_iteration_cap = 1;
  const testing::ScopedFaultInjection fault(spec);

  NetworkSolver::Options bare;
  bare.enable_recovery = false;
  const auto failed =
      NetworkSolver(3, curves, bare).solve_dc(0, 2, 2.0);
  EXPECT_FALSE(failed.converged);

  const auto recovered = NetworkSolver(3, curves).solve_dc(0, 2, 2.0);
  ASSERT_TRUE(recovered.converged) << recovered.diagnostics.summary();
  EXPECT_TRUE(recovered.diagnostics.recovered());
  EXPECT_NEAR(recovered.node_voltage[1], 1.0, 2e-6);
}

// ------------------------------------------------- deadlines and cancellation

class DeadlineAllAlgorithms
    : public ::testing::TestWithParam<maxflow::Algorithm> {};

TEST_P(DeadlineAllAlgorithms, ZeroDeadlineReturnsTypedStatus) {
  util::Rng rng(13);
  const graph::Digraph g = graph::make_complete_uniform(32, rng);
  util::SolveControl control;
  control.deadline = util::Deadline::after_seconds(0.0);
  const auto r =
      maxflow::make_solver(GetParam())->solve({&g, 0, 31}, control);
  EXPECT_EQ(r.status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r.edge_flow.size(), g.edge_count());  // shape stays intact
}

TEST_P(DeadlineAllAlgorithms, PreCancelledTokenReturnsCancelled) {
  util::Rng rng(13);
  const graph::Digraph g = graph::make_complete_uniform(16, rng);
  util::CancelToken token;
  token.request_cancel();
  util::SolveControl control;
  control.cancel = &token;
  const auto r =
      maxflow::make_solver(GetParam())->solve({&g, 0, 15}, control);
  EXPECT_EQ(r.status.code(), util::StatusCode::kCancelled);
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, DeadlineAllAlgorithms,
    ::testing::ValuesIn(maxflow::all_algorithms()),
    [](const ::testing::TestParamInfo<maxflow::Algorithm>& info) {
      std::string n = maxflow::algorithm_name(info.param);
      for (char& c : n)
        if (c == '-') c = '_';
      return n;
    });

TEST(DeadlineFaults, ParallelAndApproximateSolversHonourDeadlines) {
  util::Rng rng(17);
  const graph::Digraph g = graph::make_complete_uniform(24, rng);
  util::SolveControl control;
  control.deadline = util::Deadline::after_seconds(0.0);

  const auto pr = maxflow::ParallelPushRelabel(2).solve({&g, 0, 23}, control);
  EXPECT_EQ(pr.status.code(), util::StatusCode::kDeadlineExceeded);

  const auto ar = maxflow::solve_approximate({&g, 0, 23}, 0.0, control);
  EXPECT_EQ(ar.status.code(), util::StatusCode::kDeadlineExceeded);
}

// -------------------------------------------------- protocol-level hardening

struct ProtocolFaults : public ::testing::Test {
  ProtocolFaults() {
    PpufParams p;
    p.node_count = 10;
    p.grid_size = 4;
    puf = std::make_unique<MaxFlowPpuf>(p, 404);
    model = std::make_unique<SimulationModel>(*puf);
  }

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

TEST_F(ProtocolFaults, VerifierRejectsMalformedReportsWithoutThrowing) {
  const protocol::Verifier verifier(*model, 1e-3, tolerance());
  const Challenge c = verifier.issue_challenge(rng);
  const protocol::ProverReport good = protocol::prove_with_ppuf(*puf, c, 1e-6);
  ASSERT_TRUE(verifier.verify(c, good).accepted);

  auto expect_rejected = [&](protocol::ProverReport bad,
                             const char* needle) {
    protocol::AuthenticationResult r;
    ASSERT_NO_THROW(r = verifier.verify(c, bad));
    EXPECT_FALSE(r.accepted);
    EXPECT_NE(r.detail.find(needle), std::string::npos) << r.detail;
  };

  protocol::ProverReport truncated = good;
  truncated.edge_flow_a.resize(3);
  expect_rejected(truncated, "entries");

  protocol::ProverReport oversized = good;
  oversized.edge_flow_b.resize(oversized.edge_flow_b.size() + 7, 0.0);
  expect_rejected(oversized, "entries");

  protocol::ProverReport poisoned = good;
  poisoned.edge_flow_b[2] = kNan;
  expect_rejected(poisoned, "non-finite");

  protocol::ProverReport nan_flow = good;
  nan_flow.flow_a = kNan;
  expect_rejected(nan_flow, "flow_a");

  protocol::ProverReport time_traveller = good;
  time_traveller.elapsed_seconds = -1.0;
  expect_rejected(time_traveller, "elapsed_seconds");

  protocol::ProverReport weird_bit = good;
  weird_bit.bit = 7;
  expect_rejected(weird_bit, "bit");
}

TEST_F(ProtocolFaults, DelayedProverReportMissesTheDeadline) {
  const double deadline = 1e-3;
  const protocol::Verifier verifier(*model, deadline, tolerance());
  const Challenge c = verifier.issue_challenge(rng);
  const protocol::ProverReport on_time = protocol::prove_with_ppuf(*puf, c, 1e-6);
  const protocol::ProverReport late =
      testing::FaultInjector::delay_report(on_time, 10.0 * deadline);
  const protocol::AuthenticationResult r = verifier.verify(c, late);
  EXPECT_FALSE(r.accepted);
  EXPECT_FALSE(r.in_time);
  EXPECT_NE(r.detail.find("deadline"), std::string::npos);
}

TEST_F(ProtocolFaults, ChainVerifierRejectsMalformedRoundBit) {
  const protocol::Verifier verifier(*model, 1e-3, tolerance());
  const Challenge first = verifier.issue_challenge(rng);
  protocol::ChainedReport report =
      protocol::prove_chain_with_ppuf(*puf, first, 3, 99, 1e-6);
  report.rounds[1].bit = -5;  // feeds the chain derivation if unchecked
  protocol::ChainedVerifyResult r;
  ASSERT_NO_THROW(r = protocol::verify_chain(verifier, *model, first, 3, 99,
                                             report, 0, rng));
  EXPECT_FALSE(r.accepted);
  EXPECT_NE(r.detail.find("bit"), std::string::npos);
}

TEST_F(ProtocolFaults, SimulatedProverStopsAtDeadlineWithTypedStatus) {
  const Challenge c = random_challenge(puf->layout(), rng);
  util::SolveControl control;
  control.deadline = util::Deadline::after_seconds(0.0);
  const protocol::ProverReport r = protocol::prove_by_simulation(
      *model, c, maxflow::Algorithm::kPushRelabel, control);
  EXPECT_EQ(r.status.code(), util::StatusCode::kDeadlineExceeded);

  const protocol::ChainedReport chain = protocol::prove_chain_by_simulation(
      *model, c, 4, 1, maxflow::Algorithm::kPushRelabel, control);
  EXPECT_EQ(chain.status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_LT(chain.rounds.size(), 4u);
}

// ----------------------------------------------------------- determinism

TEST(FaultInjectorDeterminism, SameSeedSameCorruption) {
  circuit::Netlist net;
  const circuit::NodeId a = net.add_node();
  const circuit::NodeId b = net.add_node();
  net.add_mosfet(a, b, circuit::kGround, circuit::MosfetParams{});
  net.add_mosfet(b, a, circuit::kGround, circuit::MosfetParams{});
  net.add_resistor(a, b, 1e4);

  testing::FaultInjector first(1234);
  testing::FaultInjector second(1234);
  testing::FaultInjector other(77);
  const circuit::Netlist n1 = first.perturb_devices(net, 0.05, 0.1);
  const circuit::Netlist n2 = second.perturb_devices(net, 0.05, 0.1);
  const circuit::Netlist n3 = other.perturb_devices(net, 0.05, 0.1);
  for (std::size_t i = 0; i < n1.mosfets().size(); ++i) {
    EXPECT_DOUBLE_EQ(n1.mosfets()[i].params.vth, n2.mosfets()[i].params.vth);
    EXPECT_NE(n1.mosfets()[i].params.vth, net.mosfets()[i].params.vth);
  }
  EXPECT_DOUBLE_EQ(n1.resistors()[0].resistance,
                   n2.resistors()[0].resistance);
  EXPECT_NE(n1.mosfets()[0].params.vth, n3.mosfets()[0].params.vth);

  EXPECT_EQ(testing::FaultInjector(5).pick_indices(100, 10),
            testing::FaultInjector(5).pick_indices(100, 10));
}

}  // namespace
}  // namespace ppuf
