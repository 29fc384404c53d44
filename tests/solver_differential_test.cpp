// Cross-solver differential testing.
//
// Max-flow is unique in VALUE but not in flow assignment, which makes it a
// perfect differential-testing target: five independent implementations
// (Edmonds-Karp, Dinic, push-relabel, the phase-synchronous parallel
// push-relabel, and the capacity-scaling approximate solver at eps = 0)
// must report the same value on the same instance, and every one of their
// flow assignments must pass the residual-graph verifier.  A bug in any
// one solver — or in the verifier — breaks the agreement on some seeded
// random instance long before it would surface in a PPUF-level test.
//
// The flat K_n kernel that serves PREDICT and VERIFY is held to a stricter
// standard against its Digraph oracle: push-relabel must agree bit for bit
// (value, every edge flow, work count, obs counters), and verification must
// agree on the verdict, the value and the reason text.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "graph/complete.hpp"
#include "graph/digraph.hpp"
#include "maxflow/approximate.hpp"
#include "maxflow/complete_kernel.hpp"
#include "maxflow/parallel_push_relabel.hpp"
#include "maxflow/push_relabel.hpp"
#include "maxflow/solver.hpp"
#include "maxflow/verify.hpp"
#include "obs/metrics.hpp"
#include "ppuf/sim_model.hpp"
#include "util/rng.hpp"

namespace ppuf::maxflow {
namespace {

/// One named flow answer (value + assignment) from one of the five
/// implementations.
struct SolverAnswer {
  std::string name;
  double value = 0.0;
  std::vector<double> edge_flow;
};

/// Run all five implementations on one instance.
std::vector<SolverAnswer> all_answers(const graph::FlowProblem& problem) {
  std::vector<SolverAnswer> answers;
  for (const Algorithm a : all_algorithms()) {
    const auto solver = make_solver(a);
    const FlowResult r = solver->solve(problem);
    EXPECT_TRUE(r.ok()) << solver->name();
    answers.push_back({solver->name(), r.value, r.edge_flow});
  }
  {
    const ParallelPushRelabel solver(2);
    const FlowResult r = solver.solve(problem);
    EXPECT_TRUE(r.ok()) << solver.name();
    answers.push_back({solver.name(), r.value, r.edge_flow});
  }
  {
    // eps = 0 reduces capacity scaling to an exact algorithm.
    const ApproximateResult r = solve_approximate(problem, 0.0);
    EXPECT_TRUE(r.ok()) << "approximate(0)";
    answers.push_back({"approximate(0)", r.value, r.edge_flow});
  }
  return answers;
}

/// Largest capacity of the instance; scales both the agreement and the
/// verification tolerance so the checks are meaningful at any magnitude.
double max_capacity(const graph::Digraph& g) {
  double m = 0.0;
  for (const auto& e : g.edges()) m = std::max(m, e.capacity);
  return m;
}

/// The differential assertion: every implementation agrees on the value
/// and every flow assignment verifies as feasible and maximum.
void expect_all_agree(const graph::Digraph& g, graph::VertexId source,
                      graph::VertexId sink, const std::string& label) {
  const graph::FlowProblem problem{&g, source, sink};
  const std::vector<SolverAnswer> answers = all_answers(problem);
  const double scale = std::max(1.0, max_capacity(g));
  const double value_tol = 1e-9 * scale;
  const double verify_tol = 1e-9 * scale;

  const double reference = answers.front().value;
  for (const SolverAnswer& a : answers) {
    EXPECT_NEAR(a.value, reference, value_tol)
        << label << ": " << a.name << " disagrees with "
        << answers.front().name;
    const VerifyResult v =
        verify_flow(g, source, sink, a.edge_flow, verify_tol);
    EXPECT_TRUE(v.optimal)
        << label << ": " << a.name << " flow rejected: " << v.reason;
    EXPECT_NEAR(v.value, a.value, value_tol) << label << ": " << a.name;
  }
}

/// Random digraph: every ordered pair gets an edge with probability
/// `edge_prob`; capacities drawn by `cap` (zero-capacity edges included on
/// purpose — they must be handled, not special-cased away).
template <typename CapFn>
graph::Digraph random_graph(std::size_t n, double edge_prob, util::Rng& rng,
                            CapFn&& cap) {
  graph::Digraph g(n);
  for (graph::VertexId i = 0; i < n; ++i) {
    for (graph::VertexId j = 0; j < n; ++j) {
      if (i == j) continue;
      if (rng.uniform() < edge_prob) g.add_edge(i, j, cap(rng));
    }
  }
  g.finalize();
  return g;
}

TEST(SolverDifferential, SparseGraphsUniformCapacities) {
  for (const std::size_t n : {4u, 8u, 16u}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      util::Rng rng(seed * 1000 + n);
      const graph::Digraph g = random_graph(
          n, 0.35, rng, [](util::Rng& r) { return r.uniform(0.0, 1.0); });
      expect_all_agree(g, 0, static_cast<graph::VertexId>(n - 1),
                       "sparse n=" + std::to_string(n) + " seed=" +
                           std::to_string(seed));
    }
  }
}

TEST(SolverDifferential, ZeroCapacityEdgesPresent) {
  // ~30% of edges carry capacity exactly 0: present in the graph, useless
  // for flow.  Solvers must neither push along them nor crash on them.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    util::Rng rng(seed);
    const graph::Digraph g =
        random_graph(10, 0.5, rng, [](util::Rng& r) {
          return r.uniform() < 0.3 ? 0.0 : r.uniform(0.0, 2.0);
        });
    expect_all_agree(g, 0, 9, "zero-cap seed=" + std::to_string(seed));
  }
}

TEST(SolverDifferential, IntegerCapacitiesWithTies) {
  // Small integer capacities create many saturated edges and tied
  // augmenting choices — the regime where implementations most plausibly
  // diverge in assignment while the value must stay identical.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    util::Rng rng(100 + seed);
    const graph::Digraph g =
        random_graph(8, 0.6, rng, [](util::Rng& r) {
          return static_cast<double>(r.uniform_int(0, 3));
        });
    expect_all_agree(g, 0, 7, "integer seed=" + std::to_string(seed));
  }
}

TEST(SolverDifferential, WideDynamicRangeCapacities) {
  // Capacities spanning twelve decades (nano-ampere physics next to unit
  // scale) probe the relative-epsilon handling of every solver.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    util::Rng rng(200 + seed);
    const graph::Digraph g =
        random_graph(8, 0.5, rng, [](util::Rng& r) {
          return std::pow(10.0, r.uniform(-9.0, 3.0));
        });
    expect_all_agree(g, 0, 7, "wide-range seed=" + std::to_string(seed));
  }
}

TEST(SolverDifferential, CompleteGraphsAsInPpufInstances) {
  // The PPUF instantiates complete graphs; run the full roster on the
  // exact shape the production path solves.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    util::Rng rng(300 + seed);
    const graph::Digraph g = random_graph(
        8, 1.0, rng, [](util::Rng& r) { return r.uniform(1e-9, 40e-9); });
    expect_all_agree(g, 1, 6, "complete seed=" + std::to_string(seed));
  }
}

TEST(SolverDifferential, DisconnectedSourceSinkPair) {
  // Two cliques with no edges between them: max flow is exactly zero and
  // every solver must say so.
  graph::Digraph g(8);
  for (graph::VertexId i = 0; i < 4; ++i)
    for (graph::VertexId j = 0; j < 4; ++j)
      if (i != j) g.add_edge(i, j, 1.0);
  for (graph::VertexId i = 4; i < 8; ++i)
    for (graph::VertexId j = 4; j < 8; ++j)
      if (i != j) g.add_edge(i, j, 1.0);
  g.finalize();
  const graph::FlowProblem problem{&g, 0, 7};
  for (const SolverAnswer& a : all_answers(problem))
    EXPECT_EQ(a.value, 0.0) << a.name;
}

TEST(SolverDifferential, InstrumentationCountsEverySolverOnce) {
  // Running the full roster with the registry enabled must populate each
  // solver's solves/work counters — an instrumentation point silently
  // dropped from one solver is itself a differential bug.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.set_enabled(true);
  reg.reset();

  util::Rng rng(424);
  const graph::Digraph g = random_graph(
      10, 0.6, rng, [](util::Rng& r) { return r.uniform(0.1, 2.0); });
  const graph::FlowProblem problem{&g, 0, 9};
  (void)all_answers(problem);

  for (const char* name :
       {"maxflow.edmonds_karp", "maxflow.dinic", "maxflow.push_relabel",
        "maxflow.parallel_push_relabel", "maxflow.approximate"}) {
    const std::string base(name);
    EXPECT_GE(reg.counter_value(base + ".solves"), 1u) << name;
    EXPECT_GT(reg.counter_value(base + ".work"), 0u) << name;
    EXPECT_GE(reg.histogram_snapshot(base + ".solve_time_us").count, 1u)
        << name;
  }
  reg.set_enabled(false);
  reg.reset();
}

TEST(SolverDifferential, SaturatedBottleneckChain) {
  // A chain with one narrow edge: the value is the bottleneck capacity and
  // the bottleneck edge must be saturated in every assignment.
  graph::Digraph g(5);
  g.add_edge(0, 1, 10.0);
  const graph::EdgeId bottleneck = g.add_edge(1, 2, 0.125);
  g.add_edge(2, 3, 10.0);
  g.add_edge(3, 4, 10.0);
  g.add_edge(0, 2, 0.0);  // zero-capacity shortcut, unusable
  g.finalize();
  const graph::FlowProblem problem{&g, 0, 4};
  for (const SolverAnswer& a : all_answers(problem)) {
    EXPECT_NEAR(a.value, 0.125, 1e-12) << a.name;
    ASSERT_EQ(a.edge_flow.size(), g.edge_count()) << a.name;
    EXPECT_NEAR(a.edge_flow[bottleneck], 0.125, 1e-12) << a.name;
  }
  expect_all_agree(g, 0, 4, "bottleneck-chain");
}

/// A public model from seeded capacities (no circuit characterisation):
/// two nano-ampere levels per edge and network, one per input bit.
SimulationModel seeded_model(std::size_t n, std::size_t grid,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  const CrossbarLayout layout(n, grid);
  std::array<std::vector<std::array<double, 2>>, 2> caps;
  for (auto& net : caps) {
    net.resize(layout.edge_count());
    for (auto& levels : net)
      levels = {rng.uniform(1e-9, 40e-9), rng.uniform(1e-9, 40e-9)};
  }
  return SimulationModel::restore(layout, std::move(caps), 0.0);
}

/// (source, sink) pairs to cover: all of them up to n = 8, six seeded
/// ones above.
std::vector<std::pair<graph::VertexId, graph::VertexId>> terminal_pairs(
    std::size_t n, util::Rng& rng) {
  std::vector<std::pair<graph::VertexId, graph::VertexId>> pairs;
  if (n <= 8) {
    for (graph::VertexId s = 0; s < n; ++s)
      for (graph::VertexId t = 0; t < n; ++t)
        if (s != t) pairs.emplace_back(s, t);
    return pairs;
  }
  const auto top = static_cast<std::int64_t>(n) - 1;
  while (pairs.size() < 6) {
    const auto s = static_cast<graph::VertexId>(rng.uniform_int(0, top));
    const auto t = static_cast<graph::VertexId>(rng.uniform_int(0, top));
    if (s != t) pairs.emplace_back(s, t);
  }
  return pairs;
}

/// The flat kernel's push-relabel must reproduce the Digraph solver bit
/// for bit: same value, same flow on every edge, same work count.
void expect_flat_matches_digraph(const SimulationModel& model,
                                 const Challenge& c, const std::string& label) {
  const PushRelabel oracle;
  for (int net = 0; net < 2; ++net) {
    const graph::Digraph g = model.build_graph(net, c);
    const FlowResult want = oracle.solve({&g, c.source, c.sink});
    const FlowResult got =
        model.solve(net, c, Algorithm::kPushRelabel, {}, /*edge_flows=*/true);
    ASSERT_TRUE(want.ok()) << label;
    ASSERT_TRUE(got.ok()) << label;
    EXPECT_EQ(got.value, want.value) << label << " net " << net;
    EXPECT_EQ(got.edge_flow, want.edge_flow) << label << " net " << net;
    EXPECT_EQ(got.work, want.work) << label << " net " << net;
  }
}

TEST(SolverDifferential, FlatPushRelabelBitIdenticalToDigraph) {
  for (const std::size_t n : {2u, 3u, 8u, 24u, 32u}) {
    for (const std::size_t grid : {std::size_t{1}, std::size_t{6}, n}) {
      if (grid > n) continue;
      const SimulationModel model = seeded_model(n, grid, 1000 * n + grid);
      util::Rng rng(7 * n + grid);
      for (const auto& [s, t] : terminal_pairs(n, rng)) {
        const Challenge c =
            random_challenge_fixed_ends(model.layout(), s, t, rng);
        expect_flat_matches_digraph(
            model, c,
            "n=" + std::to_string(n) + " grid=" + std::to_string(grid) +
                " s=" + std::to_string(s) + " t=" + std::to_string(t));
      }
    }
  }
}

TEST(SolverDifferential, FlatPushRelabelBitIdenticalOnTiesAndZeros) {
  // Small integer capacities (zeros included) make many pushes tie: the
  // regime where a different arc order would change the assignment.
  const PushRelabel oracle;
  for (const std::size_t n : {3u, 8u, 24u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      util::Rng rng(500 + seed * n);
      const graph::Digraph g = graph::make_complete(
          n, [&](graph::VertexId, graph::VertexId) {
            return static_cast<double>(rng.uniform_int(0, 3));
          });
      const auto t = static_cast<graph::VertexId>(n - 1);
      const FlowResult want = oracle.solve({&g, 0, t});
      CompleteKernel& kernel = CompleteKernel::for_thread(n);
      for (graph::EdgeId e = 0; e < g.edge_count(); ++e)
        kernel.capacities()[e] = g.edge(e).capacity;
      const FlowResult got = kernel.push_relabel(0, t);
      std::vector<double> flows(kernel.edge_count());
      kernel.edge_flows(flows);
      const std::string label =
          "n=" + std::to_string(n) + " seed=" + std::to_string(seed);
      EXPECT_EQ(got.value, want.value) << label;
      EXPECT_EQ(flows, want.edge_flow) << label;
      EXPECT_EQ(got.work, want.work) << label;
    }
  }
}

TEST(SolverDifferential, FlatPushRelabelRejectsMalformedInstances) {
  CompleteKernel& kernel = CompleteKernel::for_thread(4);
  std::fill(kernel.capacities().begin(), kernel.capacities().end(), 1.0);
  EXPECT_THROW(kernel.push_relabel(2, 2), std::invalid_argument);
  EXPECT_THROW(kernel.push_relabel(0, 4), std::invalid_argument);
  kernel.capacities()[5] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(kernel.push_relabel(0, 3), std::invalid_argument);
  kernel.capacities()[5] = -1.0;
  EXPECT_THROW(kernel.push_relabel(0, 3), std::invalid_argument);
}

/// NaN-aware exact equality: a NaN witness entry can make both values NaN.
bool same_double(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

/// Flat verify against verify_flow on one witness.
void expect_same_verdict(const graph::Digraph& g, graph::VertexId s,
                         graph::VertexId t, const std::vector<double>& flow,
                         double tolerance, const std::string& label) {
  const VerifyResult want = verify_flow(g, s, t, flow, tolerance);
  CompleteKernel& kernel = CompleteKernel::for_thread(g.vertex_count());
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e)
    kernel.capacities()[e] = g.edge(e).capacity;
  const VerifyResult got = kernel.verify(s, t, flow, tolerance);
  EXPECT_EQ(got.feasible, want.feasible) << label;
  EXPECT_EQ(got.optimal, want.optimal) << label;
  EXPECT_TRUE(same_double(got.value, want.value))
      << label << ": " << got.value << " vs " << want.value;
  EXPECT_EQ(got.reason, want.reason) << label;
}

TEST(SolverDifferential, FlatVerifyMatchesVerifyFlow) {
  for (const std::size_t n : {3u, 8u, 24u}) {
    const SimulationModel model = seeded_model(n, std::min<std::size_t>(6, n),
                                               77 + n);
    util::Rng rng(99 + n);
    for (const auto& [s, t] : terminal_pairs(n, rng)) {
      const Challenge c = random_challenge_fixed_ends(model.layout(), s, t,
                                                      rng);
      const graph::Digraph g = model.build_graph(0, c);
      const std::vector<double> honest =
          PushRelabel().solve({&g, s, t}).edge_flow;
      const double cap_scale = 40e-9;
      const std::string base = "n=" + std::to_string(n) +
                               " s=" + std::to_string(s) +
                               " t=" + std::to_string(t);
      // Internal vertex with flow arriving straight from the source: a
      // place where dropping that flow breaks conservation.
      graph::VertexId inner = graph::kInvalidVertex;
      for (graph::VertexId v = 0; v < n; ++v) {
        if (v == s || v == t) continue;
        if (honest[graph::complete_edge_id(n, s, v)] > 1e-3 * cap_scale) {
          inner = v;
          break;
        }
      }
      const graph::EdgeId mid =
          static_cast<graph::EdgeId>(g.edge_count() / 2);
      // A saturated edge: where measurement noise can read above capacity.
      graph::EdgeId sat = 0;
      while (sat + 1 < g.edge_count() &&
             !(honest[sat] > 0.0 && honest[sat] == g.edge(sat).capacity))
        ++sat;

      for (const double tolerance : {1e-9 * cap_scale, 0.1 * cap_scale}) {
        const std::string label =
            base + " tol=" + std::to_string(tolerance / cap_scale);
        expect_same_verdict(g, s, t, honest, tolerance, label + " honest");

        // Measurement noise: over capacity, but within the tolerance.
        std::vector<double> noisy = honest;
        noisy[sat] = g.edge(sat).capacity + 0.5 * tolerance;
        expect_same_verdict(g, s, t, noisy, tolerance, label + " noisy");

        std::vector<double> over = honest;
        over[mid] = g.edge(mid).capacity + 0.5 * cap_scale;
        expect_same_verdict(g, s, t, over, tolerance, label + " over-cap");

        std::vector<double> negative = honest;
        negative[mid] = -0.5 * cap_scale;
        expect_same_verdict(g, s, t, negative, tolerance,
                            label + " negative");

        if (inner != graph::kInvalidVertex) {
          std::vector<double> leaky = honest;
          leaky[graph::complete_edge_id(n, s, inner)] = 0.0;
          expect_same_verdict(g, s, t, leaky, tolerance,
                              label + " conservation");
        }

        std::vector<double> half = honest;
        for (double& f : half) f *= 0.5;
        expect_same_verdict(g, s, t, half, tolerance, label + " half");

        std::vector<double> nan = honest;
        nan[mid] = std::numeric_limits<double>::quiet_NaN();
        expect_same_verdict(g, s, t, nan, tolerance, label + " nan");
      }

      // At a tight tolerance each forgery trips its intended check, so the
      // agreement above is not vacuous.
      const double tight = 1e-9 * cap_scale;
      CompleteKernel& kernel = CompleteKernel::for_thread(n);
      std::vector<double> noisy = honest;
      noisy[sat] = g.edge(sat).capacity + 0.5 * tight;
      EXPECT_TRUE(kernel.verify(s, t, noisy, tight).optimal) << base;
      std::vector<double> over = honest;
      over[mid] = g.edge(mid).capacity + 0.5 * cap_scale;
      EXPECT_EQ(kernel.verify(s, t, over, tight).reason.rfind(
                    "capacity violated", 0),
                0u)
          << base;
      if (inner != graph::kInvalidVertex) {
        std::vector<double> leaky = honest;
        leaky[graph::complete_edge_id(n, s, inner)] = 0.0;
        EXPECT_EQ(kernel.verify(s, t, leaky, tight).reason.rfind(
                      "conservation violated", 0),
                  0u)
            << base;
      }
      std::vector<double> half = honest;
      for (double& f : half) f *= 0.5;
      const VerifyResult v = kernel.verify(s, t, half, tight);
      EXPECT_TRUE(v.feasible) << base;
      EXPECT_FALSE(v.optimal) << base;
    }
  }
}

TEST(SolverDifferential, FlatVerifyFollowsBackwardArcs) {
  // K_4 where only 0->1, 0->2, 1->2, 1->3 and 2->3 carry capacity.  The
  // witness routes one unit 0->1->2->3; the only augmenting path left,
  // 0->2->1->3, cancels flow on 1->2, so a verifier that ignored backward
  // residual arcs would accept this non-maximum flow.
  const graph::Digraph g =
      graph::make_complete(4, [](graph::VertexId i, graph::VertexId j) {
        const bool used = (i == 0 && (j == 1 || j == 2)) ||
                          (i == 1 && (j == 2 || j == 3)) ||
                          (i == 2 && j == 3);
        return used ? 1.0 : 0.0;
      });
  std::vector<double> flow(g.edge_count(), 0.0);
  for (const auto& [i, j] : {std::pair{0u, 1u}, {1u, 2u}, {2u, 3u}})
    flow[graph::complete_edge_id(4, i, j)] = 1.0;
  expect_same_verdict(g, 0, 3, flow, 1e-9, "backward arc");
  const VerifyResult v = CompleteKernel::for_thread(4).verify(0, 3, flow, 1e-9);
  EXPECT_TRUE(v.feasible);
  EXPECT_FALSE(v.optimal);
  EXPECT_EQ(v.value, 1.0);
}

TEST(SolverDifferential, FlatPushRelabelEmitsTheSameObsCounters) {
  // perfbench's maxflow.push_relabel.* layer metrics must mean the same
  // thing whichever path solved: equal counter deltas, one timing sample.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const SimulationModel model = seeded_model(24, 6, 2024);
  util::Rng rng(5);
  const Challenge c = random_challenge(model.layout(), rng);
  const graph::Digraph g = model.build_graph(1, c);
  const std::vector<std::string> names = {
      "maxflow.push_relabel.solves", "maxflow.push_relabel.work",
      "maxflow.push_relabel.discharges", "maxflow.push_relabel.relabels",
      "maxflow.push_relabel.global_relabels"};
  auto counters = [&] {
    std::vector<std::uint64_t> values;
    for (const std::string& name : names)
      values.push_back(reg.counter_value(name));
    values.push_back(
        reg.histogram_snapshot("maxflow.push_relabel.solve_time_us").count);
    return values;
  };

  reg.set_enabled(true);
  reg.reset();
  (void)PushRelabel().solve({&g, c.source, c.sink});
  const std::vector<std::uint64_t> oracle = counters();
  reg.reset();
  (void)model.solve(1, c, Algorithm::kPushRelabel);
  const std::vector<std::uint64_t> flat = counters();
  reg.set_enabled(false);
  reg.reset();

  EXPECT_EQ(oracle[0], 1u);
  EXPECT_GT(oracle[4], 0u) << "instance too easy to exercise global relabel";
  EXPECT_EQ(oracle.back(), 1u);
  for (std::size_t i = 0; i < names.size(); ++i)
    EXPECT_EQ(flat[i], oracle[i]) << names[i];
  EXPECT_EQ(flat.back(), oracle.back()) << "solve_time_us count";
}

}  // namespace
}  // namespace ppuf::maxflow
