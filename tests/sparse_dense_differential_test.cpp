// Sparse-vs-dense differential layer for the MNA linear core.
//
// The Newton loop inside the DC solver assembles into a slot-replayed
// sparse matrix and factors with the Gilbert-Peierls LU by default; the
// original dense LU is kept behind DcOptions::use_dense_solver as the
// oracle.  This suite pins the two paths against each other at every
// level that matters:
//
//   * raw netlists      - node voltages and source currents agree within
//                         solver tolerance on seeded random circuits;
//   * whole devices     - response BITS are identical when an entire
//                         MaxFlowPpuf is characterised through either path;
//   * warm starts       - opt-in warm-started evaluation (chained auth)
//                         returns the same bits as cold evaluation, and
//                         prove_chain_with_ppuf matches a cold per-round
//                         replay exactly;
//   * concurrency       - many threads characterising same-topology
//                         netlists through ONE shared SymbolicCache agree
//                         with the dense oracle (the TSan target);
//   * degenerate input  - a structurally singular netlist yields a typed
//                         non-converged OperatingPoint from both paths,
//                         never a throw (the Status-ladder regression).
//
// Any divergence — a wrong slot in the replay map, a bad pivot in the
// sparse LU, a stale symbolic analysis, a torn cache entry — fails here on
// a reproducible seed long before it could silently shift a response bit.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuit/dc.hpp"
#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "ppuf/feedback.hpp"
#include "ppuf/ppuf.hpp"
#include "ppuf/response_cache.hpp"
#include "protocol/authentication.hpp"
#include "registry/device_registry.hpp"
#include "registry/hydration_cache.hpp"
#include "util/rng.hpp"
#include "test_dirs.hpp"

namespace ppuf {
namespace {

/// Seeded random netlist mixing every stampable device kind.  A resistor
/// spine keeps the circuit connected; diodes, a MOSFET, and a current
/// source make the Jacobian genuinely nonlinear and asymmetric.
circuit::Netlist random_netlist(util::Rng& rng, std::size_t node_count) {
  circuit::Netlist nl;
  std::vector<circuit::NodeId> nodes;
  nodes.push_back(circuit::kGround);
  for (std::size_t i = 0; i < node_count; ++i)
    nodes.push_back(nl.add_node());

  nl.add_voltage_source(nodes[1], circuit::kGround, rng.uniform(1.0, 2.5));
  for (std::size_t i = 2; i < nodes.size(); ++i)
    nl.add_resistor(nodes[i], nodes[i - 1], rng.uniform(1e3, 1e4));
  // Random chords (moderate conductances keep the Jacobian well
  // conditioned, so "solver tolerance" is a meaningful agreement bound).
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (rng.uniform() < 0.25)
        nl.add_resistor(nodes[i], nodes[j], rng.uniform(1e3, 1e4));
    }
  }
  if (node_count >= 3) {
    circuit::DiodeParams dp;
    dp.saturation_current = rng.uniform(0.5e-11, 2e-11);
    nl.add_diode(nodes[2], circuit::kGround, dp);
    nl.add_diode(nodes[node_count], nodes[1], dp);
  }
  if (node_count >= 4) {
    circuit::MosfetParams mp;
    mp.vth = rng.uniform(0.35, 0.45);
    nl.add_mosfet(nodes[3], nodes[2], circuit::kGround, mp);
  }
  nl.add_current_source(nodes[1], nodes[nodes.size() - 1],
                        rng.uniform(1e-6, 1e-5));
  return nl;
}

/// Solve one netlist through both linear cores and diff everything the
/// caller of a DC solve can observe.  Returns false (and records gtest
/// failures unless `quiet`) on any divergence.
bool diff_one_netlist(const circuit::Netlist& nl, const std::string& label,
                      std::shared_ptr<circuit::SymbolicCache> cache = nullptr,
                      bool quiet = false) {
  circuit::DcOptions dense_opts;
  dense_opts.use_dense_solver = true;
  circuit::DcOptions sparse_opts;
  sparse_opts.use_dense_solver = false;
  sparse_opts.symbolic_cache = std::move(cache);

  const circuit::OperatingPoint d = circuit::DcSolver(nl, dense_opts).solve();
  const circuit::OperatingPoint s = circuit::DcSolver(nl, sparse_opts).solve();

  bool ok = d.converged && s.converged;
  if (!quiet) {
    EXPECT_TRUE(d.converged) << label << ": dense did not converge";
    EXPECT_TRUE(s.converged) << label << ": sparse did not converge";
  }
  if (!ok) return false;

  // Both points satisfy |dV| < 1e-8 and |KCL| < 1e-11 A against the SAME
  // equations; with ~mS conductances that bounds their separation well
  // under a microvolt.
  constexpr double kVoltTol = 1e-6;
  for (std::size_t n = 0; n < nl.node_count(); ++n) {
    const double dv = std::abs(d.node_voltage.at(n) - s.node_voltage.at(n));
    if (dv > kVoltTol) ok = false;
    if (!quiet) {
      EXPECT_LE(dv, kVoltTol)
          << label << ": node " << n << " dense=" << d.node_voltage.at(n)
          << " sparse=" << s.node_voltage.at(n);
    }
  }
  for (std::size_t h = 0; h < nl.voltage_source_count(); ++h) {
    const double di =
        std::abs(d.vsource_current.at(h) - s.vsource_current.at(h));
    const double tol = 1e-9 + 1e-6 * std::abs(d.vsource_current.at(h));
    if (di > tol) ok = false;
    if (!quiet) {
      EXPECT_LE(di, tol) << label << ": vsource " << h;
    }
  }
  return ok;
}

TEST(SparseDenseDifferential, RandomNetlistsAgreeOnEveryObservable) {
  for (const std::size_t n : {2u, 4u, 7u, 12u, 20u}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      util::Rng rng(seed * 1000 + n);
      const circuit::Netlist nl = random_netlist(rng, n);
      diff_one_netlist(nl, "n=" + std::to_string(n) +
                               " seed=" + std::to_string(seed));
    }
  }
}

TEST(SparseDenseDifferential, SharedCacheNetlistsMatchUncachedSparse) {
  // The same netlists again, but with every sparse solve routed through a
  // single SymbolicCache: cache hits must be bit-for-bit equivalent to a
  // private analysis.  Topologies differ per instance, so the cache ends
  // up holding one structure per distinct topology key.
  auto cache = std::make_shared<circuit::SymbolicCache>();
  std::size_t solved = 0;
  for (const std::size_t n : {4u, 7u, 12u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      util::Rng rng(seed * 1000 + n);
      const circuit::Netlist nl = random_netlist(rng, n);
      diff_one_netlist(nl,
                       "cached n=" + std::to_string(n) + " seed=" +
                           std::to_string(seed),
                       cache);
      ++solved;
    }
  }
  EXPECT_GE(cache->size(), 1u);
  EXPECT_LE(cache->size(), solved);
}

// --- whole-device bit-level agreement -------------------------------------

std::vector<MaxFlowPpuf::Evaluation> device_evaluations(
    std::uint64_t fab_seed, std::uint64_t challenge_seed, std::size_t count,
    bool dense_solver) {
  PpufParams params;
  params.node_count = 6;
  params.grid_size = 4;
  MaxFlowPpuf puf(params, fab_seed);
  puf.set_dense_solver(dense_solver);
  util::Rng rng(challenge_seed);
  std::vector<MaxFlowPpuf::Evaluation> out;
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(puf.evaluate(random_challenge(puf.layout(), rng)));
  return out;
}

TEST(SparseDenseDifferential, DeviceResponseBitsIdenticalAcrossPaths) {
  // Fabricate the SAME instance twice — once characterised through the
  // sparse core, once through the dense oracle — and demand identical
  // response bits on a shared challenge stream.  The analog currents may
  // differ at solver tolerance; the bits may not differ at all.
  constexpr std::uint64_t kFab = 2718;
  constexpr std::uint64_t kChal = 42;
  constexpr std::size_t kCount = 16;

  const auto sparse = device_evaluations(kFab, kChal, kCount, false);
  const auto dense = device_evaluations(kFab, kChal, kCount, true);
  ASSERT_EQ(sparse.size(), dense.size());
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(sparse[i].converged) << "crp " << i;
    ASSERT_TRUE(dense[i].converged) << "crp " << i;
    EXPECT_EQ(sparse[i].bit, dense[i].bit) << "response bit drift, crp " << i;
    EXPECT_NEAR(sparse[i].current_a, dense[i].current_a,
                1e-12 + 1e-6 * std::abs(dense[i].current_a))
        << "crp " << i;
    EXPECT_NEAR(sparse[i].current_b, dense[i].current_b,
                1e-12 + 1e-6 * std::abs(dense[i].current_b))
        << "crp " << i;
  }
}

// --- warm start vs cold start ---------------------------------------------

TEST(SparseDenseDifferential, WarmStartedEvaluationKeepsColdBits) {
  PpufParams params;
  params.node_count = 6;
  params.grid_size = 4;
  MaxFlowPpuf puf(params, 1234);

  util::Rng rng(99);
  std::vector<Challenge> challenges;
  for (int i = 0; i < 12; ++i)
    challenges.push_back(random_challenge(puf.layout(), rng));

  std::vector<MaxFlowPpuf::Evaluation> cold;
  for (const Challenge& c : challenges) cold.push_back(puf.evaluate(c));

  ASSERT_FALSE(puf.warm_start_enabled());
  puf.set_warm_start(true);
  std::vector<MaxFlowPpuf::Evaluation> warm;
  for (const Challenge& c : challenges) warm.push_back(puf.evaluate(c));
  puf.set_warm_start(false);

  for (std::size_t i = 0; i < challenges.size(); ++i) {
    EXPECT_EQ(cold[i].bit, warm[i].bit) << "warm-start bit drift, round " << i;
    EXPECT_NEAR(cold[i].current_a, warm[i].current_a, 1e-12) << "round " << i;
    EXPECT_NEAR(cold[i].current_b, warm[i].current_b, 1e-12) << "round " << i;
  }

  // Cold evaluation stays bitwise repeatable after the warm interlude (the
  // stored operating point was discarded when warm-start was disabled).
  const MaxFlowPpuf::Evaluation again = puf.evaluate(challenges.front());
  EXPECT_DOUBLE_EQ(again.current_a, cold.front().current_a);
  EXPECT_DOUBLE_EQ(again.current_b, cold.front().current_b);
}

TEST(SparseDenseDifferential, ChainedAuthMatchesColdPerRoundReplay) {
  // prove_chain_with_ppuf warm-starts each round from the previous one.
  // Replaying the chain cold on a freshly fabricated identical instance
  // must reproduce every bit — and hence the same challenge chain, since
  // C_{i+1} depends on R_i.
  PpufParams params;
  params.node_count = 6;
  params.grid_size = 4;
  constexpr std::uint64_t kSeed = 5151;
  constexpr std::uint64_t kNonce = 77;
  constexpr std::size_t kRounds = 6;

  MaxFlowPpuf chained(params, kSeed);
  util::Rng rng(3);
  const Challenge first = random_challenge(chained.layout(), rng);
  const protocol::ChainedReport report =
      protocol::prove_chain_with_ppuf(chained, first, kRounds, kNonce, 1e-9);
  ASSERT_TRUE(report.status.is_ok());
  ASSERT_EQ(report.rounds.size(), kRounds);
  // The chain scope restored the instance's cold-start mode.
  EXPECT_FALSE(chained.warm_start_enabled());

  MaxFlowPpuf cold(params, kSeed);
  Challenge c = first;
  for (std::size_t i = 0; i < kRounds; ++i) {
    const protocol::ProverReport round = protocol::prove_with_ppuf(cold, c, 1e-9);
    EXPECT_EQ(round.bit, report.rounds[i].bit) << "chain round " << i;
    EXPECT_NEAR(round.flow_a, report.rounds[i].flow_a,
                1e-12 + 1e-6 * std::abs(round.flow_a))
        << "chain round " << i;
    EXPECT_NEAR(round.flow_b, report.rounds[i].flow_b,
                1e-12 + 1e-6 * std::abs(round.flow_b))
        << "chain round " << i;
    c = next_challenge(cold.layout(), c, round.bit, kNonce);
  }
}

// --- concurrent shared symbolic cache (the TSan target) -------------------

/// Fixed topology, rng-drawn values: every instance hits the same
/// SymbolicCache entry.
circuit::Netlist fixed_topology_netlist(util::Rng& rng) {
  circuit::Netlist nl;
  std::vector<circuit::NodeId> n;
  n.push_back(circuit::kGround);
  for (int i = 0; i < 6; ++i) n.push_back(nl.add_node());
  nl.add_voltage_source(n[1], circuit::kGround, rng.uniform(1.2, 1.8));
  for (int i = 1; i <= 5; ++i)
    nl.add_resistor(n[i], n[i + 1], rng.uniform(2e3, 8e3));
  nl.add_resistor(n[6], circuit::kGround, rng.uniform(2e3, 8e3));
  nl.add_resistor(n[2], n[5], rng.uniform(2e3, 8e3));
  circuit::DiodeParams dp;
  dp.saturation_current = rng.uniform(0.5e-11, 2e-11);
  nl.add_diode(n[3], circuit::kGround, dp);
  circuit::MosfetParams mp;
  mp.vth = rng.uniform(0.35, 0.45);
  nl.add_mosfet(n[4], n[2], circuit::kGround, mp);
  nl.add_current_source(n[1], n[5], rng.uniform(1e-6, 5e-6));
  return nl;
}

TEST(SparseDenseDifferential, ConcurrentSolversShareOneSymbolicAnalysis) {
  // 8 threads x 4 same-topology netlists, all routed through ONE cache:
  // the first thread to finish its analysis publishes it, everyone else
  // replays it.  Divergence from the dense oracle under any interleaving
  // is a real race.  gtest assertions are not thread-safe, so workers
  // count failures and the main thread asserts.
  auto cache = std::make_shared<circuit::SymbolicCache>();
  constexpr int kThreads = 8;
  constexpr int kSolvesPerThread = 4;
  std::atomic<int> divergences{0};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &cache, &divergences] {
      for (int rep = 0; rep < kSolvesPerThread; ++rep) {
        util::Rng rng(1000 + 17 * t + rep);
        const circuit::Netlist nl = fixed_topology_netlist(rng);
        if (!diff_one_netlist(nl, "", cache, /*quiet=*/true))
          divergences.fetch_add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(divergences.load(), 0);
  // One topology -> exactly one cached structure, no duplicate insert won.
  EXPECT_EQ(cache->size(), 1u);
}

// --- degenerate input: typed non-convergence, never a throw ---------------

TEST(SparseDenseDifferential, SingularNetlistReturnsTypedNonConvergence) {
  // Two voltage sources pin the same node to different values: the MNA
  // matrix has two identical branch rows and is structurally singular at
  // every recovery rung.  Historically the dense LU threw std::runtime_error
  // from deep inside Newton; both cores now report through the Status
  // ladder and the solver returns a typed non-converged OperatingPoint —
  // exactly what a serving worker can survive.
  circuit::Netlist nl;
  const circuit::NodeId a = nl.add_node();
  nl.add_voltage_source(a, circuit::kGround, 1.0);
  nl.add_voltage_source(a, circuit::kGround, 2.0);

  for (const bool dense : {true, false}) {
    circuit::DcOptions opts;
    opts.use_dense_solver = dense;
    const circuit::DcSolver solver(nl, opts);
    circuit::OperatingPoint op;
    ASSERT_NO_THROW(op = solver.solve())
        << (dense ? "dense" : "sparse") << " path threw on singular MNA";
    EXPECT_FALSE(op.converged) << (dense ? "dense" : "sparse");
    EXPECT_FALSE(op.diagnostics.converged) << (dense ? "dense" : "sparse");
    // The ladder ran and recorded its attempts instead of aborting.
    EXPECT_FALSE(op.diagnostics.stages.empty())
        << (dense ? "dense" : "sparse");
  }
}

// --- serving warm path: registry-hydrated models vs the dense oracle ------

// The serving stack never touches a MaxFlowPpuf directly: enrollment
// characterises through the sparse core (sharing the registry's fleet
// SymbolicCache) and the AuthServer answers from a HydrationCache-
// materialised model, optionally through a device-keyed ResponseCache.
// This test pins that whole warm path against the dense oracle: the
// hydrated model's bits must equal a dense re-characterisation of the same
// silicon, and cached replies (fill pass and hit pass) must be bit- and
// flow-exact with the uncached solve.
TEST(SparseDenseDifferential, HydratedRegistryModelMatchesDenseOracle) {
  registry::DeviceRegistry reg;
  ASSERT_TRUE(reg.open(test::fresh_dir("sdd_registry")).is_ok());

  constexpr std::uint64_t kFabSeed = 8642;
  registry::EnrollRequest req;
  req.node_count = 6;
  req.grid_size = 4;
  req.seed = kFabSeed;
  req.label = "sdd";
  std::uint64_t id = 0;
  ASSERT_TRUE(reg.enroll(req, &id).is_ok());
  // Enrollment went through the sparse core and seeded the fleet cache.
  ASSERT_NE(reg.enroll_symbolic_cache(), nullptr);

  // Dense oracle: re-fabricate the same silicon and characterise every
  // block through the dense LU.
  PpufParams params;
  params.node_count = 6;
  params.grid_size = 4;
  MaxFlowPpuf chip(params, kFabSeed);
  chip.set_dense_solver(true);
  const SimulationModel oracle(chip);

  // Serving path: hydrate through the cache and answer through the
  // device's predict_batch, the call the server's coalesced path makes,
  // with the shared response cache passed per batch as the server does.
  registry::HydrationCache hydration(reg, registry::HydrationCache::Options{});
  std::shared_ptr<const registry::HydratedDevice> dev;
  ASSERT_TRUE(hydration.get(id, &dev).is_ok());
  SimulationModel published;
  ASSERT_TRUE(reg.load_model(id, &published).is_ok());

  util::Rng rng(7);
  std::vector<Challenge> challenges;
  for (int i = 0; i < 12; ++i)
    challenges.push_back(random_challenge(published.layout(), rng));

  const SimulationModel::PredictBatchOptions uncached;
  const auto cold = dev->device->predict_batch(challenges, uncached);

  ResponseCache response_cache(1 << 20);
  SimulationModel::PredictBatchOptions cached;
  cached.cache = &response_cache;
  cached.cache_device_id = dev->id;
  const auto fill = dev->device->predict_batch(challenges, cached);
  const auto warm = dev->device->predict_batch(challenges, cached);

  ASSERT_EQ(cold.size(), challenges.size());
  for (std::size_t i = 0; i < challenges.size(); ++i) {
    ASSERT_TRUE(cold[i].ok()) << "challenge " << i;
    const SimulationModel::Prediction want = oracle.predict(challenges[i]);
    ASSERT_TRUE(want.ok()) << "challenge " << i;
    // Sparse-enrolled, hydration-served bits equal the dense oracle's;
    // flows agree within solver tolerance.
    EXPECT_EQ(cold[i].bit, want.bit) << "challenge " << i;
    EXPECT_NEAR(cold[i].flow_a, want.flow_a,
                1e-12 + 1e-6 * std::abs(want.flow_a))
        << "challenge " << i;
    EXPECT_NEAR(cold[i].flow_b, want.flow_b,
                1e-12 + 1e-6 * std::abs(want.flow_b))
        << "challenge " << i;
    // Cache fill and cache hit are exact copies of the uncached solve —
    // the cache must never launder a different response.
    for (const auto* pass : {&fill, &warm}) {
      ASSERT_TRUE((*pass)[i].ok()) << "challenge " << i;
      EXPECT_EQ((*pass)[i].bit, cold[i].bit) << "challenge " << i;
      EXPECT_EQ((*pass)[i].flow_a, cold[i].flow_a) << "challenge " << i;
      EXPECT_EQ((*pass)[i].flow_b, cold[i].flow_b) << "challenge " << i;
    }
  }
  // The second cached pass hit every entry.
  EXPECT_GE(response_cache.stats().hits, challenges.size());
}

}  // namespace
}  // namespace ppuf
