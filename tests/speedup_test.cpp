// Speedup gates: the two wall-clock claims the design makes about its own
// machinery, each held to a fixed bound.
//
//   * The sparse MNA core (slot-replayed assembly + Gilbert-Peierls LU) is
//     at least 5x the dense LU oracle on a large sparse nonlinear system,
//     and the two agree on what they compute.
//   * predict_batch on four pool workers is at least 3x one worker, on a
//     host with at least four hardware threads.
//
// A ratio of wall-clock times means nothing under a sanitizer's
// instrumentation, so both tests skip there.  CMake runs this binary with
// RUN_SERIAL: no other test competes for the cores while it times.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "circuit/dc.hpp"
#include "circuit/netlist.hpp"
#include "ppuf/ppuf.hpp"
#include "ppuf/sim_model.hpp"
#include "util/rng.hpp"
#include "util/statistics.hpp"
#include "util/thread_pool.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PPUF_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PPUF_SANITIZED_BUILD 1
#endif
#endif

namespace ppuf {
namespace {

#ifdef PPUF_SANITIZED_BUILD
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A side x side resistor mesh fed at one corner through 1 kOhm, with a
/// diode to ground at every third node and a MOSFET (gate on the node
/// above) beside every fifth horizontal link.  Every MNA row has O(1)
/// entries, as in any real circuit, and the junctions make Newton iterate.
struct MeshCircuit {
  circuit::Netlist netlist;
  std::size_t drive = 0;      ///< handle of the corner supply
  std::size_t dimension = 0;  ///< MNA unknowns: nodes + source branches
};

MeshCircuit mesh_circuit(std::size_t side, util::Rng& rng) {
  MeshCircuit m;
  circuit::Netlist& nl = m.netlist;
  std::vector<circuit::NodeId> node(side * side);
  for (circuit::NodeId& n : node) n = nl.add_node();
  const auto at = [&](std::size_t r, std::size_t c) {
    return node[r * side + c];
  };
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      if (c + 1 < side)
        nl.add_resistor(at(r, c), at(r, c + 1), rng.uniform(1e3, 1e4));
      if (r + 1 < side)
        nl.add_resistor(at(r, c), at(r + 1, c), rng.uniform(1e3, 1e4));
    }
  }
  for (std::size_t i = 0; i < node.size(); i += 3) {
    circuit::DiodeParams dp;
    dp.saturation_current = rng.uniform(0.5e-11, 2e-11);
    nl.add_diode(node[i], circuit::kGround, dp);
  }
  for (std::size_t r = 1; r < side; ++r) {
    for (std::size_t c = 0; c + 1 < side; ++c) {
      if ((r * side + c) % 5 != 0) continue;
      circuit::MosfetParams mp;
      mp.vth = rng.uniform(0.35, 0.45);
      nl.add_mosfet(at(r, c), at(r - 1, c), at(r, c + 1), mp);
    }
  }
  const circuit::NodeId supply = nl.add_node();
  nl.add_resistor(supply, node[0], 1e3);
  m.drive = nl.add_voltage_source(supply, circuit::kGround, 2.0);
  m.dimension = (nl.node_count() - 1) + nl.voltage_source_count();
  return m;
}

TEST(SpeedupGate, SparseCoreFiveTimesTheDenseOracle) {
  if (kSanitized) GTEST_SKIP() << "wall-clock ratio under a sanitizer";
  util::Rng rng(2026);
  const MeshCircuit mesh = mesh_circuit(22, rng);
  ASSERT_GE(mesh.dimension, 450u);

  const auto solve = [&](bool dense, circuit::OperatingPoint* op) {
    circuit::DcOptions options;
    options.use_dense_solver = dense;
    const Clock::time_point start = Clock::now();
    *op = circuit::DcSolver(mesh.netlist, options).solve();
    return seconds_since(start);
  };
  circuit::OperatingPoint sparse_op;
  circuit::OperatingPoint dense_op;
  std::vector<double> sparse_seconds;
  for (int rep = 0; rep < 3; ++rep)
    sparse_seconds.push_back(solve(false, &sparse_op));
  const double dense_seconds = solve(true, &dense_op);

  ASSERT_TRUE(sparse_op.converged) << "sparse core did not converge";
  ASSERT_TRUE(dense_op.converged) << "dense oracle did not converge";
  const double dense_current = dense_op.source_current(mesh.drive);
  EXPECT_NEAR(sparse_op.source_current(mesh.drive), dense_current,
              1e-12 + 1e-6 * std::abs(dense_current));

  const double speedup = dense_seconds / util::median(sparse_seconds);
  std::cout << "dim " << mesh.dimension << ", " << sparse_op.iterations
            << " Newton iterations: dense " << dense_seconds
            << " s, sparse median " << util::median(sparse_seconds)
            << " s -> " << speedup << "x\n";
  EXPECT_GE(speedup, 5.0);
}

TEST(SpeedupGate, FourPoolWorkersThreeTimesOneOnPredictBatch) {
  if (kSanitized) GTEST_SKIP() << "wall-clock ratio under a sanitizer";
  if (std::thread::hardware_concurrency() < 4)
    GTEST_SKIP() << "needs >= 4 hardware threads, host has "
                 << std::thread::hardware_concurrency();

  PpufParams params;
  params.node_count = 32;
  params.grid_size = 8;
  MaxFlowPpuf puf(params, 2026);
  util::ThreadPool one(1);
  util::ThreadPool four(4);
  puf.prepare(circuit::Environment::nominal(), &four);
  const SimulationModel model(puf);

  util::Rng rng(7);
  std::vector<Challenge> batch;
  for (int i = 0; i < 1000; ++i)
    batch.push_back(random_challenge(model.layout(), rng));

  // Items per second over a window of whole batches: one 1000-item batch
  // is ~25 ms on four workers, too short to time against scheduler noise.
  constexpr double kWindowSeconds = 0.25;
  const auto items_per_second = [&](util::ThreadPool& pool) {
    SimulationModel::PredictBatchOptions options;
    options.pool = &pool;
    std::size_t items = 0;
    const Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    do {
      const auto predictions = model.predict_batch(batch, options);
      items += predictions.size();
      elapsed = seconds_since(start);
    } while (elapsed < kWindowSeconds);
    return static_cast<double>(items) / elapsed;
  };

  // Warm both pools first: each worker's first solves fault in its
  // thread-local max-flow scratch.
  items_per_second(one);
  items_per_second(four);
  std::vector<double> ratios;
  for (int rep = 0; rep < 7; ++rep) {
    const double serial = items_per_second(one);
    ratios.push_back(items_per_second(four) / serial);
  }
  const double median = util::median(ratios);
  std::ostringstream all;
  for (const double r : ratios) all << ' ' << r;
  std::cout << "4-worker / 1-worker items/s:" << all.str() << " (median "
            << median << ")\n";
  EXPECT_GE(median, 3.0) << "ratios:" << all.str();
}

}  // namespace
}  // namespace ppuf
