// Max-flow substrate microbenchmarks (google-benchmark): the three solvers
// on complete graphs (the PPUF's instance family), plus the verification
// asymmetry of Section 2 — optimality checking is a single residual-graph
// BFS, serial or frontier-parallel.  BM_ModelPredict / BM_ModelVerify time
// one serving-path read (both networks) on the flat K_n kernel and on the
// Digraph oracle path it replaced; verify/predict is the asymmetry as the
// server sees it.
#include <benchmark/benchmark.h>

#include <array>
#include <vector>

#include "graph/complete.hpp"
#include "maxflow/push_relabel.hpp"
#include "maxflow/solver.hpp"
#include "maxflow/verify.hpp"
#include "ppuf/sim_model.hpp"
#include "protocol/authentication.hpp"
#include "util/rng.hpp"

namespace {

using namespace ppuf;

graph::Digraph complete_instance(std::size_t n) {
  util::Rng rng(n * 2654435761u);
  return graph::make_complete_uniform(n, rng);
}

void BM_EdmondsKarp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Digraph g = complete_instance(n);
  const auto solver = maxflow::make_solver(maxflow::Algorithm::kEdmondsKarp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver->solve({&g, 0, static_cast<graph::VertexId>(n - 1)}));
  }
  state.SetComplexityN(state.range(0));
}

void BM_Dinic(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Digraph g = complete_instance(n);
  const auto solver = maxflow::make_solver(maxflow::Algorithm::kDinic);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver->solve({&g, 0, static_cast<graph::VertexId>(n - 1)}));
  }
  state.SetComplexityN(state.range(0));
}

void BM_PushRelabel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Digraph g = complete_instance(n);
  const auto solver = maxflow::make_solver(maxflow::Algorithm::kPushRelabel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver->solve({&g, 0, static_cast<graph::VertexId>(n - 1)}));
  }
  state.SetComplexityN(state.range(0));
}

void BM_PushRelabelNoHeuristics(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Digraph g = complete_instance(n);
  maxflow::PushRelabelOptions opts;
  opts.gap_heuristic = false;
  opts.global_relabel = false;
  const maxflow::PushRelabel solver(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver.solve({&g, 0, static_cast<graph::VertexId>(n - 1)}));
  }
  state.SetComplexityN(state.range(0));
}

/// Verification side: check a maximum flow (the cheap asymmetric check the
/// on-chip PPUF enables).
void BM_VerifyOptimal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<unsigned>(state.range(1));
  const graph::Digraph g = complete_instance(n);
  const auto t = static_cast<graph::VertexId>(n - 1);
  const maxflow::FlowResult flow =
      maxflow::make_solver(maxflow::Algorithm::kPushRelabel)
          ->solve({&g, 0, t});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        maxflow::verify_flow(g, 0, t, flow.edge_flow, 1e-9, threads));
  }
  state.SetComplexityN(state.range(0));
}

/// A public model from seeded capacities (restore: no circuit
/// characterisation), 64 challenges and their honest witnesses.
struct ModelWorkload {
  explicit ModelWorkload(std::size_t n) : model(seeded_model(n)) {
    util::Rng rng(n);
    for (int i = 0; i < 64; ++i) {
      challenges.push_back(random_challenge(model.layout(), rng));
      witnesses.push_back(
          protocol::prove_by_simulation(model, challenges.back()));
    }
  }

  static SimulationModel seeded_model(std::size_t n) {
    util::Rng rng(n * 40503u);
    const CrossbarLayout layout(n, 6);
    std::array<std::vector<std::array<double, 2>>, 2> caps;
    for (auto& net : caps) {
      net.resize(layout.edge_count());
      for (auto& levels : net)
        levels = {rng.uniform(1e-9, 40e-9), rng.uniform(1e-9, 40e-9)};
    }
    return SimulationModel::restore(layout, std::move(caps), 0.0);
  }

  SimulationModel model;
  std::vector<Challenge> challenges;
  std::vector<protocol::ProverReport> witnesses;
};

/// PREDICT: two push-relabel solves and the comparator.
void BM_ModelPredict(benchmark::State& state, bool flat) {
  const ModelWorkload w(static_cast<std::size_t>(state.range(0)));
  const maxflow::PushRelabel oracle;
  std::size_t i = 0;
  for (auto _ : state) {
    const Challenge& c = w.challenges[i++ % w.challenges.size()];
    if (flat) {
      benchmark::DoNotOptimize(w.model.predict(c).bit);
      continue;
    }
    double flow[2];
    for (int net = 0; net < 2; ++net) {
      const graph::Digraph g = w.model.build_graph(net, c);
      flow[net] = oracle.solve({&g, c.source, c.sink}).value;
    }
    benchmark::DoNotOptimize(flow[0] - flow[1] + w.model.comparator_offset());
  }
}

/// VERIFY of an honest witness: both networks' residual-graph checks.
void BM_ModelVerify(benchmark::State& state, bool flat) {
  const ModelWorkload w(static_cast<std::size_t>(state.range(0)));
  const double tolerance = 0.1 * w.model.mean_capacity();
  const protocol::Verifier verifier(w.model, 1e9, tolerance);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t k = i++ % w.challenges.size();
    const Challenge& c = w.challenges[k];
    const protocol::ProverReport& r = w.witnesses[k];
    if (flat) {
      benchmark::DoNotOptimize(verifier.verify(c, r).accepted);
      continue;
    }
    for (int net = 0; net < 2; ++net) {
      const graph::Digraph g = w.model.build_graph(net, c);
      benchmark::DoNotOptimize(
          maxflow::verify_flow(g, c.source, c.sink,
                               net == 0 ? r.edge_flow_a : r.edge_flow_b,
                               tolerance)
              .optimal);
    }
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_ModelPredict, flat, true)->DenseRange(16, 32, 8);
BENCHMARK_CAPTURE(BM_ModelPredict, digraph, false)->DenseRange(16, 32, 8);
BENCHMARK_CAPTURE(BM_ModelVerify, flat, true)->DenseRange(16, 32, 8);
BENCHMARK_CAPTURE(BM_ModelVerify, digraph, false)->DenseRange(16, 32, 8);
BENCHMARK(BM_EdmondsKarp)->RangeMultiplier(2)->Range(16, 128)->Complexity();
BENCHMARK(BM_Dinic)->RangeMultiplier(2)->Range(16, 256)->Complexity();
BENCHMARK(BM_PushRelabel)->RangeMultiplier(2)->Range(16, 256)->Complexity();
BENCHMARK(BM_PushRelabelNoHeuristics)
    ->RangeMultiplier(2)
    ->Range(16, 128)
    ->Complexity();
BENCHMARK(BM_VerifyOptimal)
    ->ArgsProduct({{64, 128, 256}, {1, 2, 4}})
    ->Complexity();

BENCHMARK_MAIN();
