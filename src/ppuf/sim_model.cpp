#include "ppuf/sim_model.hpp"

#include <iomanip>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "graph/complete.hpp"
#include "obs/metrics.hpp"

namespace ppuf {

SimulationModel::SimulationModel(const CrossbarLayout& layout)
    : layout_(layout) {
  const std::size_t n = layout_.node_count();
  edge_cell_.reserve(layout_.edge_count());
  for (graph::VertexId i = 0; i < n; ++i)
    for (graph::VertexId j = 0; j < n; ++j)
      if (i != j)
        edge_cell_.push_back(
            static_cast<std::uint32_t>(layout_.cell_of_edge(i, j)));
}

SimulationModel::SimulationModel(MaxFlowPpuf& instance,
                                 const circuit::Environment& env)
    : SimulationModel(instance.layout()) {
  comparator_offset_ = instance.comparator_offset();
  instance.prepare(env);
  const std::size_t edges = layout_.edge_count();
  for (int net = 0; net < 2; ++net) {
    const CrossbarNetwork& network =
        net == 0 ? instance.network_a() : instance.network_b();
    auto& caps = capacities_[net];
    caps.resize(edges);
    for (graph::EdgeId e = 0; e < edges; ++e) {
      caps[e][0] = network.curve(e, 0).isat;
      caps[e][1] = network.curve(e, 1).isat;
    }
  }
}

SimulationModel SimulationModel::restore(
    const CrossbarLayout& layout,
    std::array<std::vector<std::array<double, 2>>, 2> capacities,
    double comparator_offset) {
  for (const auto& caps : capacities) {
    if (caps.size() != layout.edge_count())
      throw std::invalid_argument(
          "SimulationModel::restore: capacity table size mismatch");
  }
  SimulationModel model{layout};
  model.capacities_ = std::move(capacities);
  model.comparator_offset_ = comparator_offset;
  return model;
}

double SimulationModel::mean_capacity() const {
  const std::size_t edges = layout_.edge_count();
  if (edges == 0) return 0.0;
  double sum = 0.0;
  for (const auto& caps : capacities_)
    for (const auto& per_bit : caps) sum += per_bit[0] + per_bit[1];
  return sum / static_cast<double>(edges * 4);
}

double SimulationModel::capacity(int network, graph::EdgeId e,
                                 int bit) const {
  if (network < 0 || network > 1 || bit < 0 || bit > 1)
    throw std::invalid_argument("SimulationModel::capacity: bad index");
  return capacities_[network].at(e)[bit];
}

graph::Digraph SimulationModel::build_graph(int network,
                                            const Challenge& challenge) const {
  if (challenge.bits.size() != layout_.cell_count())
    throw std::invalid_argument("SimulationModel: challenge size mismatch");
  const std::size_t n = layout_.node_count();
  return graph::make_complete(n, [&](graph::VertexId i, graph::VertexId j) {
    const int bit = challenge.bits[layout_.cell_of_edge(i, j)] ? 1 : 0;
    return capacity(network, layout_.edge_id(i, j), bit);
  });
}

maxflow::CompleteKernel& SimulationModel::load_kernel(
    int network, const Challenge& challenge) const {
  if (challenge.bits.size() != layout_.cell_count())
    throw std::invalid_argument("SimulationModel: challenge size mismatch");
  if (network < 0 || network > 1)
    throw std::invalid_argument("SimulationModel::capacity: bad index");
  maxflow::CompleteKernel& kernel =
      maxflow::CompleteKernel::for_thread(layout_.node_count());
  const auto& caps = capacities_[network];
  const std::span<double> out = kernel.capacities();
  for (std::size_t e = 0; e < out.size(); ++e) {
    const double c = caps[e][challenge.bits[edge_cell_[e]] ? 1 : 0];
    if (c < 0.0)
      throw std::invalid_argument("SimulationModel: negative capacity");
    out[e] = c;
  }
  return kernel;
}

maxflow::FlowResult SimulationModel::solve(int network,
                                           const Challenge& challenge,
                                           maxflow::Algorithm algorithm,
                                           const util::SolveControl& control,
                                           bool edge_flows) const {
  if (algorithm != maxflow::Algorithm::kPushRelabel) {
    const graph::Digraph g = build_graph(network, challenge);
    return maxflow::make_solver(algorithm)->solve(
        {&g, challenge.source, challenge.sink}, control);
  }
  maxflow::CompleteKernel& kernel = load_kernel(network, challenge);
  maxflow::FlowResult r =
      kernel.push_relabel(challenge.source, challenge.sink, control);
  if (edge_flows) {
    r.edge_flow.resize(kernel.edge_count());
    kernel.edge_flows(r.edge_flow);
  }
  return r;
}

double SimulationModel::predicted_flow(int network,
                                       const Challenge& challenge,
                                       maxflow::Algorithm algorithm) const {
  return solve(network, challenge, algorithm).value;
}

void SimulationModel::save(std::ostream& os) const {
  // Format:
  //   ppuf-model 1
  //   nodes <n> grid <l>
  //   comparator_offset <A>
  //   <edges> lines: capA0 capA1 capB0 capB1   (amperes, edge-id order)
  os << "ppuf-model 1\n";
  os << "nodes " << layout_.node_count() << " grid " << layout_.grid_size()
     << "\n";
  os << std::setprecision(17) << std::scientific;
  os << "comparator_offset " << comparator_offset_ << "\n";
  for (graph::EdgeId e = 0; e < layout_.edge_count(); ++e) {
    os << capacities_[0][e][0] << ' ' << capacities_[0][e][1] << ' '
       << capacities_[1][e][0] << ' ' << capacities_[1][e][1] << '\n';
  }
}

SimulationModel SimulationModel::load(std::istream& is) {
  auto fail = [](const std::string& what) -> void {
    throw std::runtime_error("SimulationModel::load: " + what);
  };
  std::string tag;
  int version = 0;
  if (!(is >> tag >> version) || tag != "ppuf-model" || version != 1)
    fail("bad header");
  std::string key;
  std::size_t n = 0, l = 0;
  if (!(is >> key >> n) || key != "nodes") fail("missing nodes");
  if (!(is >> key >> l) || key != "grid") fail("missing grid");
  if (n < 2 || l < 1 || l > n) fail("invalid geometry");

  SimulationModel model{CrossbarLayout(n, l)};
  if (!(is >> key >> model.comparator_offset_) || key != "comparator_offset")
    fail("missing comparator_offset");
  const std::size_t edges = model.layout_.edge_count();
  for (int net = 0; net < 2; ++net) model.capacities_[net].resize(edges);
  for (graph::EdgeId e = 0; e < edges; ++e) {
    double a0 = 0, a1 = 0, b0 = 0, b1 = 0;
    if (!(is >> a0 >> a1 >> b0 >> b1)) fail("truncated capacity table");
    if (a0 < 0 || a1 < 0 || b0 < 0 || b1 < 0)
      fail("negative capacity");
    model.capacities_[0][e] = {a0, a1};
    model.capacities_[1][e] = {b0, b1};
  }
  return model;
}

SimulationModel::Prediction SimulationModel::predict(
    const Challenge& challenge, maxflow::Algorithm algorithm,
    const util::SolveControl& control) const {
  Prediction p;
  for (int net = 0; net < 2; ++net) {
    const maxflow::FlowResult r = solve(net, challenge, algorithm, control);
    (net == 0 ? p.flow_a : p.flow_b) = r.value;
    if (!r.ok()) {
      // A stopped solve proves nothing about either network: surface the
      // typed status and leave the bit at its default.
      p.status = r.status;
      return p;
    }
  }
  p.bit = (p.flow_a - p.flow_b + comparator_offset_) > 0.0 ? 1 : 0;
  return p;
}

std::vector<SimulationModel::Prediction> SimulationModel::predict_batch(
    const std::vector<Challenge>& challenges,
    const PredictBatchOptions& options) const {
  std::vector<Prediction> results(challenges.size());
  if (!options.deadlines.empty() &&
      options.deadlines.size() != challenges.size())
    throw std::invalid_argument(
        "predict_batch: deadlines/challenges size mismatch");
  if (challenges.empty()) return results;

  // Metric handles resolved once per batch so the per-item path never
  // touches the registry map; all null when metrics are disabled.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter* m_items =
      reg.enabled() ? &reg.counter("ppuf.predict_batch.items") : nullptr;
  obs::Counter* m_cache_hits =
      reg.enabled() ? &reg.counter("ppuf.predict_batch.cache_hits") : nullptr;
  obs::Counter* m_failures =
      reg.enabled() ? &reg.counter("ppuf.predict_batch.item_failures")
                    : nullptr;
  obs::Histogram* m_item_time =
      reg.enabled() ? &reg.histogram("ppuf.predict_batch.item_time_us")
                    : nullptr;

  // One item = cache probe, then (on miss) the two max-flow solves of
  // predict().  Only completed predictions enter the cache: a partial
  // (deadline/cancel) result proves nothing about the response.
  auto run_item = [&](std::size_t i) {
    obs::ScopedTimer timer(m_item_time);
    if (m_items != nullptr) m_items->add();
    const Challenge& c = challenges[i];
    // Per-item budget: checked before the cache probe so an expired item
    // always answers typed (its caller has already given up on it), and
    // folded into the solve control so a live item cannot overrun its own
    // deadline while batch-mates keep the shared budget.
    util::SolveControl item_control = options.control;
    if (!options.deadlines.empty()) {
      const util::Deadline& d = options.deadlines[i];
      if (d.expired()) {
        results[i].status = util::Status::deadline_exceeded(
            "predict_batch: item budget expired");
        if (m_failures != nullptr) m_failures->add();
        return;
      }
      if (!d.is_unlimited() &&
          (item_control.deadline.is_unlimited() ||
           d.remaining() < item_control.deadline.remaining()))
        item_control.deadline = d;
    }
    if (options.cache != nullptr) {
      if (const auto hit = options.cache->lookup(options.cache_device_id, c,
                                                 options.cache_env)) {
        results[i].bit = hit->bit;
        results[i].flow_a = hit->flow_a;
        results[i].flow_b = hit->flow_b;
        if (m_cache_hits != nullptr) m_cache_hits->add();
        return;
      }
    }
    results[i] = predict(c, maxflow::Algorithm::kPushRelabel, item_control);
    if (m_failures != nullptr && !results[i].ok()) m_failures->add();
    if (options.cache != nullptr && results[i].ok()) {
      options.cache->insert(
          options.cache_device_id, c, options.cache_env,
          CachedResponse{results[i].bit, results[i].flow_a,
                         results[i].flow_b});
    }
  };

  if (options.pool == nullptr && options.thread_count <= 1) {
    util::StopCheck stop(options.control, /*stride=*/1);
    for (std::size_t i = 0; i < challenges.size(); ++i) {
      if (stop.should_stop()) {
        results[i].status = stop.status("predict_batch");
        continue;
      }
      run_item(i);
    }
    return results;
  }

  auto run_all = [&](util::ThreadPool& pool) {
    pool.parallel_for(
        challenges.size(),
        [&](std::size_t i, const util::Status& stop) {
          if (!stop.is_ok()) {
            results[i].status = stop;
            return;
          }
          run_item(i);
        },
        options.control);
  };
  if (options.pool != nullptr) {
    run_all(*options.pool);
  } else {
    util::ThreadPool pool(options.thread_count);
    run_all(pool);
  }
  return results;
}

}  // namespace ppuf
