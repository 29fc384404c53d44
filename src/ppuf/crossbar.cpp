#include "ppuf/crossbar.hpp"

#include <stdexcept>

#include "circuit/mna.hpp"
#include "util/thread_pool.hpp"

namespace ppuf {

namespace {
bool same_env(const circuit::Environment& a, const circuit::Environment& b) {
  return a.vdd_scale == b.vdd_scale && a.temperature_c == b.temperature_c;
}
}  // namespace

CrossbarNetwork::CrossbarNetwork(const PpufParams& params,
                                 const CrossbarLayout& layout,
                                 util::Rng& rng,
                                 const circuit::SystematicSurface& surface)
    : params_(params), layout_(layout) {
  const std::size_t n = layout_.node_count();
  variation_.reserve(n * (n - 1));
  for (graph::VertexId i = 0; i < n; ++i) {
    for (graph::VertexId j = 0; j < n; ++j) {
      if (i == j) continue;
      circuit::BlockVariation v =
          circuit::draw_block_variation(params_.variation, rng);
      double x = 0.0, y = 0.0;
      layout_.die_position(i, j, &x, &y);
      circuit::apply_systematic(v, surface, x, y);
      variation_.push_back(v);
    }
  }
}

void CrossbarNetwork::prepare(const circuit::Environment& env,
                              util::ThreadPool* pool) {
  if (prepared_ && same_env(env, cached_env_)) return;
  // Operating conditions changed: any stored warm-start point belongs to
  // the previous environment and must not seed the next solve.
  clear_warm_start();
  if (symbolic_cache_ == nullptr)
    symbolic_cache_ = std::make_shared<circuit::SymbolicCache>();
  const std::size_t edges = variation_.size();
  curves_.assign(edges, {});
  const auto characterize = [&](std::size_t e) {
    for (int bit = 0; bit < 2; ++bit) {
      curves_[e][bit] =
          characterize_block(params_, variation_[e], bit, env,
                             symbolic_cache_, dense_solver_);
    }
  };
  // Edge 0 runs first on the calling thread, as in the serial order: on a
  // fresh cache its first solve publishes the sparse-LU analysis that
  // every later solve replays.
  characterize(0);
  if (pool == nullptr) {
    for (std::size_t e = 1; e < edges; ++e) characterize(e);
  } else {
    pool->parallel_for(edges - 1,
                       [&](std::size_t i) { characterize(i + 1); });
  }
  if (!solver_) {
    solver_ = std::make_unique<NetworkSolver>(
        layout_.node_count(),
        std::vector<const MonotoneCurve*>(edges, nullptr));
  }
  cached_env_ = env;
  prepared_ = true;
}

const BlockCurve& CrossbarNetwork::curve(graph::EdgeId e, int bit) const {
  if (!prepared_) throw std::logic_error("CrossbarNetwork: prepare() first");
  if (bit != 0 && bit != 1)
    throw std::invalid_argument("CrossbarNetwork::curve: bad bit");
  return curves_.at(e)[bit];
}

void CrossbarNetwork::select_curves(const Challenge& challenge) {
  if (challenge.bits.size() != layout_.cell_count())
    throw std::invalid_argument("CrossbarNetwork: challenge size mismatch");
  auto& active = solver_->edge_curves();
  const std::size_t n = layout_.node_count();
  std::size_t e = 0;
  for (graph::VertexId i = 0; i < n; ++i) {
    for (graph::VertexId j = 0; j < n; ++j) {
      if (i == j) continue;
      const int bit = challenge.bits[layout_.cell_of_edge(i, j)] ? 1 : 0;
      active[e] = &curves_[e][bit].iv;
      ++e;
    }
  }
}

CrossbarNetwork::Execution CrossbarNetwork::execute(
    const Challenge& challenge, const circuit::Environment& env) {
  prepare(env);
  select_curves(challenge);
  const numeric::Vector* warm =
      warm_start_enabled_ && have_last_solution_ ? &last_solution_ : nullptr;
  const NetworkSolver::DcResult dc =
      solver_->solve_dc(challenge.source, challenge.sink,
                        params_.vs * env.vdd_scale, warm);
  if (warm_start_enabled_ && dc.converged) {
    last_solution_ = dc.node_voltage;
    have_last_solution_ = true;
  }
  Execution out;
  out.source_current = dc.source_current;
  out.newton_iterations = dc.iterations;
  out.converged = dc.converged;
  out.diagnostics = dc.diagnostics;
  return out;
}

std::vector<double> CrossbarNetwork::execute_edge_currents(
    const Challenge& challenge, const circuit::Environment& env) {
  prepare(env);
  select_curves(challenge);
  const numeric::Vector* warm =
      warm_start_enabled_ && have_last_solution_ ? &last_solution_ : nullptr;
  const NetworkSolver::DcResult dc =
      solver_->solve_dc(challenge.source, challenge.sink,
                        params_.vs * env.vdd_scale, warm);
  if (!dc.converged) {
    throw circuit::ConvergenceError(
        "execute_edge_currents: DC solve failed", dc.diagnostics);
  }
  if (warm_start_enabled_) {
    last_solution_ = dc.node_voltage;
    have_last_solution_ = true;
  }
  return solver_->edge_currents(dc.node_voltage);
}

NetworkSolver::TransientResult CrossbarNetwork::execute_transient(
    const Challenge& challenge, const circuit::Environment& env,
    const NetworkSolver::TransientOptions& topt) {
  prepare(env);
  select_curves(challenge);
  return solver_->solve_transient(challenge.source, challenge.sink,
                                  params_.vs * env.vdd_scale,
                                  node_capacitances(), topt);
}

std::vector<double> CrossbarNetwork::node_capacitances() const {
  const std::size_t n = layout_.node_count();
  // Each node touches 2(n-1) blocks: n-1 outgoing on its vertical bar and
  // n-1 incoming on its horizontal bar.
  return std::vector<double>(
      n, params_.edge_capacitance * static_cast<double>(2 * (n - 1)));
}

}  // namespace ppuf
