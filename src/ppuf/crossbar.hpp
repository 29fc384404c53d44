// One crossbar network (Section 4.1): the physical realisation of the
// complete graph.  Every ordered node pair (i, j) has a building block at
// the intersection of vertical bar i and horizontal bar j, with its own
// process-variation draw.  The block compact models are characterised once
// per environment and cached; executing a challenge is then a single
// network-level Newton solve.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "circuit/env.hpp"
#include "circuit/variation.hpp"
#include "ppuf/block.hpp"
#include "ppuf/challenge.hpp"
#include "ppuf/network_solver.hpp"
#include "util/rng.hpp"

namespace ppuf::util {
class ThreadPool;  // util/thread_pool.hpp
}

namespace ppuf {

class CrossbarNetwork {
 public:
  /// Draws the process variation of every block.  `surface` is the die's
  /// systematic-variation surface — pass the same surface for the two
  /// networks of a PPUF (side-by-side placement, Section 4.1).
  CrossbarNetwork(const PpufParams& params, const CrossbarLayout& layout,
                  util::Rng& rng, const circuit::SystematicSurface& surface);

  const CrossbarLayout& layout() const { return layout_; }
  const PpufParams& params() const { return params_; }

  /// Variation draw of the block instantiating directed edge e.  This is
  /// part of the *public* model of the PPUF.
  const circuit::BlockVariation& block_variation(graph::EdgeId e) const {
    return variation_.at(e);
  }

  /// Characterise all block compact models for `env` (no-op if already
  /// cached for the same environment).  With a `pool` (non-owning) the
  /// blocks are characterised in parallel, one task per edge; each task
  /// writes only its own curves and keeps its block's warm-start sweep, so
  /// the curves are bit-identical to the serial run.
  void prepare(const circuit::Environment& env,
               util::ThreadPool* pool = nullptr);

  /// Share a circuit-level symbolic cache (MNA pattern + sparse-LU
  /// analysis) used during block characterisation.  All blocks have the
  /// same netlist topology, so a whole device analyses once; MaxFlowPpuf
  /// passes one cache to both of its networks.  Set before prepare().
  void set_symbolic_cache(std::shared_ptr<circuit::SymbolicCache> cache) {
    symbolic_cache_ = std::move(cache);
  }
  const std::shared_ptr<circuit::SymbolicCache>& symbolic_cache() const {
    return symbolic_cache_;
  }

  /// Opt in to warm-starting the network Newton solve from the previous
  /// converged execution (chained-auth acceleration).  Off by default:
  /// cold starts make execute() bitwise repeatable, which tests and the
  /// golden corpus rely on; warm starts converge to the same bits but may
  /// differ in the last few ulps of the node voltages.  The stored state is
  /// discarded whenever the environment changes (re-characterisation).
  void set_warm_start(bool enabled) {
    warm_start_enabled_ = enabled;
    if (!enabled) clear_warm_start();
  }
  bool warm_start_enabled() const { return warm_start_enabled_; }
  void clear_warm_start() { have_last_solution_ = false; }

  /// Compact model of edge e under input bit `bit`; prepare() first.
  const BlockCurve& curve(graph::EdgeId e, int bit) const;

  struct Execution {
    double source_current = 0.0;  ///< steady-state current into the source
    int newton_iterations = 0;
    bool converged = false;
    /// Recovery-ladder trace of the underlying DC solve.
    circuit::SolveDiagnostics diagnostics;
  };

  /// Solve the steady state for a challenge (implicitly prepares `env`).
  Execution execute(const Challenge& challenge,
                    const circuit::Environment& env);

  /// Per-edge steady-state currents for a challenge — the flow function the
  /// PPUF holder hands to a verifier for the residual-graph check.
  std::vector<double> execute_edge_currents(const Challenge& challenge,
                                            const circuit::Environment& env);

  /// Settle-time measurement for the same challenge (execution delay).
  NetworkSolver::TransientResult execute_transient(
      const Challenge& challenge, const circuit::Environment& env,
      const NetworkSolver::TransientOptions& topt);

  /// Per-node capacitance: edge capacitance times degree (2(n-1) incident
  /// blocks per node in the complete crossbar).
  std::vector<double> node_capacitances() const;

 private:
  void select_curves(const Challenge& challenge);

  PpufParams params_;
  CrossbarLayout layout_;
  std::vector<circuit::BlockVariation> variation_;        // per edge
  std::vector<std::array<BlockCurve, 2>> curves_;         // per edge x bit
  circuit::Environment cached_env_{};
  bool prepared_ = false;
  std::unique_ptr<NetworkSolver> solver_;
  std::shared_ptr<circuit::SymbolicCache> symbolic_cache_;
  bool warm_start_enabled_ = false;
  bool have_last_solution_ = false;
  numeric::Vector last_solution_;  ///< node voltages of last converged solve
};

}  // namespace ppuf
