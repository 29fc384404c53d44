// Common interface for the max-flow algorithms (the paper's "simulation
// model", Section 2).  Capacities are real-valued because the circuit's edge
// capacities are saturation currents in amperes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "util/status.hpp"

namespace ppuf::maxflow {

/// Tolerance below which a residual capacity counts as exhausted.  Relative
/// to the problem's largest capacity; see ResidualNetwork::epsilon().
constexpr double kRelativeEps = 1e-12;

/// Solution to a max-flow instance.
struct FlowResult {
  double value = 0.0;              ///< net flow out of the source
  std::vector<double> edge_flow;   ///< per input-edge flow, indexed by EdgeId
  std::uint64_t work = 0;          ///< algorithm-specific operation count
  /// Typed outcome.  Ok on a completed solve; kDeadlineExceeded /
  /// kCancelled when a SolveControl stopped the solve early (value and
  /// edge_flow then hold the partial internal state — a preflow for
  /// push-relabel — and must not be treated as a maximum flow).  Malformed
  /// instances throw rather than returning a status.
  util::Status status;

  bool ok() const { return status.is_ok(); }
};

/// Abstract max-flow solver.  All implementations support cooperative
/// cancellation and wall-clock budgets through util::SolveControl; the
/// single-argument overload imposes no constraint.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Solve the instance; the graph must be finalized, source != sink, and
  /// all capacities finite and non-negative (else std::invalid_argument).
  FlowResult solve(const graph::FlowProblem& problem) const {
    return solve(problem, util::SolveControl{});
  }

  /// Deadline-aware, cancellable solve.  On stop, returns early with
  /// result.status set (never throws for deadline/cancel); cancellation
  /// latency is bounded by a few hundred inner-loop operations.
  virtual FlowResult solve(const graph::FlowProblem& problem,
                           const util::SolveControl& control) const = 0;

  /// Human-readable algorithm name for bench tables.
  virtual std::string name() const = 0;
};

/// Algorithm selector used by benches and the public simulation model.
enum class Algorithm {
  kEdmondsKarp,  ///< augmenting path (BFS), O(V E^2)
  kDinic,        ///< blocking flow, O(V^2 E)
  kPushRelabel,  ///< FIFO push-relabel with gap + global relabel, O(V^3)
};

std::unique_ptr<Solver> make_solver(Algorithm algorithm);

/// All algorithms, for cross-checking and benches.
std::vector<Algorithm> all_algorithms();

std::string algorithm_name(Algorithm algorithm);

}  // namespace ppuf::maxflow
