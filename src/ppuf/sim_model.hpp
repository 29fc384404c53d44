// The public simulation model (Sections 2-3).
//
// A PPUF publishes its model: per block, the saturation current under each
// input bit — i.e. the edge capacities of the equivalent max-flow instance.
// Anyone can then predict a response by solving two max-flow problems
// (one per network) and comparing the values; the security of the PPUF
// rests solely on how *long* that takes (the ESG), not on the model being
// secret.
#pragma once

#include <array>
#include <iosfwd>
#include <vector>

#include "graph/digraph.hpp"
#include "maxflow/complete_kernel.hpp"
#include "maxflow/solver.hpp"
#include "ppuf/ppuf.hpp"
#include "ppuf/response_cache.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace ppuf {

class SimulationModel {
 public:
  /// Extracts the public model of `instance` at the given characterisation
  /// environment (typically nominal).  The extraction characterises every
  /// block — the "enrollment-free" public measurement the paper describes.
  explicit SimulationModel(MaxFlowPpuf& instance,
                           const circuit::Environment& env =
                               circuit::Environment::nominal());

  /// Smallest valid model (2 nodes, grid 1, zero capacities).  Exists so a
  /// model can be a decode *target* (registry hydration, codec round
  /// trips); a default-constructed model predicts nothing useful.
  SimulationModel() : SimulationModel(CrossbarLayout(2, 1)) {
    for (auto& caps : capacities_)
      caps.assign(layout_.edge_count(), {0.0, 0.0});
  }

  /// Reassemble a model from already-validated parts (the binary codec's
  /// decode path).  `capacities[net]` must have exactly
  /// `layout.edge_count()` entries; throws std::invalid_argument otherwise.
  static SimulationModel restore(
      const CrossbarLayout& layout,
      std::array<std::vector<std::array<double, 2>>, 2> capacities,
      double comparator_offset);

  /// Serialise / restore the published model (a PPUF's public identity is
  /// literally this file).  Plain text, versioned; see save() for the
  /// format.  load() throws std::runtime_error on malformed input.
  void save(std::ostream& os) const;
  static SimulationModel load(std::istream& is);

  std::size_t node_count() const { return layout_.node_count(); }
  const CrossbarLayout& layout() const { return layout_; }

  /// Edge capacity (saturation current) of edge e in network (0 = A, 1 = B)
  /// under input bit `bit`.
  double capacity(int network, graph::EdgeId e, int bit) const;

  /// Max-flow instance of one network under a challenge.  The returned
  /// graph is finalized, with edge ids matching the crossbar layout.
  graph::Digraph build_graph(int network, const Challenge& challenge) const;

  /// The calling thread's flat K_n kernel with the capacities of one
  /// network under a challenge loaded: the serving-path twin of
  /// build_graph(), with the same capacities in the same edge order and
  /// the same std::invalid_argument on a malformed challenge.  Valid until
  /// the thread's next load_kernel().
  maxflow::CompleteKernel& load_kernel(int network,
                                       const Challenge& challenge) const;

  /// Max-flow of one network under a challenge.  Push-relabel runs on the
  /// flat kernel (bit-identical to PushRelabel on build_graph(), without
  /// building it) and fills edge_flow only when `edge_flows` is set; the
  /// other algorithms solve build_graph().
  maxflow::FlowResult solve(int network, const Challenge& challenge,
                            maxflow::Algorithm algorithm,
                            const util::SolveControl& control = {},
                            bool edge_flows = false) const;

  /// Max-flow value of one network under a challenge.
  double predicted_flow(int network, const Challenge& challenge,
                        maxflow::Algorithm algorithm =
                            maxflow::Algorithm::kPushRelabel) const;

  struct Prediction {
    int bit = 0;
    double flow_a = 0.0;
    double flow_b = 0.0;
    /// kOk normally; kDeadlineExceeded / kCancelled when `control` stopped a
    /// solve, in which case `bit` is meaningless and the flows are partial.
    util::Status status;

    bool ok() const { return status.is_ok(); }
  };

  /// Predicted response: compare the two max-flow values through the
  /// published comparator offset.  `control` bounds the two max-flow
  /// solves; on stop the returned Prediction carries the typed status
  /// instead of a response bit.
  Prediction predict(const Challenge& challenge,
                     maxflow::Algorithm algorithm =
                         maxflow::Algorithm::kPushRelabel,
                     const util::SolveControl& control = {}) const;

  struct PredictBatchOptions {
    /// Optional pool (non-owning) the batch fans out across; null runs it
    /// serially on the calling thread.
    util::ThreadPool* pool = nullptr;
    /// Shared budget: once it fires, remaining items carry the typed
    /// status without being attempted.
    util::SolveControl control{};
    /// Optional response cache (non-owning).  Hits skip both max-flow
    /// solves entirely; only completed (ok) predictions are inserted.
    ResponseCache* cache = nullptr;
    /// Device half of the cache key.  A shared multi-tenant cache must
    /// never serve one device's responses for another, so callers with a
    /// registry identity pass it here (kSingleDeviceId otherwise).
    std::uint64_t cache_device_id = kSingleDeviceId;
    /// Environment half of the cache key.  The model's capacities were
    /// extracted at one environment, so predictions are only comparable —
    /// and cache entries only reusable — under that same environment.
    /// Callers sweeping environments (reliability benches) must pass the
    /// environment they are predicting for.
    circuit::Environment cache_env = circuit::Environment::nominal();
    /// Optional per-item deadlines, parallel to `challenges` (ignored when
    /// empty; any other size mismatch throws std::invalid_argument).  An
    /// item whose deadline has already expired is answered with a typed
    /// kDeadlineExceeded status without being attempted — its batch-mates
    /// are unaffected — and a live item's solves are bounded by the
    /// earlier of its own deadline and `control.deadline`.  This is what
    /// lets a server coalesce requests with different budgets into one
    /// batch without the tightest budget poisoning the rest.
    std::vector<util::Deadline> deadlines{};
  };

  /// Predict a whole batch of challenges; a cache miss runs predict() with
  /// push-relabel.  Results are in input order, one Prediction per
  /// challenge, and are bitwise independent of the worker count and of
  /// cache hits (a hit returns exactly what the solve produced when the
  /// entry was filled).
  std::vector<Prediction> predict_batch(
      const std::vector<Challenge>& challenges,
      const PredictBatchOptions& options) const;

  double comparator_offset() const { return comparator_offset_; }

  /// Mean published capacity across both networks and both input bits.
  /// The natural scale for flow tolerances: the serving layer derives its
  /// absolute comparator tolerance from it.
  double mean_capacity() const;

 private:
  explicit SimulationModel(const CrossbarLayout& layout);

  CrossbarLayout layout_;
  // Grid cell of each edge, in edge-id order: the challenge bit that picks
  // the edge's capacity.
  std::vector<std::uint32_t> edge_cell_;
  // capacities_[network][edge][bit]
  std::array<std::vector<std::array<double, 2>>, 2> capacities_;
  double comparator_offset_ = 0.0;
};

}  // namespace ppuf
