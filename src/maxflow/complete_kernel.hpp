// Flat max-flow kernel for the complete digraph K_n — the only instance
// shape the serving path ever sees (a crossbar realises K_n).  It runs the
// two halves of the paper's asymmetry (Section 2) over plain arrays instead
// of a graph::Digraph plus a vector-of-vectors ResidualNetwork:
//
//   push_relabel() — FIFO push-relabel with the gap and global-relabel
//     heuristics at their PushRelabelOptions defaults.  The arc table
//     reproduces ResidualNetwork's arc order on graph::make_complete(n)
//     exactly, so pushes, relabels, work counts, the flow value and every
//     edge flow are bit-identical to PushRelabel.
//   verify() — the checks of verify_flow (capacity, conservation with the
//     2(n-1)-edge slack, no augmenting path) with the same verdict, value
//     and reason text.
//
// PushRelabel and verify_flow stay as the differential oracle
// (tests/solver_differential_test.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "maxflow/solver.hpp"
#include "maxflow/verify.hpp"
#include "util/status.hpp"

namespace ppuf::maxflow {

struct CompleteArcTable;

class CompleteKernel {
 public:
  /// The calling thread's kernel, sized for K_n (n >= 2).  Its buffers are
  /// reused across calls, so a solve or verify allocates nothing unless `n`
  /// changed since the thread's previous call.  The reference stays valid
  /// for the thread's lifetime; the next for_thread() call on the same
  /// thread reuses (and may resize) the same object.
  static CompleteKernel& for_thread(std::size_t n);

  CompleteKernel(const CompleteKernel&) = delete;
  CompleteKernel& operator=(const CompleteKernel&) = delete;

  std::size_t edge_count() const { return capacity_.size(); }

  /// Edge capacities in graph::complete_edge_id order (row-major over
  /// ordered pairs, diagonal skipped).  Fill before push_relabel()/verify().
  std::span<double> capacities() { return capacity_; }

  /// Max-flow from `source` to `sink` over capacities().  Throws
  /// std::invalid_argument on source == sink, an out-of-range endpoint, or
  /// a capacity that is not finite and non-negative.  The returned
  /// edge_flow is left empty: read the assignment with edge_flows().  On a
  /// stop by `control` the status is typed and the value is a preflow's
  /// sink excess, exactly as PushRelabel reports it.
  FlowResult push_relabel(graph::VertexId source, graph::VertexId sink,
                          const util::SolveControl& control = {});

  /// Per-edge flows of the last push_relabel(); `out` has edge_count()
  /// entries.
  void edge_flows(std::span<double> out) const;

  /// verify_flow() of `flow` (one entry per edge) against capacities().
  VerifyResult verify(graph::VertexId source, graph::VertexId sink,
                      std::span<const double> flow, double tolerance);

 private:
  CompleteKernel() = default;
  void resize(std::size_t n);

  // Push-relabel steps, mirroring PushRelabelState one for one.
  void push(std::uint32_t arc, double amount);
  void enqueue(graph::VertexId v);
  void discharge(graph::VertexId v, FlowResult& result);
  void relabel(graph::VertexId v, FlowResult& result);
  void global_relabel(FlowResult& result);
  void residual_bfs(graph::VertexId root, std::vector<std::uint32_t>& dist,
                    FlowResult& result);

  std::size_t n_ = 0;
  std::size_t degree_ = 0;  ///< residual arcs per vertex, 2(n-1)
  const CompleteArcTable* arcs_ = nullptr;
  graph::VertexId source_ = 0;
  graph::VertexId sink_ = 0;
  double eps_ = 0.0;
  std::uint64_t relabels_ = 0;
  std::uint64_t global_relabels_ = 0;

  std::vector<double> capacity_;  ///< per edge
  std::vector<double> residual_;  ///< per arc
  std::vector<std::uint32_t> height_;
  std::vector<double> excess_;
  std::vector<std::uint32_t> next_arc_;
  std::vector<std::uint8_t> in_queue_;
  std::vector<std::uint32_t> height_count_;
  std::vector<graph::VertexId> queue_;  ///< FIFO ring of active vertices
  std::size_t queue_head_ = 0;
  std::size_t queue_size_ = 0;
  std::vector<std::uint32_t> to_sink_;
  std::vector<std::uint32_t> to_source_;
  std::vector<graph::VertexId> bfs_queue_;
  std::vector<double> net_;  ///< verify: per-vertex net inflow
};

}  // namespace ppuf::maxflow
