#include "maxflow/complete_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace ppuf::maxflow {

/// Residual arcs of K_n, vertex by vertex: vertex v owns the arcs
/// [v * 2(n-1), (v + 1) * 2(n-1)).  Shared read-only by every thread.
struct CompleteArcTable {
  std::vector<graph::VertexId> to;
  std::vector<std::uint32_t> pair;  ///< global index of the paired arc
  std::vector<std::uint32_t> edge;  ///< input edge; kNoEdge when backward
};

namespace {

constexpr std::uint32_t kNoEdge = static_cast<std::uint32_t>(-1);

/// Lays the arcs out exactly as ResidualNetwork does for make_complete(n):
/// edges in id order, each appending its forward arc to its tail's list
/// and its backward arc to its head's list.
std::unique_ptr<const CompleteArcTable> build_arc_table(std::size_t n) {
  const std::size_t degree = 2 * (n - 1);
  auto table = std::make_unique<CompleteArcTable>();
  table->to.resize(n * degree);
  table->pair.resize(n * degree);
  table->edge.resize(n * degree);
  std::vector<std::uint32_t> filled(n, 0);
  std::uint32_t e = 0;
  for (graph::VertexId i = 0; i < n; ++i) {
    for (graph::VertexId j = 0; j < n; ++j) {
      if (i == j) continue;
      const auto fwd = static_cast<std::uint32_t>(i * degree + filled[i]++);
      const auto bwd = static_cast<std::uint32_t>(j * degree + filled[j]++);
      table->to[fwd] = j;
      table->pair[fwd] = bwd;
      table->edge[fwd] = e++;
      table->to[bwd] = i;
      table->pair[bwd] = fwd;
      table->edge[bwd] = kNoEdge;
    }
  }
  return table;
}

/// One table per node count, built on first use and kept for the process.
const CompleteArcTable& arc_table(std::size_t n) {
  static std::mutex mutex;
  static std::map<std::size_t, std::unique_ptr<const CompleteArcTable>>
      tables;
  std::lock_guard<std::mutex> lock(mutex);
  auto& slot = tables[n];
  if (slot == nullptr) slot = build_arc_table(n);
  return *slot;
}

}  // namespace

CompleteKernel& CompleteKernel::for_thread(std::size_t n) {
  if (n < 2) throw std::invalid_argument("CompleteKernel: need n >= 2");
  thread_local CompleteKernel kernel;
  if (kernel.n_ != n) kernel.resize(n);
  return kernel;
}

void CompleteKernel::resize(std::size_t n) {
  n_ = n;
  degree_ = 2 * (n - 1);
  arcs_ = &arc_table(n);
  capacity_.assign(n * (n - 1), 0.0);
  residual_.assign(n * degree_, 0.0);
  height_.assign(n, 0);
  excess_.assign(n, 0.0);
  next_arc_.assign(n, 0);
  in_queue_.assign(n, 0);
  height_count_.assign(2 * n + 2, 0);
  queue_.assign(n, 0);
  to_sink_.assign(n, 0);
  to_source_.assign(n, 0);
  bfs_queue_.assign(n, 0);
  net_.assign(n, 0.0);
}

FlowResult CompleteKernel::push_relabel(graph::VertexId source,
                                        graph::VertexId sink,
                                        const util::SolveControl& control) {
  if (source == sink)
    throw std::invalid_argument("PushRelabel: source == sink");
  if (source >= n_ || sink >= n_)
    throw std::invalid_argument("CompleteKernel: source/sink out of range");
  obs::ScopedTimer timer(obs::MetricsRegistry::global(),
                         "maxflow.push_relabel.solve_time_us");

  // Same validation and epsilon as ResidualNetwork.
  double max_cap = 0.0;
  for (std::size_t e = 0; e < capacity_.size(); ++e) {
    const double c = capacity_[e];
    if (!std::isfinite(c) || c < 0.0) {
      throw std::invalid_argument(
          "CompleteKernel: capacity of edge " + std::to_string(e) +
          " is not finite and non-negative (" + std::to_string(c) + ")");
    }
    max_cap = std::max(max_cap, c);
  }
  eps_ = std::max(max_cap, 1.0) * kRelativeEps;
  for (std::size_t a = 0; a < residual_.size(); ++a) {
    const std::uint32_t e = arcs_->edge[a];
    residual_[a] = e == kNoEdge ? 0.0 : capacity_[e];
  }

  source_ = source;
  sink_ = sink;
  std::fill(height_.begin(), height_.end(), 0);
  std::fill(excess_.begin(), excess_.end(), 0.0);
  std::fill(next_arc_.begin(), next_arc_.end(), 0);
  std::fill(in_queue_.begin(), in_queue_.end(), 0);
  std::fill(height_count_.begin(), height_count_.end(), 0);
  queue_head_ = 0;
  queue_size_ = 0;
  relabels_ = 0;
  global_relabels_ = 0;

  FlowResult result;
  util::StopCheck stop(control);

  // Saturate all source-adjacent arcs.
  height_[source_] = static_cast<std::uint32_t>(n_);
  for (const std::uint32_t h : height_) ++height_count_[h];
  const std::uint32_t first = static_cast<std::uint32_t>(source_ * degree_);
  for (std::uint32_t a = first; a < first + degree_; ++a) {
    const double cap = residual_[a];
    if (cap <= eps_) continue;
    push(a, cap);
    excess_[arcs_->to[a]] += cap;
    enqueue(arcs_->to[a]);
  }

  const std::uint64_t relabel_period = n_;
  std::uint64_t discharges = 0;
  while (queue_size_ != 0) {
    if (stop.should_stop()) {
      result.status = stop.status("PushRelabel");
      break;
    }
    const graph::VertexId v = queue_[queue_head_];
    queue_head_ = (queue_head_ + 1) % n_;
    --queue_size_;
    in_queue_[v] = 0;
    discharge(v, result);
    ++discharges;
    if (discharges % relabel_period == 0) {
      global_relabel(result);
      ++global_relabels_;
    }
  }
  result.value = excess_[sink_];
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    reg.counter("maxflow.push_relabel.solves").add();
    reg.counter("maxflow.push_relabel.work").add(result.work);
    reg.counter("maxflow.push_relabel.discharges").add(discharges);
    reg.counter("maxflow.push_relabel.relabels").add(relabels_);
    reg.counter("maxflow.push_relabel.global_relabels")
        .add(global_relabels_);
  }
  return result;
}

void CompleteKernel::edge_flows(std::span<double> out) const {
  if (out.size() != capacity_.size())
    throw std::invalid_argument("CompleteKernel::edge_flows: size mismatch");
  for (std::size_t a = 0; a < residual_.size(); ++a) {
    const std::uint32_t e = arcs_->edge[a];
    if (e != kNoEdge) out[e] = std::max(0.0, capacity_[e] - residual_[a]);
  }
}

void CompleteKernel::push(std::uint32_t arc, double amount) {
  if (amount > residual_[arc] + eps_)
    throw std::logic_error("ResidualNetwork::push: over-push");
  residual_[arc] -= amount;
  residual_[arcs_->pair[arc]] += amount;
}

void CompleteKernel::enqueue(graph::VertexId v) {
  if (v == source_ || v == sink_) return;
  if (in_queue_[v] != 0 || excess_[v] <= eps_) return;
  in_queue_[v] = 1;
  queue_[(queue_head_ + queue_size_) % n_] = v;
  ++queue_size_;
}

void CompleteKernel::discharge(graph::VertexId v, FlowResult& result) {
  const std::size_t first = v * degree_;
  while (excess_[v] > eps_) {
    if (next_arc_[v] == degree_) {
      relabel(v, result);
      next_arc_[v] = 0;
      // Above 2n the vertex has no residual arcs left (see PushRelabel).
      if (height_[v] > 2 * n_) return;
      continue;
    }
    const auto a = static_cast<std::uint32_t>(first + next_arc_[v]);
    const graph::VertexId to = arcs_->to[a];
    ++result.work;
    if (residual_[a] > eps_ && height_[v] == height_[to] + 1) {
      const double amount = std::min(excess_[v], residual_[a]);
      push(a, amount);
      excess_[v] -= amount;
      excess_[to] += amount;
      enqueue(to);
    } else {
      ++next_arc_[v];
    }
  }
}

void CompleteKernel::relabel(graph::VertexId v, FlowResult& result) {
  ++relabels_;
  const std::uint32_t old_height = height_[v];
  std::uint32_t best = 2 * static_cast<std::uint32_t>(n_) + 1;
  const std::size_t first = v * degree_;
  for (std::size_t a = first; a < first + degree_; ++a) {
    ++result.work;
    if (residual_[a] > eps_)
      best = std::min(best, height_[arcs_->to[a]] + 1);
  }
  --height_count_[old_height];
  height_[v] = best;
  ++height_count_[best];

  if (height_count_[old_height] == 0 && old_height < n_) {
    // Gap: every vertex above old_height (below n) is cut off from the
    // sink; lift them past n in one step.
    for (graph::VertexId u = 0; u < n_; ++u) {
      if (u == source_) continue;
      if (height_[u] > old_height && height_[u] < n_) {
        --height_count_[height_[u]];
        height_[u] = static_cast<std::uint32_t>(n_ + 1);
        ++height_count_[height_[u]];
      }
    }
  }
}

void CompleteKernel::residual_bfs(graph::VertexId root,
                                  std::vector<std::uint32_t>& dist,
                                  FlowResult& result) {
  const auto unset = static_cast<std::uint32_t>(2 * n_ + 1);
  std::fill(dist.begin(), dist.end(), unset);
  std::size_t head = 0;
  std::size_t tail = 0;
  dist[root] = 0;
  bfs_queue_[tail++] = root;
  while (head != tail) {
    const graph::VertexId v = bfs_queue_[head++];
    // Arc u->v exists in the residual graph iff the pair of the arc
    // v->u stored at v has positive residual.
    const std::size_t first = v * degree_;
    for (std::size_t a = first; a < first + degree_; ++a) {
      ++result.work;
      const graph::VertexId u = arcs_->to[a];
      if (residual_[arcs_->pair[a]] > eps_ && dist[u] == unset) {
        dist[u] = dist[v] + 1;
        bfs_queue_[tail++] = u;
      }
    }
  }
}

void CompleteKernel::global_relabel(FlowResult& result) {
  const auto unset = static_cast<std::uint32_t>(2 * n_ + 1);
  residual_bfs(sink_, to_sink_, result);
  residual_bfs(source_, to_source_, result);

  std::fill(height_count_.begin(), height_count_.end(), 0);
  for (graph::VertexId v = 0; v < n_; ++v) {
    std::uint32_t label;
    if (v == source_) {
      label = static_cast<std::uint32_t>(n_);
    } else if (to_sink_[v] != unset) {
      label = to_sink_[v];
    } else if (to_source_[v] != unset) {
      label = static_cast<std::uint32_t>(n_) + to_source_[v];
    } else {
      label = unset;
    }
    // Never lower a label: heights must stay monotone non-decreasing.
    height_[v] = std::max(height_[v], label);
    ++height_count_[std::min(height_[v], unset)];
    next_arc_[v] = 0;
  }
}

VerifyResult CompleteKernel::verify(graph::VertexId source,
                                    graph::VertexId sink,
                                    std::span<const double> flow,
                                    double tolerance) {
  if (flow.size() != capacity_.size())
    throw std::invalid_argument("verify_flow: flow size mismatch");
  if (source >= n_ || sink >= n_ || source == sink)
    throw std::invalid_argument("verify_flow: bad source/sink");

  VerifyResult result;

  // Capacity constraints: 0 <= f(e) <= c(e).  Every comparison is written
  // as verify_flow writes it, so NaN entries take the same branches.
  for (std::size_t e = 0; e < flow.size(); ++e) {
    if (flow[e] < -tolerance || flow[e] > capacity_[e] + tolerance) {
      std::ostringstream os;
      os << "capacity violated on edge " << e << ": f=" << flow[e]
         << " c=" << capacity_[e];
      result.reason = os.str();
      return result;
    }
  }

  // Conservation, summed in edge-id order like verify_flow so the reported
  // net is the same double.  Every vertex of K_n has 2(n-1) incident edges.
  std::fill(net_.begin(), net_.end(), 0.0);
  std::size_t e = 0;
  for (graph::VertexId i = 0; i < n_; ++i) {
    for (graph::VertexId j = 0; j < n_; ++j) {
      if (i == j) continue;
      net_[i] -= flow[e];
      net_[j] += flow[e];
      ++e;
    }
  }
  const double slack = tolerance * static_cast<double>(degree_);
  for (graph::VertexId v = 0; v < n_; ++v) {
    if (v == source || v == sink) continue;
    if (std::abs(net_[v]) > slack) {
      std::ostringstream os;
      os << "conservation violated at vertex " << v << ": net=" << net_[v];
      result.reason = os.str();
      return result;
    }
  }
  result.feasible = true;
  result.value = -net_[source];

  // Optimality: the sink must be unreachable in the residual graph, whose
  // arcs are forward edges with slack and backward edges with flow.
  // push_relabel's BFS distance buffer doubles as the visited set.
  std::vector<std::uint32_t>& seen = to_source_;
  std::fill(seen.begin(), seen.end(), 0);
  std::size_t head = 0;
  std::size_t tail = 0;
  seen[source] = 1;
  bfs_queue_[tail++] = source;
  const std::size_t row = n_ - 1;
  while (head != tail) {
    const graph::VertexId v = bfs_queue_[head++];
    for (graph::VertexId u = 0; u < n_; ++u) {
      if (u == v || seen[u] != 0) continue;
      const std::size_t out = v * row + (u < v ? u : u - 1);
      const std::size_t in = u * row + (v < u ? v : v - 1);
      if (capacity_[out] - flow[out] > tolerance || flow[in] > tolerance) {
        if (u == sink) {
          result.reason = "augmenting path remains (flow not maximum)";
          return result;
        }
        seen[u] = 1;
        bfs_queue_[tail++] = u;
      }
    }
  }
  result.optimal = true;
  return result;
}

}  // namespace ppuf::maxflow
