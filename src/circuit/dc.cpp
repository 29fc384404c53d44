#include "circuit/dc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "circuit/mna.hpp"
#include "circuit/newton_core.hpp"
#include "numeric/lu.hpp"
#include "numeric/sparse_lu.hpp"
#include "obs/metrics.hpp"
#include "util/fault_hooks.hpp"

namespace ppuf::circuit {

namespace detail {

namespace {

/// Index of a node's unknown, or SIZE_MAX for ground.
constexpr std::size_t kGroundIdx = static_cast<std::size_t>(-1);

std::size_t node_index(NodeId n) {
  return n == kGround ? kGroundIdx : static_cast<std::size_t>(n) - 1;
}

/// SPICE-style junction limiting (Nagel's pnjlim, adapted): any upward move
/// of a conducting junction beyond 2 kT/q is tapered logarithmically.  The
/// classic formulation gates on a critical voltage derived from Is, but our
/// junctions operate at nanoamperes — far below vcrit — where the
/// exponential is already stiff relative to the signal scale, so the taper
/// applies whenever the junction is forward biased.
double pnjlim(double vnew, double vold, double vt) {
  if (vold > 0.0 && std::abs(vnew - vold) > 2.0 * vt) {
    // Symmetric taper: limiting only the upward direction leaves a tiny
    // limit cycle around the operating point.
    const double mag = vt * std::log(1.0 + std::abs(vnew - vold) / vt);
    return vold + (vnew > vold ? mag : -mag);
  }
  if (vold <= 0.0 && vnew > 2.0 * vt) {
    return 2.0 * vt;  // entering conduction from reverse bias
  }
  return vnew;
}

/// Applies pnjlim to every diode in the netlist by nudging the trial node
/// voltages; returns true if any junction was limited.  The per-device
/// decoupling lets the rest of the circuit take full Newton steps while
/// each exponential junction inches up.
bool limit_junctions(const Netlist& nl, const DcOptions& opts,
                     const numeric::Vector& x, numeric::Vector& x_trial) {
  auto value_of = [](const numeric::Vector& v, NodeId n) {
    return n == kGround ? 0.0 : v[node_index(n)];
  };
  bool limited = false;
  for (const auto& d : nl.diodes()) {
    const double nvt =
        d.params.ideality * thermal_voltage(opts.temperature_c);
    const double vd_old = value_of(x, d.anode) - value_of(x, d.cathode);
    const double vd_new =
        value_of(x_trial, d.anode) - value_of(x_trial, d.cathode);
    const double vd_lim = pnjlim(vd_new, vd_old, nvt);
    if (vd_lim == vd_new) continue;
    limited = true;
    const double delta = vd_new - vd_lim;
    const bool anode_free = d.anode != kGround;
    const bool cathode_free = d.cathode != kGround;
    if (anode_free && cathode_free) {
      x_trial[node_index(d.anode)] -= 0.5 * delta;
      x_trial[node_index(d.cathode)] += 0.5 * delta;
    } else if (anode_free) {
      x_trial[node_index(d.anode)] -= delta;
    } else if (cathode_free) {
      x_trial[node_index(d.cathode)] += delta;
    }
  }
  return limited;
}

/// Linear-solve workspaces reused across every iteration of every
/// recovery-ladder rung in one solve_newton call.  Exactly one of the two
/// halves is active, per DcOptions::use_dense_solver.
struct NewtonWorkspace {
  bool dense = false;

  // Dense oracle path.
  numeric::Matrix j;
  numeric::Matrix j_scratch;

  // Sparse default path.  `structure` is the shared topology (pattern +
  // replay slots + published symbolic analysis); `a` is this call's private
  // value workspace over that pattern.
  std::shared_ptr<const MnaStructure> structure;
  numeric::SparseMatrix a;
  numeric::SparseLu lu;
};

/// Factorise/refactorise the sparse workspace and solve for dx (already
/// holding -f).  Prefers the cheap numeric replay against the held or
/// shared symbolic analysis; falls back to a full factorisation (fresh
/// pivot order) on kUnavailable pivot degradation, publishing the new
/// analysis for later solves.  A typed failure here means the iteration
/// matrix is genuinely singular.
util::Status sparse_solve_step(NewtonWorkspace& ws, numeric::Vector& dx) {
  util::Status st;
  if (ws.lu.ok()) {
    st = ws.lu.refactorize(ws.a);
  } else if (auto sym = ws.structure->symbolic()) {
    st = ws.lu.refactorize(ws.a, std::move(sym));
  } else {
    st = util::Status::unavailable("no symbolic analysis yet");
  }
  if (!st.is_ok()) {
    st = ws.lu.factorize(ws.a);
    if (st.is_ok()) ws.structure->set_symbolic(ws.lu.symbolic());
  }
  if (!st.is_ok()) return st;
  return ws.lu.solve_in_place({dx.data(), dx.size()});
}

/// One Newton run at fixed options; `x` is used as the initial guess and
/// holds the final iterate on return.
OperatingPoint run_newton(const Netlist& netlist, const DcOptions& options,
                          const ExtraStamp& extra, numeric::Vector& x,
                          NewtonWorkspace& ws) {
  const std::size_t nv = netlist.node_count() - 1;
  const std::size_t ns = netlist.voltage_source_count();
  const std::size_t dim = nv + ns;
  // Node voltages far outside the supply range are unphysical; clamping
  // keeps cut-off floating nodes from drifting (their only conductance to
  // anywhere is gmin).
  constexpr double kVoltageClamp = 10.0;

  numeric::Vector f(dim, 0.0);

  OperatingPoint op;
  op.node_voltage.assign(netlist.node_count(), 0.0);
  op.vsource_current.assign(ns, 0.0);

  numeric::Vector x_trial(dim);
  numeric::Vector dx(dim);

  // Anti-oscillation damping: full Newton steps can enter a period-2 cycle
  // across a device region boundary.  When the residual stops improving,
  // damp the step (any asymmetric scaling breaks a 2-cycle); reset the
  // damping as soon as progress resumes.
  double damping = 1.0;
  double best_residual = std::numeric_limits<double>::infinity();
  int stagnant = 0;

  double node_residual = 0.0;
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    if (ws.dense) {
      ws.j.fill(0.0);
      DenseJacobianSink sink(&ws.j);
      assemble(netlist, options, x, f, &sink, extra);
    } else {
      ws.a.zero_values();
      SlotReplaySink sink(&ws.a, ws.structure->slots);
      assemble(netlist, options, x, f, &sink, extra);
      assert(sink.cursor() == ws.structure->slots.size());
    }

    node_residual = 0.0;
    for (std::size_t i = 0; i < nv; ++i)
      node_residual = std::max(node_residual, std::abs(f[i]));
    double branch_residual = 0.0;
    for (std::size_t i = nv; i < dim; ++i)
      branch_residual = std::max(branch_residual, std::abs(f[i]));

    op.iterations = iter;
    // Converged: KCL satisfied at every node and every source branch
    // equation met.  The raw Newton correction is deliberately NOT part of
    // the test: on a saturated plateau the Jacobian is near-singular along
    // float directions, so a physically-converged point can still produce
    // a large (irrelevant) dx.
    if (node_residual < options.residual_tol &&
        branch_residual < options.voltage_tol) {
      op.converged = true;
      break;
    }

    for (std::size_t i = 0; i < dim; ++i) dx[i] = -f[i];
    util::Status solve_status;
    if (ws.dense) {
      ws.j_scratch = ws.j;  // reuses its buffer after the first iteration
      solve_status = numeric::solve_in_place(ws.j_scratch, dx);
    } else {
      solve_status = sparse_solve_step(ws, dx);
    }
    if (!solve_status.is_ok()) {
      // Singular iteration matrix (degenerate netlist): report an infinite
      // residual instead of crashing so the recovery ladder can escalate —
      // and, at the last rung, so the caller gets a typed non-converged
      // OperatingPoint.
      node_residual = std::numeric_limits<double>::infinity();
      break;
    }

    // Limit the voltage step while preserving the Newton direction.
    double max_dv = 0.0;
    for (std::size_t i = 0; i < nv; ++i)
      max_dv = std::max(max_dv, std::abs(dx[i]));

    if (node_residual < best_residual * (1.0 - 5e-3) ||
        node_residual < options.residual_tol) {
      best_residual = std::min(best_residual, node_residual);
      stagnant = 0;
      damping = 1.0;
    } else if (++stagnant >= 8) {
      damping = std::max(damping * 0.5, 1.0 / 256.0);
      stagnant = 0;
    }

    // SPICE-style globalization: a global voltage-step clamp plus
    // per-junction limiting, no line search.  A merit-decrease rule was
    // tried here and crawls: crossing a stiff exponential needs transient
    // residual growth that any monotone acceptance test rejects.
    const double scale =
        damping *
        (max_dv > options.step_limit ? options.step_limit / max_dv : 1.0);
    for (std::size_t i = 0; i < dim; ++i)
      x_trial[i] = x[i] + scale * dx[i];
    limit_junctions(netlist, options, x, x_trial);
    for (std::size_t i = 0; i < nv; ++i)
      x_trial[i] = std::clamp(x_trial[i], -kVoltageClamp, kVoltageClamp);
    x = x_trial;

    if (!std::isfinite(x[0])) {
      // Diverged.  Report an infinite residual instead of throwing so the
      // recovery ladder can escalate to the next rung.
      node_residual = std::numeric_limits<double>::infinity();
      break;
    }
  }

  for (std::size_t i = 0; i < nv; ++i) op.node_voltage[i + 1] = x[i];
  for (std::size_t k = 0; k < ns; ++k) op.vsource_current[k] = x[nv + k];
  op.residual = node_residual;
  return op;
}

}  // namespace

OperatingPoint solve_newton(const Netlist& netlist, const DcOptions& options,
                            const ExtraStamp& extra,
                            const OperatingPoint* warm_start,
                            std::shared_ptr<const MnaStructure> structure) {
  const std::size_t nv = netlist.node_count() - 1;
  const std::size_t ns = netlist.voltage_source_count();
  const std::size_t dim = nv + ns;
  if (dim == 0) throw std::invalid_argument("solve_newton: empty netlist");
  obs::ScopedTimer timer(obs::MetricsRegistry::global(),
                         "circuit.dc.solve_time_us");

  NewtonWorkspace ws;
  ws.dense = options.use_dense_solver;
  if (ws.dense) {
    ws.j = numeric::Matrix(dim, dim);
  } else {
    if (structure == nullptr || structure->dim != dim)
      structure = build_mna_structure(netlist, options, extra);
    ws.structure = std::move(structure);
    ws.a = ws.structure->pattern;  // private value workspace, shared pattern
  }

  auto warm_init = [&](numeric::Vector& x) {
    x.assign(dim, 0.0);
    if (warm_start != nullptr &&
        warm_start->node_voltage.size() == netlist.node_count() &&
        warm_start->vsource_current.size() == ns) {
      for (std::size_t i = 0; i < nv; ++i)
        x[i] = warm_start->node_voltage[i + 1];
      for (std::size_t k = 0; k < ns; ++k)
        x[nv + k] = warm_start->vsource_current[k];
    }
  };

  SolveDiagnostics diag;
  auto record = [&](RecoveryStage stage, const OperatingPoint& op,
                    int iterations) {
    diag.stages.push_back(
        StageAttempt{stage, iterations, op.residual, op.converged});
    diag.total_iterations += iterations;
    diag.strategy = stage;
  };
  auto finish = [&](OperatingPoint op) {
    diag.converged = op.converged;
    diag.final_residual = op.residual;
    op.iterations = diag.total_iterations;
    publish_solve_metrics(obs::MetricsRegistry::global(), "circuit.dc", diag);
    op.diagnostics = std::move(diag);
    return op;
  };

  numeric::Vector x(dim, 0.0);
  warm_init(x);

  // Rung 0 — direct damped Newton.  The test-only fault hook can starve
  // this rung (and only this rung) to force the ladder to fire.
  const util::FaultHooks& hooks = util::FaultHooks::instance();
  DcOptions direct = options;
  const int cap =
      hooks.newton_direct_iteration_cap.load(std::memory_order_relaxed);
  if (cap > 0) direct.max_iterations = std::min(direct.max_iterations, cap);
  OperatingPoint op = run_newton(netlist, direct, extra, x, ws);
  record(RecoveryStage::kDirect, op, op.iterations);
  if (op.converged || !options.enable_recovery) return finish(op);

  // Rung 1 — gmin stepping: solve a heavily damped version first (every
  // node leaks to ground), then walk gmin back down, warm-starting each
  // stage — the classic SPICE continuation for circuits whose devices are
  // all cut off.
  if (!hooks.newton_skip_gmin_stage.load(std::memory_order_relaxed)) {
    x.assign(dim, 0.0);
    int stage_iterations = 0;
    for (double gmin = 1e-4; gmin >= options.gmin * 0.99; gmin *= 1e-2) {
      DcOptions stage = options;
      stage.gmin = gmin;
      // Intermediate stages only need to hand over a good starting point.
      stage.residual_tol = std::max(options.residual_tol, gmin * 1e-3);
      op = run_newton(netlist, stage, extra, x, ws);
      stage_iterations += op.iterations;
    }
    op = run_newton(netlist, options, extra, x, ws);
    stage_iterations += op.iterations;
    record(RecoveryStage::kGminStepping, op, stage_iterations);
    if (op.converged) return finish(op);
  }

  // Rung 2 — source stepping: homotopy in the excitation.  Ramp every
  // independent source from a small fraction to 100%, warm-starting each
  // step; at low drive all devices are near cutoff and Newton is tame.
  {
    Netlist scaled = netlist;
    x.assign(dim, 0.0);
    int stage_iterations = 0;
    constexpr int kRampSteps = 8;
    for (int k = 1; k <= kRampSteps; ++k) {
      const double frac = static_cast<double>(k) / kRampSteps;
      for (std::size_t s = 0; s < scaled.vsources().size(); ++s)
        scaled.vsources()[s].volts = netlist.vsources()[s].volts * frac;
      for (std::size_t s = 0; s < scaled.isources().size(); ++s)
        scaled.isources()[s].amps = netlist.isources()[s].amps * frac;
      DcOptions stage = options;
      if (k < kRampSteps) {
        // Intermediate points only seed the next step.
        stage.residual_tol = std::max(options.residual_tol, 1e-13) * 1e2;
      }
      // `scaled` shares the topology (only source values change), so the
      // workspace pattern and symbolic analysis stay valid.
      op = run_newton(scaled, stage, extra, x, ws);
      stage_iterations += op.iterations;
    }
    // Polish on the original netlist (bit-identical sources).
    op = run_newton(netlist, options, extra, x, ws);
    stage_iterations += op.iterations;
    record(RecoveryStage::kSourceStepping, op, stage_iterations);
    if (op.converged) return finish(op);
  }

  // Rung 3 — tightened damping: a tiny step limit with a generous
  // iteration budget.  Slow but essentially monotone for incrementally
  // passive device stacks; the rung of last resort.
  {
    DcOptions tight = options;
    tight.step_limit = std::max(options.step_limit / 16.0, 0.01);
    tight.max_iterations = std::max(options.max_iterations * 10, 2000);
    warm_init(x);
    op = run_newton(netlist, tight, extra, x, ws);
    record(RecoveryStage::kTightenedDamping, op, op.iterations);
  }
  return finish(op);
}

}  // namespace detail

DcSolver::DcSolver(const Netlist& netlist, DcOptions options)
    : netlist_(netlist), options_(std::move(options)) {}

OperatingPoint DcSolver::solve(const OperatingPoint* warm_start) const {
  std::shared_ptr<const MnaStructure> structure;
  if (!options_.use_dense_solver) {
    std::lock_guard<std::mutex> lock(structure_mu_);
    if (structure_ == nullptr) {
      if (options_.symbolic_cache != nullptr) {
        const std::uint64_t key = netlist_topology_key(netlist_);
        structure_ = options_.symbolic_cache->find(key);
        if (structure_ == nullptr) {
          structure_ = options_.symbolic_cache->insert(
              key, build_mna_structure(netlist_, options_, nullptr));
        }
      } else {
        structure_ = build_mna_structure(netlist_, options_, nullptr);
      }
    }
    structure = structure_;
  }
  return detail::solve_newton(netlist_, options_, nullptr, warm_start,
                              std::move(structure));
}

}  // namespace ppuf::circuit
