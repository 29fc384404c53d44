#include "ppuf/block.hpp"

#include <algorithm>
#include <stdexcept>

#include "circuit/dc.hpp"

namespace ppuf {

namespace {

using circuit::Environment;
using circuit::kGround;
using circuit::Netlist;
using circuit::NodeId;

circuit::MosfetParams varied_mosfet(const PpufParams& p, double dvth,
                                    const Environment& env) {
  circuit::MosfetParams m = circuit::adjust_for_environment(p.mosfet, env);
  m.vth += dvth;
  return m;
}

circuit::DiodeParams varied_diode(const PpufParams& p, double dis_rel,
                                  const Environment& env) {
  circuit::DiodeParams d = circuit::adjust_for_environment(p.diode, env);
  d.saturation_current *= std::max(0.1, 1.0 + dis_rel);
  return d;
}

/// Appends one kDoubleSd stage between `top` and `bottom`:
/// M1 (cascode) over M2 over R1, gates referenced to `bottom`
/// (gate of M2 at vgs, gate of M1 at vgs + Vb).  Returns nothing; the stage
/// conducts from top to bottom.
void append_double_sd_stage(Netlist& nl, const PpufParams& p, NodeId top,
                            NodeId bottom, double vgs, double vb,
                            double dvth_m1, double dvth_m2, double dr_rel,
                            const Environment& env) {
  const NodeId mid = nl.add_node();
  const NodeId deg = nl.add_node();
  const NodeId g1 = nl.add_node();
  const NodeId g2 = nl.add_node();
  nl.add_mosfet(top, g1, mid, varied_mosfet(p, dvth_m1, env));
  nl.add_mosfet(mid, g2, deg, varied_mosfet(p, dvth_m2, env));
  nl.add_resistor(deg, bottom,
                  p.degeneration_resistance * std::max(0.1, 1.0 + dr_rel));
  nl.add_voltage_source(g1, bottom, vgs + vb);
  nl.add_voltage_source(g2, bottom, vgs);
}

}  // namespace

SweepCircuit build_stage_test(const PpufParams& params, BlockDesign design,
                              double vgs,
                              const circuit::BlockVariation* variation,
                              const Environment& env) {
  const double scale = env.vdd_scale;
  const double v_gs = vgs * scale;
  const double v_b = params.vb * scale;
  const double dvth1 = variation != nullptr ? variation->dvth[0] : 0.0;
  const double dvth2 = variation != nullptr ? variation->dvth[1] : 0.0;
  const double dr = variation != nullptr ? variation->dr_rel[0] : 0.0;
  const double dis = variation != nullptr ? variation->dis_rel[0] : 0.0;

  SweepCircuit sc;
  Netlist& nl = sc.netlist;
  const NodeId top = nl.add_node("top");
  const NodeId a = nl.add_node("a");
  // Conduction direction is from the sweep terminal into the stage.
  nl.add_diode(top, a, varied_diode(params, dis, env));
  sc.sweep_source = nl.add_voltage_source(top, kGround, 0.0);

  switch (design) {
    case BlockDesign::kBare: {
      const NodeId g = nl.add_node("g");
      nl.add_mosfet(a, g, kGround, varied_mosfet(params, dvth2, env));
      nl.add_voltage_source(g, kGround, v_gs);
      break;
    }
    case BlockDesign::kSingleSd: {
      const NodeId g = nl.add_node("g");
      const NodeId deg = nl.add_node("deg");
      nl.add_mosfet(a, g, deg, varied_mosfet(params, dvth2, env));
      nl.add_resistor(deg, kGround,
                      params.degeneration_resistance * std::max(0.1, 1.0 + dr));
      nl.add_voltage_source(g, kGround, v_gs);
      break;
    }
    case BlockDesign::kDoubleSd: {
      append_double_sd_stage(nl, params, a, kGround, v_gs, v_b, dvth1, dvth2,
                             dr, env);
      break;
    }
  }
  return sc;
}

SweepCircuit build_block(const PpufParams& params,
                         const circuit::BlockVariation& variation,
                         int input_bit, const Environment& env) {
  if (input_bit != 0 && input_bit != 1)
    throw std::invalid_argument("build_block: input bit must be 0 or 1");
  const double scale = env.vdd_scale;
  // Input 1: stage A gets the low control voltage and limits the current;
  // input 0: stage B limits (Requirement 3's complementary biasing).
  const double vgs_a =
      (input_bit == 1 ? params.vgs_low : params.vgs_high()) * scale;
  const double vgs_b =
      (input_bit == 1 ? params.vgs_high() : params.vgs_low) * scale;
  const double v_b = params.vb * scale;

  SweepCircuit sc;
  Netlist& nl = sc.netlist;
  const NodeId top = nl.add_node("top");
  const NodeId a = nl.add_node("a");
  const NodeId c = nl.add_node("c");      // between the two stages
  const NodeId b2 = nl.add_node("b2");    // bottom of stage B, anode of D2

  nl.add_diode(top, a, varied_diode(params, variation.dis_rel[0], env));
  append_double_sd_stage(nl, params, a, c, vgs_a, v_b, variation.dvth[0],
                         variation.dvth[1], variation.dr_rel[0], env);
  append_double_sd_stage(nl, params, c, b2, vgs_b, v_b, variation.dvth[2],
                         variation.dvth[3], variation.dr_rel[1], env);
  nl.add_diode(b2, kGround, varied_diode(params, variation.dis_rel[1], env));
  sc.sweep_source = nl.add_voltage_source(top, kGround, 0.0);
  return sc;
}

std::vector<double> sweep_current(
    SweepCircuit& circuit, std::span<const double> voltages,
    const Environment& env,
    std::shared_ptr<circuit::SymbolicCache> symbolic_cache) {
  circuit::DcOptions opts;
  opts.temperature_c = env.temperature_c;
  opts.symbolic_cache = std::move(symbolic_cache);
  circuit::DcSolver solver(circuit.netlist, opts);
  std::vector<double> currents;
  currents.reserve(voltages.size());
  circuit::OperatingPoint prev;
  bool have_prev = false;
  for (double v : voltages) {
    circuit.netlist.set_voltage(circuit.sweep_source, v);
    circuit::OperatingPoint op = solver.solve(have_prev ? &prev : nullptr);
    if (!op.converged)
      throw circuit::ConvergenceError(
          "sweep_current: DC solve failed at V=" + std::to_string(v),
          op.diagnostics);
    currents.push_back(op.source_current(circuit.sweep_source));
    prev = op;
    have_prev = true;
  }
  return currents;
}

std::vector<double> characterization_grid(const PpufParams& params) {
  // Dense around the turn-on knee (0.3-0.8 V), moderate elsewhere, coarse
  // on the plateau: 24 points keep characterisation fast (it runs ~4 n^2
  // times per PPUF instance) while the PCHIP error stays far below the
  // process-variation signal.
  std::vector<double> grid{-0.3, -0.1, 0.0, 0.1, 0.2, 0.3};
  for (double v = 0.35; v < 0.825; v += 0.05) grid.push_back(v);
  for (double v = 0.9; v < 1.25; v += 0.1) grid.push_back(v);
  for (double v = 1.4; v <= params.sweep_max_voltage + 1e-9; v += 0.3)
    grid.push_back(v);
  return grid;
}

BlockCurve characterize_block(
    const PpufParams& params, const circuit::BlockVariation& variation,
    int input_bit, const Environment& env,
    std::shared_ptr<circuit::SymbolicCache> symbolic_cache,
    bool dense_solver) {
  SweepCircuit sc = build_block(params, variation, input_bit, env);
  const std::vector<double> grid = characterization_grid(params);
  std::vector<double> currents(grid.size(), 0.0);

  // Sweep outward from 0 V with warm starts: the cold solve at 0 V is easy
  // (everything off, zero is nearly the answer), and every other point is
  // a small continuation step.  Starting cold at the most-negative point
  // instead forces the gmin-stepping ladder on every block.
  circuit::DcOptions opts;
  opts.temperature_c = env.temperature_c;
  opts.symbolic_cache = std::move(symbolic_cache);
  opts.use_dense_solver = dense_solver;
  circuit::DcSolver solver(sc.netlist, opts);
  const std::size_t zero_index = static_cast<std::size_t>(
      std::find(grid.begin(), grid.end(), 0.0) - grid.begin());

  auto run = [&](std::size_t index, const circuit::OperatingPoint* warm) {
    const double target = grid[index];
    sc.netlist.set_voltage(sc.sweep_source, target);
    // The solver's built-in recovery ladder (gmin stepping -> source
    // stepping -> tightened damping) replaces the ad-hoc continuation this
    // call site used to carry; the rare Monte Carlo corner the plain solve
    // cannot reach in one hop now escalates inside DcSolver and reports
    // which rung saved it.
    circuit::OperatingPoint op = solver.solve(warm);
    if (!op.converged)
      throw circuit::ConvergenceError(
          "characterize_block: DC solve failed at V=" +
              std::to_string(target),
          op.diagnostics);
    currents[index] = op.source_current(sc.sweep_source);
    return op;
  };

  circuit::OperatingPoint at_zero = run(zero_index, nullptr);
  circuit::OperatingPoint prev = at_zero;
  for (std::size_t i = zero_index + 1; i < grid.size(); ++i)
    prev = run(i, &prev);
  prev = at_zero;
  for (std::size_t i = zero_index; i-- > 0;) prev = run(i, &prev);

  // Numerical noise can leave microscopic non-monotonicity (< fA) between
  // Newton solutions; clamp it so the compact model stays monotone.
  for (std::size_t i = 1; i < currents.size(); ++i)
    currents[i] = std::max(currents[i], currents[i - 1]);

  BlockCurve curve;
  curve.iv = MonotoneCurve(grid, currents);
  curve.isat = curve.iv(kCapacityReferenceVoltage * env.vdd_scale);
  return curve;
}

}  // namespace ppuf
