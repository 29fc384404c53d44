// The PPUF basic building block (Section 3.1, Fig. 2).
//
// Evolution of the design:
//   (a) kBare     — diode + one saturated MOSFET (controllable max current,
//                   but channel-length modulation / SCE moves Isat with Vds)
//   (b) kSingleSd — source-degeneration resistor stabilises the current
//   (c) kDoubleSd — nested degeneration (cascode M1 over M2 over R1) with a
//                   headroom source Vb; the design the PPUF uses
//   (d) the full block: two kDoubleSd stages in series driven by
//       complementary control voltages (Vgs0 + Vgs1 = Vc) plus diodes at
//       both ends.  Input bit selects which stage limits the current.
//
// Each block instantiates one directed edge of the complete graph; its
// saturation current is the edge capacity.
#pragma once

#include <memory>

#include "circuit/env.hpp"
#include "circuit/netlist.hpp"
#include "circuit/variation.hpp"
#include "ppuf/compact.hpp"
#include "ppuf/params.hpp"

namespace ppuf::circuit {
class SymbolicCache;  // circuit/mna.hpp
}

namespace ppuf {

enum class BlockDesign { kBare, kSingleSd, kDoubleSd };

/// A netlist with its sweep source: the source drives the block's top
/// terminal against ground, and its branch current is the block current.
struct SweepCircuit {
  circuit::Netlist netlist;
  std::size_t sweep_source = 0;
};

/// Single-stage test circuit for the Fig. 2(a)-(c) design evolution
/// (used by the Fig. 3a reproduction and the Requirement-2 study).
/// `vgs` is the control voltage; variation may be null for nominal devices.
SweepCircuit build_stage_test(const PpufParams& params, BlockDesign design,
                              double vgs,
                              const circuit::BlockVariation* variation,
                              const circuit::Environment& env);

/// Full two-stage building block of Fig. 2(d) for the given input bit:
/// diode, the two complementary kDoubleSd stages with their gate
/// batteries, diode, conducting from the swept top terminal to ground.
SweepCircuit build_block(const PpufParams& params,
                         const circuit::BlockVariation& variation,
                         int input_bit, const circuit::Environment& env);

/// Characterised block: a monotone compact I-V curve plus the saturation
/// current used as the edge capacity in the public simulation model.
struct BlockCurve {
  MonotoneCurve iv;
  double isat = 0.0;  ///< current at the capacity reference voltage [A]
};

/// Voltage at which the saturation current (edge capacity) is read off.
/// Mid-plateau: far above the block's turn-on knee, below V(s).
constexpr double kCapacityReferenceVoltage = 1.4;

/// Sweep the device-level block netlist and build its compact model.
/// This is the expensive step; CrossbarNetwork caches the result per
/// (block, input bit, environment).  `symbolic_cache` (optional) shares the
/// MNA pattern + sparse-LU symbolic analysis across calls: every block of a
/// device has the same netlist topology, so the whole device analyses once.
/// `dense_solver` routes every Newton step through the dense LU oracle
/// (DcOptions::use_dense_solver) for differential tests.
BlockCurve characterize_block(
    const PpufParams& params, const circuit::BlockVariation& variation,
    int input_bit, const circuit::Environment& env,
    std::shared_ptr<circuit::SymbolicCache> symbolic_cache = nullptr,
    bool dense_solver = false);

/// I-V samples of a sweep circuit at the given voltages (exposed for the
/// Fig. 3 bench and tests).
std::vector<double> sweep_current(
    SweepCircuit& circuit, std::span<const double> voltages,
    const circuit::Environment& env,
    std::shared_ptr<circuit::SymbolicCache> symbolic_cache = nullptr);

/// The characterisation voltage grid: dense around the knee, sparser on the
/// plateau, with a small negative segment for the diode-blocked region.
std::vector<double> characterization_grid(const PpufParams& params);

}  // namespace ppuf
