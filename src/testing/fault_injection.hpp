// Deterministic fault-injection harness.
//
// Robustness claims are only as good as the failures they were tested
// against, and the interesting failures here — Newton stalls, poisoned
// capacities, late provers — are rare in healthy instances.  This harness
// manufactures them on demand, seeded so every corrupted input is
// bit-for-bit reproducible:
//
//   - ScopedFaultInjection arms the process-wide util::FaultHooks (the tiny
//     atomic hook points the solvers consult) and restores a clean slate on
//     scope exit, so a failing test cannot leak faults into the next one;
//   - FaultInjector derives corrupted copies of real inputs: perturbed
//     device parameters, delayed prover reports.
//
// The harness lives above every subsystem it corrupts; production code
// never links it.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/netlist.hpp"
#include "protocol/authentication.hpp"
#include "util/fault_hooks.hpp"
#include "util/rng.hpp"

namespace ppuf::testing {

/// Declarative description of the process-wide hooks to arm.
struct FaultSpec {
  /// >0: cap the iteration budget of the *direct* Newton rung, forcing the
  /// recovery ladder to engage deterministically.
  int newton_direct_iteration_cap = 0;
  /// Skip the gmin-stepping rung so a test can pin which deeper rung
  /// recovers.
  bool newton_skip_gmin_stage = false;
  /// The next N AuthServer socket sends fail as if the peer reset the
  /// connection (deterministic close-mid-pipeline).
  int server_send_failures = 0;
  /// >= 0: the next registry WAL append writes only this many bytes of the
  /// record and then fails as if the process died (torn tail).  One-shot.
  int registry_torn_write_bytes = -1;
  /// The next N registry WAL appends fail before writing anything, as if
  /// the disk were full (typed error, state unchanged).
  int registry_append_failures = 0;
  /// The next N registry fsyncs (WAL append, snapshot .tmp, directory)
  /// fail; the caller must treat the data as uncommitted.
  int registry_fsync_failures = 0;
  /// The next N registry snapshot renames fail; compaction must keep the
  /// old snapshot + WAL intact.
  int registry_rename_failures = 0;
};

/// RAII arming of util::FaultHooks.  Restores an all-clear state on
/// destruction, including on exceptions and test assertion unwinds.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const FaultSpec& spec);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

/// Seeded source of corrupted-but-reproducible inputs.
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed) : rng_(seed) {}

  /// `count` distinct indices in [0, size), deterministic in the seed.
  std::vector<std::size_t> pick_indices(std::size_t size, std::size_t count);

  /// Copy of `netlist` with every MOSFET threshold shifted by a gaussian
  /// draw of stddev `vth_sigma` volts and every resistor scaled by
  /// (1 + gaussian(0, resistor_rel_sigma)).
  circuit::Netlist perturb_devices(const circuit::Netlist& netlist,
                                   double vth_sigma,
                                   double resistor_rel_sigma);

  /// The report a too-slow prover would send: same claims, elapsed time
  /// pushed past whatever it was by `delay_seconds`.
  static protocol::ProverReport delay_report(protocol::ProverReport report,
                                             double delay_seconds);

 private:
  util::Rng rng_;
};

}  // namespace ppuf::testing
