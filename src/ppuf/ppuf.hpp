// The complete PPUF (Fig. 1): two nominally identical crossbar networks
// differing only in process variation, a current comparator on the two
// source currents, and the challenge interface.
#pragma once

#include <cstdint>
#include <optional>

#include "ppuf/crossbar.hpp"

namespace ppuf {

class MaxFlowPpuf {
 public:
  /// Fabricate an instance: draws the systematic surface and both
  /// networks' process variation, plus the comparator offset.  The same
  /// seed always fabricates the same instance.
  MaxFlowPpuf(const PpufParams& params, std::uint64_t seed);

  const PpufParams& params() const { return params_; }
  const CrossbarLayout& layout() const { return layout_; }

  CrossbarNetwork& network_a() { return network_a_; }
  CrossbarNetwork& network_b() { return network_b_; }
  const CrossbarNetwork& network_a() const { return network_a_; }
  const CrossbarNetwork& network_b() const { return network_b_; }

  /// Instance comparator offset (part of the public model — it can be
  /// measured once and published).
  double comparator_offset() const { return comparator_offset_; }

  struct Evaluation {
    int bit = 0;
    double current_a = 0.0;  ///< steady-state source current, network A [A]
    double current_b = 0.0;  ///< network B [A]
    bool converged = false;
    /// Recovery-ladder traces of the two network solves — when converged
    /// is false these say which stages were tried and how far they got.
    circuit::SolveDiagnostics diagnostics_a;
    circuit::SolveDiagnostics diagnostics_b;
  };

  /// Execute one challenge.  `noise_rng`, when provided, adds the
  /// comparator's per-evaluation input-referred noise; pass nullptr for the
  /// noiseless (expected-value) response.
  Evaluation evaluate(const Challenge& challenge,
                      const circuit::Environment& env =
                          circuit::Environment::nominal(),
                      util::Rng* noise_rng = nullptr);

  /// Pre-characterise both networks for `env` (evaluate() does this
  /// lazily), on `pool` when given (see CrossbarNetwork::prepare).
  void prepare(const circuit::Environment& env,
               util::ThreadPool* pool = nullptr);

  /// Opt in to warm-starting each network's Newton solve from its previous
  /// converged execution.  Chained authentication flips only a handful of
  /// challenge bits per round, so the previous operating point is an
  /// excellent initial guess.  Off by default: cold starts keep evaluate()
  /// bitwise repeatable.  Response *bits* are identical either way (the
  /// differential suite asserts it).
  void set_warm_start(bool enabled) {
    network_a_.set_warm_start(enabled);
    network_b_.set_warm_start(enabled);
  }
  bool warm_start_enabled() const { return network_a_.warm_start_enabled(); }

  /// Characterise both networks' blocks through the dense LU oracle
  /// instead of the sparse core: the differential tests' per-device
  /// switch.  Not part of the published model.
  void set_dense_solver(bool dense) {
    network_a_.set_dense_solver(dense);
    network_b_.set_dense_solver(dense);
  }

  /// The per-device symbolic cache shared by both networks' block
  /// characterisations (one MNA pattern + sparse-LU analysis per device).
  const std::shared_ptr<circuit::SymbolicCache>& symbolic_cache() const {
    return network_a_.symbolic_cache();
  }

 private:
  PpufParams params_;
  CrossbarLayout layout_;
  circuit::SystematicSurface surface_;
  CrossbarNetwork network_a_;
  CrossbarNetwork network_b_;
  double comparator_offset_ = 0.0;
};

}  // namespace ppuf
