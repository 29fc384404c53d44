// Time-bound authentication protocol built on the ESG.
//
// The verifier holds only the PUBLIC model (per-edge capacities).  It issues
// a challenge with a response deadline chosen between the PPUF execution
// delay and the max-flow simulation lower bound: the genuine holder answers
// in time by executing silicon; an impersonator must simulate max-flow and
// misses the deadline.  Correctness of the claimed flows is checked with the
// cheap residual-graph verification of Section 2 — the verifier never solves
// max-flow itself.
//
// Timing semantics: the prover self-reports `elapsed_seconds`.  For the
// honest prover this is the *modelled chip delay* (our host must simulate
// the analog settling, which the chip does in ~nanoseconds); for the
// simulating attacker it is genuine wall-clock time of its max-flow solves.
// DESIGN.md discusses this substitution.
#pragma once

#include <string>
#include <vector>

#include "maxflow/solver.hpp"
#include "ppuf/feedback.hpp"
#include "ppuf/sim_model.hpp"
#include "util/status.hpp"

namespace ppuf::protocol {

/// What a prover sends back for one challenge.
struct ProverReport {
  int bit = 0;
  double flow_a = 0.0;
  double flow_b = 0.0;
  std::vector<double> edge_flow_a;  ///< claimed flow function, network A
  std::vector<double> edge_flow_b;  ///< network B
  double elapsed_seconds = 0.0;     ///< prover's claimed/measured time
  /// Prover-side outcome: non-ok when the prover's own solve was cancelled
  /// or timed out (the verifier never trusts this field — it re-checks
  /// everything).
  util::Status status;
};

struct AuthenticationResult {
  bool accepted = false;
  bool flows_valid = false;    ///< both claimed flows feasible and maximum
  bool bit_consistent = false; ///< response bit matches the claimed flows
  bool in_time = false;        ///< met the deadline
  std::string detail;          ///< first failed check, empty when accepted
};

class Verifier {
 public:
  /// `model` must outlive the verifier.  `deadline_seconds` should sit
  /// between the execution delay and the simulation lower bound.
  /// `flow_tolerance` absorbs the circuit-vs-max-flow inaccuracy when
  /// checking the holder's analog flow claims: the *value* error is <1%
  /// (Fig. 6), but individual min-cut edges can sit up to ~8% of the mean
  /// capacity below saturation when short on voltage headroom, so ~10% of
  /// the mean edge capacity is a robust setting.
  Verifier(const SimulationModel& model, double deadline_seconds,
           double flow_tolerance);

  Challenge issue_challenge(util::Rng& rng) const;

  AuthenticationResult verify(const Challenge& challenge,
                              const ProverReport& report) const;

  struct BatchVerifyOptions {
    /// Optional shared pool (non-owning); null runs the batch serially on
    /// the calling thread.  A verifier serving heavy authentication
    /// traffic should hold one pool for its lifetime.
    util::ThreadPool* pool = nullptr;
  };

  /// Verify many (challenge, report) pairs in one call; reports[i] answers
  /// challenges[i].  Items are independent, so they fan out across the
  /// pool — this is the paper's O(n^2/p) verifier-side parallelism applied
  /// across requests.  Results are in input order and identical to calling
  /// verify() per item.  Throws std::invalid_argument on a size mismatch
  /// (a caller bug, unlike a malformed report, which is adversary data and
  /// yields a rejection).
  std::vector<AuthenticationResult> verify_batch(
      const std::vector<Challenge>& challenges,
      const std::vector<ProverReport>& reports,
      const BatchVerifyOptions& options) const;
  std::vector<AuthenticationResult> verify_batch(
      const std::vector<Challenge>& challenges,
      const std::vector<ProverReport>& reports) const {
    return verify_batch(challenges, reports, BatchVerifyOptions{});
  }

  double deadline_seconds() const { return deadline_; }
  double flow_tolerance() const { return tolerance_; }

 private:
  const SimulationModel& model_;
  double deadline_;
  double tolerance_;
};

/// Honest prover: executes the PPUF and reports its edge currents; elapsed
/// time is the modelled execution delay (chip-speed).
ProverReport prove_with_ppuf(MaxFlowPpuf& instance,
                             const Challenge& challenge,
                             double modelled_delay_seconds);

/// Impersonator: solves the two max-flow problems from the public model;
/// elapsed time is real wall-clock.  `control` bounds the simulation: when
/// it fires, the report comes back partial with a typed status instead of
/// hanging past the caller's budget.
ProverReport prove_by_simulation(const SimulationModel& model,
                                 const Challenge& challenge,
                                 maxflow::Algorithm algorithm =
                                     maxflow::Algorithm::kPushRelabel,
                                 const util::SolveControl& control = {});

// --- Chained (feedback-loop) authentication -------------------------------
//
// The k-round variant that amplifies the ESG (Section 3.3): challenge
// C_{i+1} is the public successor of (C_i, R_i), so the prover must answer
// sequentially.  The verifier re-derives the challenge chain from the
// reported responses, spot-checks a random subset of rounds with the
// residual-graph test, and enforces the (k-scaled) deadline.

struct ChainedReport {
  std::vector<ProverReport> rounds;  ///< one report per round, in order
  double elapsed_seconds = 0.0;      ///< total prover time for the chain
  /// Non-ok when the prover stopped early (cancelled / out of budget);
  /// `rounds` then holds only the rounds finished before the stop.
  util::Status status;
};

struct ChainedVerifyResult {
  bool accepted = false;
  bool chain_consistent = false;  ///< every C_{i+1} matches the successor fn
  bool rounds_valid = false;      ///< all spot-checked rounds pass
  bool in_time = false;
  std::string detail;
};

/// Verify a chained report.  `spot_checks` rounds are drawn with `rng` and
/// fully verified (0 = verify every round).
ChainedVerifyResult verify_chain(const Verifier& verifier,
                                 const SimulationModel& model,
                                 const Challenge& first, std::size_t k,
                                 std::uint64_t protocol_nonce,
                                 const ChainedReport& report,
                                 std::size_t spot_checks, util::Rng& rng);

/// Honest holder: executes the chain on silicon; elapsed time is k times
/// the modelled per-round delay.
ChainedReport prove_chain_with_ppuf(MaxFlowPpuf& instance,
                                    const Challenge& first, std::size_t k,
                                    std::uint64_t protocol_nonce,
                                    double modelled_delay_seconds);

/// Impersonator: simulates the chain sequentially (wall-clock measured).
/// `control` is checked between rounds; on expiry the report returns with
/// the rounds finished so far and a typed status.
ChainedReport prove_chain_by_simulation(const SimulationModel& model,
                                        const Challenge& first, std::size_t k,
                                        std::uint64_t protocol_nonce,
                                        maxflow::Algorithm algorithm =
                                            maxflow::Algorithm::kPushRelabel,
                                        const util::SolveControl& control =
                                            {});

}  // namespace ppuf::protocol
