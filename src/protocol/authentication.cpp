#include "protocol/authentication.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "maxflow/complete_kernel.hpp"
#include "obs/metrics.hpp"

namespace ppuf::protocol {

namespace {

/// Cheap shape checks on an untrusted report, done before anything touches
/// its vectors.  Returns the first problem found, empty when well-formed.
/// The verifier must reject — never throw or index out of bounds — on a
/// malformed report: the prover is an adversary, not a caller.
std::string report_shape_error(const ProverReport& report) {
  if (report.bit != 0 && report.bit != 1)
    return "malformed report: bit not in {0, 1}";
  if (!std::isfinite(report.flow_a))
    return "malformed report: flow_a not finite";
  if (!std::isfinite(report.flow_b))
    return "malformed report: flow_b not finite";
  if (!std::isfinite(report.elapsed_seconds) ||
      report.elapsed_seconds < 0.0) {
    return "malformed report: elapsed_seconds negative or not finite";
  }
  return {};
}

/// The residual-graph test of both claimed flows, the cheap side of the
/// asymmetry, run on the flat K_n kernel: each witness must have one finite
/// entry per edge and be feasible and maximum.  Returns the first failure,
/// labelled by network; empty when both witnesses pass.
std::string witness_error(const SimulationModel& model,
                          const Challenge& challenge,
                          const ProverReport& report, double tolerance) {
  for (int net = 0; net < 2; ++net) {
    const std::string label = net == 0 ? "network A: " : "network B: ";
    const char* which = net == 0 ? "edge_flow_a" : "edge_flow_b";
    const auto& flow = net == 0 ? report.edge_flow_a : report.edge_flow_b;
    maxflow::CompleteKernel& kernel = model.load_kernel(net, challenge);
    if (flow.size() != kernel.edge_count()) {
      return label + "malformed report: " + which + " has " +
             std::to_string(flow.size()) + " entries, graph has " +
             std::to_string(kernel.edge_count()) + " edges";
    }
    for (const double f : flow) {
      if (!std::isfinite(f))
        return label + "malformed report: " + which +
               " contains a non-finite flow";
    }
    try {
      const maxflow::VerifyResult v = kernel.verify(
          challenge.source, challenge.sink, flow, tolerance);
      if (!v.optimal) return label + v.reason;
    } catch (const std::exception& e) {
      return label + "verification error: " + e.what();
    }
  }
  return {};
}

/// The response bit the claimed flow values imply.
int implied_bit(const SimulationModel& model, const ProverReport& report) {
  return (report.flow_a - report.flow_b + model.comparator_offset()) > 0.0
             ? 1
             : 0;
}

constexpr const char* kBitInconsistent =
    "response bit inconsistent with claimed flows";

}  // namespace

Verifier::Verifier(const SimulationModel& model, double deadline_seconds,
                   double flow_tolerance)
    : model_(model), deadline_(deadline_seconds), tolerance_(flow_tolerance) {}

Challenge Verifier::issue_challenge(util::Rng& rng) const {
  return random_challenge(model_.layout(), rng);
}

AuthenticationResult Verifier::verify(const Challenge& challenge,
                                      const ProverReport& report) const {
  AuthenticationResult result;

  result.detail = report_shape_error(report);
  if (!result.detail.empty()) return result;

  result.in_time = report.elapsed_seconds <= deadline_;
  if (!result.in_time) {
    result.detail = "deadline exceeded";
    return result;
  }

  result.detail = witness_error(model_, challenge, report, tolerance_);
  if (!result.detail.empty()) return result;
  result.flows_valid = true;

  result.bit_consistent = report.bit == implied_bit(model_, report);
  if (!result.bit_consistent) {
    result.detail = kBitInconsistent;
    return result;
  }

  result.accepted = true;
  return result;
}

std::vector<AuthenticationResult> Verifier::verify_batch(
    const std::vector<Challenge>& challenges,
    const std::vector<ProverReport>& reports,
    const BatchVerifyOptions& options) const {
  if (challenges.size() != reports.size()) {
    throw std::invalid_argument(
        "verify_batch: challenges and reports differ in size");
  }
  std::vector<AuthenticationResult> results(challenges.size());
  if (challenges.empty()) return results;

  // Metric handles resolved once per batch (null when disabled) so the
  // per-item path touches only lock-free atomics.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Histogram* m_item_time =
      reg.enabled() ? &reg.histogram("protocol.verify_batch.item_time_us")
                    : nullptr;
  auto run_item = [&](std::size_t i) {
    obs::ScopedTimer timer(m_item_time);
    results[i] = verify(challenges[i], reports[i]);
  };

  if (options.pool == nullptr && options.thread_count <= 1) {
    for (std::size_t i = 0; i < challenges.size(); ++i) run_item(i);
  } else if (options.pool != nullptr) {
    options.pool->parallel_for(challenges.size(), run_item);
  } else {
    util::ThreadPool pool(options.thread_count);
    pool.parallel_for(challenges.size(), run_item);
  }

  if (reg.enabled()) {
    std::uint64_t accepted = 0;
    for (const AuthenticationResult& r : results)
      if (r.accepted) ++accepted;
    reg.counter("protocol.verify_batch.items").add(results.size());
    reg.counter("protocol.verify_batch.accepted").add(accepted);
    reg.counter("protocol.verify_batch.rejected")
        .add(results.size() - accepted);
  }
  return results;
}

ProverReport prove_with_ppuf(MaxFlowPpuf& instance,
                             const Challenge& challenge,
                             double modelled_delay_seconds) {
  const circuit::Environment env = circuit::Environment::nominal();
  ProverReport r;
  r.edge_flow_a = instance.network_a().execute_edge_currents(challenge, env);
  r.edge_flow_b = instance.network_b().execute_edge_currents(challenge, env);
  const MaxFlowPpuf::Evaluation ev = instance.evaluate(challenge, env);
  r.bit = ev.bit;
  r.flow_a = ev.current_a;
  r.flow_b = ev.current_b;
  r.elapsed_seconds = modelled_delay_seconds;
  return r;
}

ChainedVerifyResult verify_chain(const Verifier& verifier,
                                 const SimulationModel& model,
                                 const Challenge& first, std::size_t k,
                                 std::uint64_t protocol_nonce,
                                 const ChainedReport& report,
                                 std::size_t spot_checks, util::Rng& rng) {
  ChainedVerifyResult result;
  if (report.rounds.size() != k || k == 0) {
    result.detail = "wrong round count";
    return result;
  }
  if (!std::isfinite(report.elapsed_seconds) ||
      report.elapsed_seconds < 0.0) {
    result.detail = "malformed report: elapsed_seconds negative or not finite";
    return result;
  }
  // Every round's bit feeds the challenge-chain derivation below, so all
  // of them must be well-formed even when only a subset is spot-checked.
  for (std::size_t i = 0; i < k; ++i) {
    if (report.rounds[i].bit != 0 && report.rounds[i].bit != 1) {
      result.detail =
          "round " + std::to_string(i) + ": malformed report: bit not in {0, 1}";
      return result;
    }
  }

  result.in_time = report.elapsed_seconds <= verifier.deadline_seconds();
  if (!result.in_time) {
    result.detail = "deadline exceeded";
    return result;
  }

  // Re-derive the challenge chain from the reported responses; this is
  // cheap and pins every round's challenge.
  std::vector<Challenge> chain{first};
  for (std::size_t i = 0; i + 1 < k; ++i) {
    chain.push_back(next_challenge(model.layout(), chain.back(),
                                   report.rounds[i].bit, protocol_nonce));
  }
  result.chain_consistent = true;

  // Spot-check rounds (all of them when spot_checks == 0).
  std::vector<std::size_t> to_check;
  if (spot_checks == 0 || spot_checks >= k) {
    for (std::size_t i = 0; i < k; ++i) to_check.push_back(i);
  } else {
    for (std::size_t i = 0; i < spot_checks; ++i) {
      to_check.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(k) - 1)));
    }
  }
  for (const std::size_t i : to_check) {
    const ProverReport& round = report.rounds[i];
    std::string why = report_shape_error(round);
    if (why.empty())
      why = witness_error(model, chain[i], round, verifier.flow_tolerance());
    if (why.empty() && round.bit != implied_bit(model, round))
      why = kBitInconsistent;
    if (!why.empty()) {
      result.detail = "round " + std::to_string(i) + ": " + why;
      return result;
    }
  }
  result.rounds_valid = true;
  result.accepted = true;
  return result;
}

ChainedReport prove_chain_with_ppuf(MaxFlowPpuf& instance,
                                    const Challenge& first, std::size_t k,
                                    std::uint64_t protocol_nonce,
                                    double modelled_delay_seconds) {
  ChainedReport report;
  Challenge c = first;
  // Consecutive chain rounds flip only a handful of challenge bits, so each
  // round's operating point is an excellent Newton seed for the next.
  // Warm-starting is scoped to the chain: restore the instance's previous
  // mode on exit so one-shot evaluations stay bitwise repeatable.
  const bool was_warm = instance.warm_start_enabled();
  instance.set_warm_start(true);
  for (std::size_t i = 0; i < k; ++i) {
    report.rounds.push_back(
        prove_with_ppuf(instance, c, modelled_delay_seconds));
    if (i + 1 < k) {
      c = next_challenge(instance.layout(), c, report.rounds.back().bit,
                         protocol_nonce);
    }
  }
  instance.set_warm_start(was_warm);
  report.elapsed_seconds =
      modelled_delay_seconds * static_cast<double>(k);
  return report;
}

ChainedReport prove_chain_by_simulation(const SimulationModel& model,
                                        const Challenge& first, std::size_t k,
                                        std::uint64_t protocol_nonce,
                                        maxflow::Algorithm algorithm,
                                        const util::SolveControl& control) {
  const auto t0 = std::chrono::steady_clock::now();
  util::StopCheck stop(control, /*stride=*/1);
  ChainedReport report;
  Challenge c = first;
  for (std::size_t i = 0; i < k; ++i) {
    if (stop.should_stop()) {
      report.status = stop.status("prove_chain_by_simulation");
      break;
    }
    report.rounds.push_back(
        prove_by_simulation(model, c, algorithm, control));
    if (!report.rounds.back().status.is_ok()) {
      // The round itself ran out of budget; surface its reason and stop —
      // later rounds depend on this one's response anyway.
      report.status = report.rounds.back().status;
      break;
    }
    if (i + 1 < k) {
      c = next_challenge(model.layout(), c, report.rounds.back().bit,
                         protocol_nonce);
    }
  }
  report.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report;
}

ProverReport prove_by_simulation(const SimulationModel& model,
                                 const Challenge& challenge,
                                 maxflow::Algorithm algorithm,
                                 const util::SolveControl& control) {
  const auto t0 = std::chrono::steady_clock::now();
  ProverReport r;
  for (int net = 0; net < 2; ++net) {
    maxflow::FlowResult flow = model.solve(net, challenge, algorithm, control,
                                           /*edge_flows=*/true);
    if (net == 0) {
      r.flow_a = flow.value;
      r.edge_flow_a = std::move(flow.edge_flow);
    } else {
      r.flow_b = flow.value;
      r.edge_flow_b = std::move(flow.edge_flow);
    }
    if (!flow.ok()) {
      // Partial flows are kept for inspection, but the typed status tells
      // the caller this report cannot pass verification.
      r.status = flow.status;
      break;
    }
  }
  r.bit = implied_bit(model, r);
  r.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

}  // namespace ppuf::protocol
