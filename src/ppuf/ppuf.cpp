#include "ppuf/ppuf.hpp"

#include "circuit/mna.hpp"

namespace ppuf {

namespace {
/// Deterministic per-instance fabrication stream.
util::Rng make_fab_rng(std::uint64_t seed) {
  return util::Rng(seed ^ 0xc2b2ae3d27d4eb4fULL);
}
}  // namespace

MaxFlowPpuf::MaxFlowPpuf(const PpufParams& params, std::uint64_t seed)
    : params_(params),
      layout_(params.node_count, params.grid_size),
      surface_(),
      network_a_([&] {
        util::Rng rng = make_fab_rng(seed);
        surface_ = circuit::SystematicSurface(params_.variation, rng);
        return CrossbarNetwork(params_, layout_, rng, surface_);
      }()),
      network_b_([&] {
        // Independent stream for network B's mismatch.  With the paper's
        // side-by-side placement (Section 4.1) it shares network A's
        // systematic surface; the naive-layout ablation draws its own.
        util::Rng rng = make_fab_rng(seed ^ 0x9e3779b97f4a7c15ULL);
        if (!params_.paired_systematic_placement) {
          const circuit::SystematicSurface own(params_.variation, rng);
          return CrossbarNetwork(params_, layout_, rng, own);
        }
        return CrossbarNetwork(params_, layout_, rng, surface_);
      }()) {
  util::Rng rng = make_fab_rng(seed ^ 0xd6e8feb86659fd93ULL);
  comparator_offset_ =
      rng.gaussian(0.0, params_.comparator_offset_sigma);
  // One symbolic cache per device: both networks' blocks share a netlist
  // topology, so the MNA pattern and sparse-LU analysis are computed once
  // and replayed for all 4 n (n-1) characterisation sweeps.
  auto cache = std::make_shared<circuit::SymbolicCache>();
  network_a_.set_symbolic_cache(cache);
  network_b_.set_symbolic_cache(cache);
}

void MaxFlowPpuf::prepare(const circuit::Environment& env,
                          util::ThreadPool* pool) {
  network_a_.prepare(env, pool);
  network_b_.prepare(env, pool);
}

MaxFlowPpuf::Evaluation MaxFlowPpuf::evaluate(const Challenge& challenge,
                                              const circuit::Environment& env,
                                              util::Rng* noise_rng) {
  Evaluation out;
  const CrossbarNetwork::Execution a = network_a_.execute(challenge, env);
  const CrossbarNetwork::Execution b = network_b_.execute(challenge, env);
  out.current_a = a.source_current;
  out.current_b = b.source_current;
  out.converged = a.converged && b.converged;
  out.diagnostics_a = a.diagnostics;
  out.diagnostics_b = b.diagnostics;
  double margin = a.source_current - b.source_current + comparator_offset_;
  if (noise_rng != nullptr)
    margin += noise_rng->gaussian(0.0, params_.comparator_noise_sigma);
  out.bit = margin > 0.0 ? 1 : 0;
  return out;
}

}  // namespace ppuf
