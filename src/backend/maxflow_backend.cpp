#include "backend/maxflow_backend.hpp"

#include <utility>

#include "ppuf/feedback.hpp"
#include "ppuf/ppuf.hpp"
#include "protocol/codec.hpp"
#include "util/thread_pool.hpp"

namespace ppuf::backend {

namespace {

using protocol::codec::Reader;
using protocol::codec::Writer;
using util::Status;

/// One hydrated max-flow device: the public model plus its residual-graph
/// verifier.  The verifier holds a reference to `model_`, so instances
/// live on the heap and never move (member order matters: model first).
class MaxFlowDevice final : public Device {
 public:
  MaxFlowDevice(SimulationModel model, const MaterializeOptions& options)
      : model_(std::move(model)),
        verifier_(model_, options.verifier_deadline_seconds,
                  model_.mean_capacity() * options.flow_tolerance_fraction) {}

  BackendKind kind() const override { return BackendKind::kMaxFlow; }

  bool asymmetric_verify() const override { return true; }

  Status validate_challenge(const Challenge& c) const override {
    const CrossbarLayout& layout = model_.layout();
    if (c.source >= layout.node_count() || c.sink >= layout.node_count() ||
        c.source == c.sink)
      return Status::invalid_argument("challenge: bad source/sink pair");
    if (c.bits.size() != layout.cell_count())
      return Status::invalid_argument("challenge: wrong control-bit count");
    return Status::ok();
  }

  SimulationModel::Prediction predict(
      const Challenge& c, const util::SolveControl& control) const override {
    return model_.predict(c, maxflow::Algorithm::kPushRelabel, control);
  }

  std::vector<SimulationModel::Prediction> predict_batch(
      const std::vector<Challenge>& challenges,
      const SimulationModel::PredictBatchOptions& options) const override {
    return model_.predict_batch(challenges, options);
  }

  protocol::AuthenticationResult verify(
      const Challenge& c,
      const protocol::ProverReport& report) const override {
    return verifier_.verify(c, report);
  }

  std::vector<protocol::AuthenticationResult> verify_batch(
      const std::vector<Challenge>& challenges,
      const std::vector<protocol::ProverReport>& reports,
      const protocol::Verifier::BatchVerifyOptions& options) const override {
    return verifier_.verify_batch(challenges, reports, options);
  }

  Challenge issue_challenge(util::Rng& rng) const override {
    return verifier_.issue_challenge(rng);
  }

  double deadline_seconds() const override {
    return verifier_.deadline_seconds();
  }

  protocol::ChainedVerifyResult verify_chain(
      const Challenge& first, std::size_t chain_length, std::uint64_t nonce,
      const protocol::ChainedReport& report, std::size_t spot_checks,
      util::Rng& rng) const override {
    return protocol::verify_chain(verifier_, model_, first, chain_length,
                                  nonce, report, spot_checks, rng);
  }

 private:
  const SimulationModel model_;
  const protocol::Verifier verifier_;
};

}  // namespace

util::Status MaxFlowBackend::validate_geometry(std::size_t node_count,
                                               std::size_t grid_size) const {
  if (node_count < 2 || grid_size < 1 || grid_size > node_count)
    return Status::invalid_argument("enroll: invalid geometry");
  return Status::ok();
}

util::Status MaxFlowBackend::fabricate(
    const FabricateRequest& request,
    const std::shared_ptr<circuit::SymbolicCache>& symbolic_cache,
    std::vector<std::uint8_t>* model_bytes) const {
  if (Status s = validate_geometry(request.node_count, request.grid_size);
      !s.is_ok())
    return s;
  // Fabricate the instance and extract its public model — enrollment *is*
  // the publish step of the PPUF lifecycle.  The shared symbolic cache
  // gives fleet-level reuse: all devices' blocks share one netlist
  // topology, so block characterisation after the first enrollment skips
  // the MNA pattern build and sparse-LU symbolic analysis entirely.
  PpufParams params;
  params.node_count = request.node_count;
  params.grid_size = request.grid_size;
  MaxFlowPpuf puf(params, request.seed);
  if (symbolic_cache != nullptr) {
    puf.network_a().set_symbolic_cache(symbolic_cache);
    puf.network_b().set_symbolic_cache(symbolic_cache);
  }
  // The 4 n (n-1) block characterisations are independent: run them on a
  // pool that lives for this call only, so no worker outlives the enroll
  // (or is missing from a fork()ed child that enrolls).
  {
    util::ThreadPool pool(util::ThreadPool::default_thread_count());
    puf.prepare(circuit::Environment::nominal(), &pool);
  }
  SimulationModel model(puf);
  Writer w;
  protocol::codec::encode_sim_model(w, model);
  *model_bytes = w.take();
  return Status::ok();
}

util::Status MaxFlowBackend::validate_model(const std::uint8_t* data,
                                            std::size_t size,
                                            std::uint32_t nodes,
                                            std::uint32_t grid) const {
  Reader r(data, size);
  SimulationModel model;
  if (Status s = protocol::codec::decode_sim_model(r, &model); !s.is_ok())
    return s;
  if (!r.exhausted())
    return Status::invalid_argument("device entry model blob length");
  if (model.layout().node_count() != nodes ||
      model.layout().grid_size() != grid)
    return Status::invalid_argument("device entry geometry mismatch");
  return Status::ok();
}

util::Status MaxFlowBackend::materialize(
    const std::vector<std::uint8_t>& bytes, const MaterializeOptions& options,
    std::unique_ptr<Device>* out) const {
  Reader r(bytes.data(), bytes.size());
  SimulationModel model;
  if (Status s = protocol::codec::decode_sim_model(r, &model); !s.is_ok())
    return Status::internal("stored model blob is invalid: " + s.message());
  if (!r.exhausted())
    return Status::internal("stored model blob has trailing bytes");
  *out = std::make_unique<MaxFlowDevice>(std::move(model), options);
  return Status::ok();
}

}  // namespace ppuf::backend
