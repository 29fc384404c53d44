// Pluggable PUF backend subsystem.
//
// The serving stack (registry, hydration cache, auth server, tooling) is
// written against two abstractions:
//
//  - `PufBackend`: a *family* of devices — fabricate an instance from a
//    seed, derive its public model as an opaque byte blob, validate a
//    stored blob, and materialise a serving-side `Device` from it.
//  - `Device`: one hydrated device — predict / verify / issue challenges /
//    verify chained reports, mirroring exactly the calls the AuthServer
//    makes per request.
//
// Two implementations register here: `kMaxFlow` wraps the paper's crossbar
// SimulationModel + residual-graph Verifier (bit-for-bit the pre-backend
// serving path), and `kPdlDelay` is the classic arbiter/PDL delay PUF the
// paper compares against in Fig. 10 — learnable with modest CRP counts,
// and with NO verify-time asymmetry (`asymmetric_verify()` is false: a
// simulator answers a linear model as fast as the chip does).
//
// The backend tag is a wire/storage byte: values are stable, never reused.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ppuf/challenge.hpp"
#include "ppuf/sim_model.hpp"
#include "protocol/authentication.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace ppuf::circuit {
class SymbolicCache;  // circuit/mna.hpp
}

namespace ppuf::backend {

/// Stable on-wire / on-disk backend identifiers.  0 is reserved (decoders
/// reject it) so an uninitialised byte never aliases a real backend.
enum class BackendKind : std::uint8_t {
  kMaxFlow = 1,
  kPdlDelay = 2,
};

/// Canonical CLI / log name: "maxflow" or "pdl".  Unknown kinds print as
/// "unknown".
const char* backend_name(BackendKind kind);

/// Parse a CLI name ("maxflow" / "pdl").  Returns false on anything else.
bool parse_backend(const std::string& name, BackendKind* out);

/// Fabrication request, in the backend's own units.  For max-flow,
/// (node_count, grid_size) is the crossbar geometry; for PDL, node_count
/// is the number of chain stages and grid_size the number of XORed
/// instances.  The registry stores both verbatim as the entry's
/// (nodes, grid) mirror fields.
struct FabricateRequest {
  std::size_t node_count = 0;
  std::size_t grid_size = 0;
  std::uint64_t seed = 0;
};

struct MaterializeOptions {
  double verifier_deadline_seconds = 1.0;
  /// Tolerance knob in backend-native units: max-flow scales it by the
  /// model's mean edge capacity; PDL applies it to delay margins directly.
  double flow_tolerance_fraction = 0.10;
};

/// One hydrated device.  Instances are heap-allocated and never moved
/// (implementations hold internal references); all methods are const and
/// safe to call from multiple worker threads concurrently.
class Device {
 public:
  virtual ~Device() = default;

  virtual BackendKind kind() const = 0;

  /// True when verification is time-asymmetric (the paper's ESG): an
  /// impersonator simulating the public model misses the deadline.  False
  /// for delay PUFs, whose public model evaluates as fast as the silicon.
  virtual bool asymmetric_verify() const = 0;

  /// Shape/range check for an adversary-supplied challenge.
  virtual util::Status validate_challenge(const Challenge& c) const = 0;

  virtual SimulationModel::Prediction predict(
      const Challenge& c, const util::SolveControl& control) const = 0;

  /// Batch predict; honours options.deadlines / options.cache the same way
  /// SimulationModel::predict_batch does (backends without per-item solver
  /// cost still respect deadlines so expiry semantics stay uniform).
  virtual std::vector<SimulationModel::Prediction> predict_batch(
      const std::vector<Challenge>& challenges,
      const SimulationModel::PredictBatchOptions& options) const = 0;

  virtual protocol::AuthenticationResult verify(
      const Challenge& c, const protocol::ProverReport& report) const = 0;

  virtual std::vector<protocol::AuthenticationResult> verify_batch(
      const std::vector<Challenge>& challenges,
      const std::vector<protocol::ProverReport>& reports,
      const protocol::Verifier::BatchVerifyOptions& options) const = 0;

  virtual Challenge issue_challenge(util::Rng& rng) const = 0;

  virtual double deadline_seconds() const = 0;

  virtual protocol::ChainedVerifyResult verify_chain(
      const Challenge& first, std::size_t chain_length, std::uint64_t nonce,
      const protocol::ChainedReport& report, std::size_t spot_checks,
      util::Rng& rng) const = 0;
};

/// A backend: fabrication + blob validation + hydration for one PUF family.
/// Implementations are stateless singletons; pointers from find_backend()
/// are valid for the process lifetime.
class PufBackend {
 public:
  virtual ~PufBackend() = default;

  virtual BackendKind kind() const = 0;
  virtual const char* name() const = 0;

  /// Geometry bounds for FabricateRequest, mirrored by the registry's
  /// enroll-time validation.
  virtual util::Status validate_geometry(std::size_t node_count,
                                         std::size_t grid_size) const = 0;

  /// Fabricate an instance from the seed and serialise its PUBLIC model.
  /// `symbolic_cache` is the fleet-level circuit cache (max-flow reuses
  /// block characterisation across enrollments; other backends ignore it).
  virtual util::Status fabricate(
      const FabricateRequest& request,
      const std::shared_ptr<circuit::SymbolicCache>& symbolic_cache,
      std::vector<std::uint8_t>* model_bytes) const = 0;

  /// Full structural validation of a stored blob against the record's
  /// (nodes, grid) mirror fields — called on every record decode, so a
  /// corrupted or geometry-forged blob is a typed error at recovery time,
  /// not a crash at hydration time.
  virtual util::Status validate_model(const std::uint8_t* data,
                                      std::size_t size, std::uint32_t nodes,
                                      std::uint32_t grid) const = 0;

  /// Materialise a serving Device from a validated blob.
  virtual util::Status materialize(const std::vector<std::uint8_t>& bytes,
                                   const MaterializeOptions& options,
                                   std::unique_ptr<Device>* out) const = 0;
};

/// Registry lookups; nullptr for unknown kinds/names (callers turn that
/// into a typed kInvalidArgument).
const PufBackend* find_backend(BackendKind kind);
const PufBackend* find_backend(const std::string& name);

}  // namespace ppuf::backend
