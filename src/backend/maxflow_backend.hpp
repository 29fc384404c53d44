// Max-flow crossbar backend: wraps the existing SimulationModel +
// protocol::Verifier serving path behind the backend::Device interface.
// Fabrication, blob format, validation, and verification are bit-for-bit
// the pre-backend registry/enroll/hydration code paths (proven by the
// golden corpus and the sparse-vs-dense differential suite).
#pragma once

#include <memory>

#include "backend/backend.hpp"

namespace ppuf::backend {

class MaxFlowBackend final : public PufBackend {
 public:
  BackendKind kind() const override { return BackendKind::kMaxFlow; }
  const char* name() const override { return "maxflow"; }
  util::Status validate_geometry(std::size_t node_count,
                                 std::size_t grid_size) const override;
  util::Status fabricate(
      const FabricateRequest& request,
      const std::shared_ptr<circuit::SymbolicCache>& symbolic_cache,
      std::vector<std::uint8_t>* model_bytes) const override;
  util::Status validate_model(const std::uint8_t* data, std::size_t size,
                              std::uint32_t nodes,
                              std::uint32_t grid) const override;
  util::Status materialize(const std::vector<std::uint8_t>& bytes,
                           const MaterializeOptions& options,
                           std::unique_ptr<Device>* out) const override;
};

}  // namespace ppuf::backend
