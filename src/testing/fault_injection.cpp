#include "testing/fault_injection.hpp"

#include <algorithm>
#include <stdexcept>

namespace ppuf::testing {

ScopedFaultInjection::ScopedFaultInjection(const FaultSpec& spec) {
  util::FaultHooks& hooks = util::FaultHooks::instance();
  hooks.reset();
  hooks.newton_direct_iteration_cap.store(spec.newton_direct_iteration_cap,
                                          std::memory_order_relaxed);
  hooks.newton_skip_gmin_stage.store(spec.newton_skip_gmin_stage,
                                     std::memory_order_relaxed);
  hooks.server_send_failures.store(spec.server_send_failures,
                                   std::memory_order_relaxed);
  hooks.registry_torn_write_bytes.store(spec.registry_torn_write_bytes,
                                        std::memory_order_relaxed);
  hooks.registry_append_failures.store(spec.registry_append_failures,
                                       std::memory_order_relaxed);
  hooks.registry_fsync_failures.store(spec.registry_fsync_failures,
                                      std::memory_order_relaxed);
  hooks.registry_rename_failures.store(spec.registry_rename_failures,
                                       std::memory_order_relaxed);
}

ScopedFaultInjection::~ScopedFaultInjection() {
  util::FaultHooks::instance().reset();
}

std::vector<std::size_t> FaultInjector::pick_indices(std::size_t size,
                                                     std::size_t count) {
  if (count > size)
    throw std::invalid_argument("pick_indices: count > size");
  // Partial Fisher-Yates over an index identity vector: the first `count`
  // slots end up a uniform sample without replacement.
  std::vector<std::size_t> all(size);
  for (std::size_t i = 0; i < size; ++i) all[i] = i;
  for (std::size_t i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(rng_.uniform_int(
        static_cast<std::int64_t>(i), static_cast<std::int64_t>(size) - 1));
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

circuit::Netlist FaultInjector::perturb_devices(
    const circuit::Netlist& netlist, double vth_sigma,
    double resistor_rel_sigma) {
  circuit::Netlist out = netlist;
  for (circuit::Netlist::Mosfet& m : out.mosfets())
    m.params.vth += rng_.gaussian(0.0, vth_sigma);
  for (circuit::Netlist::Resistor& r : out.resistors())
    r.resistance *= 1.0 + rng_.gaussian(0.0, resistor_rel_sigma);
  return out;
}

protocol::ProverReport FaultInjector::delay_report(
    protocol::ProverReport report, double delay_seconds) {
  report.elapsed_seconds += delay_seconds;
  return report;
}

}  // namespace ppuf::testing
