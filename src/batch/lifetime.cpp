#include "batch/lifetime.hpp"

#include "batch/engine.hpp"
#include "common/contracts.hpp"

namespace fcdpm::batch {

namespace {

sim::SimulationResult pass_trampoline(const wl::Trace& trace,
                                      dpm::DpmPolicy& dpm_policy,
                                      core::FcOutputPolicy& fc_policy,
                                      power::HybridPowerSource& hybrid,
                                      const sim::SimulationOptions& options,
                                      void* ctx) {
  const auto* compiled = static_cast<const sim::CompiledTrace*>(ctx);
  FCDPM_EXPECTS(&compiled->trace() == &trace,
                "lifetime pass trampoline called with a foreign trace");
  return simulate(*compiled, dpm_policy, fc_policy, hybrid, options);
}

}  // namespace

sim::LifetimeResult measure_lifetime(const sim::CompiledTrace& trace,
                                     dpm::DpmPolicy& dpm_policy,
                                     core::FcOutputPolicy& fc_policy,
                                     power::HybridPowerSource& hybrid,
                                     sim::LifetimeOptions options) {
  options.engine = &pass_trampoline;
  options.engine_ctx = const_cast<sim::CompiledTrace*>(&trace);
  return sim::measure_lifetime(trace.trace(), dpm_policy, fc_policy, hybrid,
                               options);
}

}  // namespace fcdpm::batch
