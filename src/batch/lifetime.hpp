// Lifetime measurement over the batched engine: sim::measure_lifetime
// with every pass (including the crossing re-run) routed through
// batch::simulate via the PassEngine hook. Bit-identical to the
// reference measurement — the steady-state signature comparison and the
// crossing-pass re-run contract hold, because each pass is.
#pragma once

#include "sim/compiled_trace.hpp"
#include "sim/lifetime.hpp"

namespace fcdpm::batch {

/// sim::measure_lifetime(trace.trace(), ...) with passes executed by
/// batch::simulate over `trace`. Any engine/engine_ctx already set in
/// `options` is overwritten.
[[nodiscard]] sim::LifetimeResult measure_lifetime(
    const sim::CompiledTrace& trace, dpm::DpmPolicy& dpm_policy,
    core::FcOutputPolicy& fc_policy, power::HybridPowerSource& hybrid,
    sim::LifetimeOptions options = {});

}  // namespace fcdpm::batch
