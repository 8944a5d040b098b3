// Direct lifetime measurement: loop a workload until a finite fuel tank
// runs dry. This is the paper's headline metric ("up to 32 % more system
// lifetime") measured head-on rather than inferred from fuel ratios —
// the two must agree because fuel burn is stationary across passes.
//
// Stationarity is also what makes the measurement cheap: once the
// policies and the buffer settle into a periodic steady state, every
// further pass is bit-identical, and the remaining passes can be
// answered arithmetically instead of re-simulated (the steady-state
// fast path below).
#pragma once

#include <span>

#include "core/fc_policy.hpp"
#include "dpm/dpm_policy.hpp"
#include "power/hybrid.hpp"
#include "sim/metrics.hpp"
#include "sim/slot_simulator.hpp"
#include "workload/trace.hpp"

namespace fcdpm::sim {

/// Pluggable single-pass engine for measure_lifetime: same signature as
/// sim::simulate plus an opaque context. Lets fcdpm::batch run the
/// passes through its compiled-trace loop without sim depending on
/// batch (the dependency points the other way).
using PassEngine = SimulationResult (*)(const wl::Trace& trace,
                                        dpm::DpmPolicy& dpm_policy,
                                        core::FcOutputPolicy& fc_policy,
                                        power::HybridPowerSource& hybrid,
                                        const SimulationOptions& options,
                                        void* ctx);

struct LifetimeOptions {
  /// Tank size in fuel A-s (stack charge).
  Coulomb tank{3600.0};
  SimulationOptions simulation;
  /// Engine executing each pass; nullptr (default) = sim::simulate.
  /// Any non-null engine must be bit-identical to the reference — the
  /// crossing-pass re-run contract (`recorded fuel == pass fuel`) and
  /// the steady-state signature comparison both assume it.
  PassEngine engine = nullptr;
  /// Opaque pointer handed to `engine` on every call (e.g. the
  /// batched engine's CompiledTrace). Not owned.
  void* engine_ctx = nullptr;
  /// Safety bound on workload repetitions.
  std::size_t max_passes = 100000;
  /// Steady-state fast path: once `convergence_passes` consecutive
  /// passes produce bit-identical pass-level results (fuel, duration,
  /// end-of-pass storage, sleeps, latency, bleed, unserved), the
  /// remaining whole passes are extrapolated by replaying exactly the
  /// additions the simulated passes would have performed — the answer
  /// (lifetime, pass count, slot count, average current) is
  /// bit-identical to the brute-force loop, and the crossing pass is
  /// still simulated and interpolated. The fast path is skipped when a
  /// fault injector is attached: faults live on the absolute timeline
  /// and an extrapolated pass could silently jump a future fault window.
  bool steady_state = true;
  /// Consecutive bit-identical passes required before extrapolating.
  std::size_t convergence_passes = 3;
};

struct LifetimeResult {
  /// Operational time until the tank emptied.
  Seconds lifetime{0.0};
  /// Whole task slots completed before the cutoff.
  std::size_t slots_completed = 0;
  /// Full passes over the workload.
  std::size_t passes = 0;
  /// True when the tank actually emptied within max_passes.
  bool tank_emptied = false;
  /// Average fuel current over the measured life; 0 when the measured
  /// lifetime is zero (degenerate crossing), never Inf.
  Ampere average_fuel_current{0.0};
  /// Passes actually executed by the simulator. The crossing pass
  /// counts once; its record-keeping re-run is counted separately.
  std::size_t simulated_passes = 0;
  /// Whole passes answered arithmetically by the steady-state fast path.
  std::size_t extrapolated_passes = 0;
  /// Passes simulated with slot records kept — at most 1: only the
  /// crossing pass is re-run (from a pre-pass snapshot) with records.
  std::size_t record_passes = 0;
};

/// Where the tank ran dry within the crossing pass.
struct CrossingPoint {
  /// Time into the pass at the interpolated crossing instant.
  Seconds elapsed_in_pass{0.0};
  /// Whole slots completed inside the pass before the crossing slot.
  std::size_t slots_completed = 0;
  /// False when the records never reach `tank` (caller contract bug).
  bool crossed = false;
};

/// Walk the crossing pass's slot records against the cumulative fuel
/// series `fuel_start + record.fuel_end` — the same accumulator the
/// emptiness test reads, so if the pass total crossed the tank the walk
/// is guaranteed to find the crossing slot (re-summing per-slot
/// `record.fuel` deltas is NOT: accumulated rounding lets the re-sum
/// fall short of the pass total and the walk overrun by a whole pass).
/// Interpolates linearly inside the crossing slot. Exposed for tests.
[[nodiscard]] CrossingPoint resolve_crossing(
    std::span<const SlotRecord> records, Coulomb fuel_start, Coulomb tank);

/// Measure the operational lifetime of (dpm, fc) on `trace`, looping the
/// trace until `options.tank` of fuel is burned. Policies keep their
/// state across passes (steady-state behaviour, as on a real device).
/// Between passes the hybrid's totals are folded into its epoch clock
/// (`HybridPowerSource::reset_totals`), so on return `hybrid.totals()`
/// covers only the final simulated pass while `hybrid.elapsed_time()`
/// spans the whole measurement.
[[nodiscard]] LifetimeResult measure_lifetime(
    const wl::Trace& trace, dpm::DpmPolicy& dpm_policy,
    core::FcOutputPolicy& fc_policy, power::HybridPowerSource& hybrid,
    const LifetimeOptions& options);

}  // namespace fcdpm::sim
