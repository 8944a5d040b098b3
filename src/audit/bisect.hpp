// Divergence bisection: given a (config, policy) whose batched-engine
// run does not bit-match the reference engine, binary-search the shortest
// trace prefix that still diverges — its last slot is the first slot
// where the engines disagree — and dump a minimized repro (the trace
// window around the slot plus the entry state), turning a CI identity
// failure into an actionable artifact.
//
// The search runs both engines on truncated copies of the trace
// (O(log n) runs); it assumes divergence is persistent (once a prefix
// diverges, longer prefixes do too), which holds for any deterministic
// accounting defect.
#pragma once

#include <cstddef>
#include <string>

#include "audit/audit.hpp"
#include "sim/experiments.hpp"

namespace fcdpm::audit {

struct BisectOptions {
  /// Synthetic batched-engine defect (test hook / CI smoke): the
  /// batched runner's trace copy gets this slot's active duration scaled by
  /// (1 + 2^-30), so the engines genuinely diverge starting at this
  /// slot on an otherwise healthy build. npos = off.
  std::size_t perturb_slot = npos;
};

struct BisectReport {
  /// False when the full-trace runs already bit-match (nothing to do).
  bool diverged = false;
  /// First slot (0-based) whose inclusion makes the engines disagree.
  std::size_t first_divergent_slot = npos;
  /// Engine-pair runs the search performed.
  std::size_t runs = 0;
  /// Both engines' results at the minimal divergent prefix.
  sim::SimulationResult reference;
  sim::SimulationResult batched;
  /// Reference-engine state entering the divergent slot (end of the
  /// prefix that still agrees).
  double entry_fuel_as = 0.0;
  double entry_storage_as = 0.0;
};

/// Bitwise comparison of the observable run outcome (totals, storage
/// extremes, sleeps, latency) — the same discipline the CI identity
/// gates use.
[[nodiscard]] bool same_run_bits(const sim::SimulationResult& a,
                                 const sim::SimulationResult& b) noexcept;

/// Run the search. Faults, observers and governors are never attached
/// (bisect targets the clean-path engines); a config with capping
/// enabled is refused (checked), since it would compare the reference
/// loop with itself.
[[nodiscard]] BisectReport bisect_point(const sim::ExperimentConfig& config,
                                        sim::PolicyKind policy,
                                        const BisectOptions& options = {});

/// Write `<path_prefix>.json` (entry state + per-engine values at the
/// divergent slot, doubles as %.17g and raw bit patterns) and
/// `<path_prefix>_window.csv` (a runnable trace of the slots around the
/// divergence). Both land via atomic rename.
void write_repro(const std::string& path_prefix,
                 const sim::ExperimentConfig& config, sim::PolicyKind policy,
                 const BisectReport& report);

}  // namespace fcdpm::audit
