// Deterministic parallel sweep engine.
//
// A sweep grid (policy x rho x capacity x fault-storm seed) is fanned
// across the worker pool; every worker builds its *own* policies,
// hybrid source and fault injector for each point (nothing mutable is
// shared between points), and stores its result at the point's grid
// index. Results are therefore bit-identical for any job count —
// `--jobs 8` must reproduce `--jobs 1` exactly, and the tests hold it
// to that.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/context.hpp"
#include "sim/cancellation.hpp"
#include "sim/compiled_trace.hpp"
#include "sim/experiments.hpp"

namespace fcdpm::telemetry {
class SweepTelemetry;
}  // namespace fcdpm::telemetry

namespace fcdpm::par {

/// One point of the sweep grid.
struct SweepPoint {
  sim::PolicyKind policy = sim::PolicyKind::FcDpm;
  double rho = 0.5;
  Coulomb capacity{6.0};
  std::uint64_t storm_seed = 0;  ///< 0 = fault-free
  /// Multi-stack axis: 0 = run the base config's source unchanged;
  /// N >= 1 forces an N-stack source with `distribution`.
  std::size_t stacks = 0;
  stacks::Distribution distribution = stacks::Distribution::Proportional;
};

/// Grid specification. Empty dimensions fall back to a single value
/// from the base config (policies default to the Table-2 trio).
struct SweepGrid {
  std::vector<sim::PolicyKind> policies;
  std::vector<double> rhos;
  std::vector<Coulomb> capacities;
  std::vector<std::uint64_t> storm_seeds;
  /// Events per random storm (seeds != 0).
  std::size_t storm_faults = 12;
  /// Stack-count axis; empty = one entry mirroring the base config
  /// (its configured count when stacks are enabled, else 0).
  std::vector<std::size_t> stack_counts;
  /// Distribution-policy axis; empty = the base config's policy.
  std::vector<stacks::Distribution> distributions;

  /// Cartesian product in deterministic nested order:
  /// policy -> rho -> capacity -> stacks -> distribution -> seed.
  [[nodiscard]] std::vector<SweepPoint> points(
      const sim::ExperimentConfig& base) const;
};

struct SweepOptions {
  /// Worker threads; 0 = hardware concurrency.
  std::size_t jobs = 1;
  /// Post-run stats publication only — never attached to worker runs
  /// (obs::Context is not thread-safe).
  obs::Context* observer = nullptr;
  /// Live per-worker shards + optional lane recording. Must be sized
  /// with >= WorkerPool::resolve(jobs) shards and total_points >= the
  /// grid size. Purely derived observation: results stay bit-identical
  /// with this attached or not.
  telemetry::SweepTelemetry* telemetry = nullptr;
};

struct SweepPointResult {
  SweepPoint point;
  sim::SimulationResult result;
  /// The batch loop actually ran this point (engine == Batched and the
  /// point was batch-eligible — fault-free, single-stack, ungoverned,
  /// paper hybrid); false means the reference loop ran it.
  bool ran_batched = false;
};

struct SweepRunStats {
  std::size_t points = 0;
  std::size_t jobs = 1;
  double wall_seconds = 0.0;
  /// Points executed inside multi-point batch tasks (engine Batched).
  std::size_t points_batched = 0;
  /// Merge accounting aggregated over every batched task: sets formed,
  /// follower-slots served by a leader, and followers split back out.
  std::size_t batch_merge_sets = 0;
  std::size_t batch_merged_lane_slots = 0;
  std::size_t batch_splits = 0;

  [[nodiscard]] double points_per_second() const noexcept {
    return wall_seconds > 0.0
               ? static_cast<double>(points) / wall_seconds
               : 0.0;
  }
};

struct SweepResult {
  /// One entry per grid point, in grid order (independent of jobs).
  std::vector<SweepPointResult> points;
  SweepRunStats stats;
};

/// Evaluate one grid point serially (what each worker runs). `cancel`
/// and `slot_budget` thread straight into SimulationOptions: the
/// resilience layer uses them for watchdog cancellation and the
/// deterministic per-point deadline; the defaults leave the plain sweep
/// path untouched. When `base.simulation.engine == sim::Engine::Batched`
/// the point runs through batch::simulate (a B = 1 batch, bit-identical,
/// falling back to the reference loop for ineligible points);
/// `compiled` is the trace compiled once by run_sweep and shared
/// read-only across points — nullptr makes the point compile its own.
[[nodiscard]] SweepPointResult run_point(
    const sim::ExperimentConfig& base, const SweepPoint& point,
    std::size_t storm_faults, sim::CancellationToken* cancel = nullptr, std::size_t slot_budget = 0,
    const sim::CompiledTrace* compiled = nullptr);

/// Fan the grid across `options.jobs` workers.
[[nodiscard]] SweepResult run_sweep(const sim::ExperimentConfig& base,
                                    const SweepGrid& grid,
                                    const SweepOptions& options = {});

/// Publish the end-of-sweep gauges — par.sweep.{points,jobs,wall_s,
/// points_per_s} plus the batch merge accounting — in one place. Both
/// run_sweep and the resilient runner call this exactly once at sweep
/// end. No-op when the observer is inactive.
void publish_sweep_stats(obs::Context& obs, const SweepRunStats& stats);

}  // namespace fcdpm::par
