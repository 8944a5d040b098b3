// Deterministic parallel sweep engine — the one sweep scheduler.
//
// A sweep grid (policy x rho x capacity x fault-storm seed) is fanned
// across the worker pool; every worker builds its *own* policies,
// hybrid source and fault injector for each point (nothing mutable is
// shared between points), and stores its result at the point's grid
// index. Results are therefore bit-identical for any job count —
// `--jobs 8` must reproduce `--jobs 1` exactly, and the tests hold it
// to that.
//
// Every point runs under a resilience::ExecutionContract. Scheduling
// proceeds in *rounds*: round 0 is the batch plan (multi-point chunks
// on the batched engine, singles otherwise) over every point not
// replayed from a journal; a failed attempt goes back as a single,
// pushed back by backoff_delay_rounds(), until its attempts exhaust the
// contract and the point is quarantined. Rounds are a pure function of
// the grid and the contract, so results and attempt counts are
// reproducible for any job count. With a journal, each finished task
// commits its settled points in one write and one fsync: a SIGKILL at
// any instant loses at most the tasks in flight.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/context.hpp"
#include "resilience/retry.hpp"
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
  /// grid size. Purely derived observation: results and the journal
  /// stay bit-identical with this attached or not.
  telemetry::SweepTelemetry* telemetry = nullptr;

  /// Retries, deadline and budgets every attempt runs under.
  resilience::ExecutionContract contract;
  /// Journal file to create (or, with `resume`, to continue). Empty =
  /// run without a journal (retry/quarantine still apply).
  std::string journal_path;
  /// Replay completed points from `journal_path` and schedule only the
  /// remainder. The journal's grid fingerprint must match.
  bool resume = false;
  /// Replayed points re-simulated and compared bit-for-bit against the
  /// journal (capped at the number of replayed ok points). A mismatch
  /// throws: the journal does not describe this build/grid.
  std::size_t spot_checks = 1;
  /// Watchdog stall window; zero disables the watchdog entirely.
  std::chrono::milliseconds watchdog_stall{0};
  std::chrono::milliseconds watchdog_poll{25};
};

struct SweepPointResult {
  SweepPoint point;
  /// Valid when `ok`.
  sim::SimulationResult result;
  /// The batch loop actually ran this point (engine == Batched and the
  /// point was batch-eligible — fault-free, single-stack, ungoverned,
  /// paper hybrid); false means the reference loop ran it.
  bool ran_batched = false;
  /// False when the point is quarantined: `error` says why.
  bool ok = true;
  resilience::PointError error;
  std::size_t attempts = 1;
  /// Restored from the journal, not re-run.
  bool replayed = false;
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
  resilience::ResilienceStats resilience;
};

/// Evaluate one grid point serially. `cancel` and `slot_budget` thread
/// straight into SimulationOptions (watchdog cancellation and the
/// deterministic per-point deadline). When `base.simulation.engine ==
/// sim::Engine::Batched` the point runs through batch::simulate (a
/// B = 1 batch, bit-identical, falling back to the reference loop for
/// ineligible points); `compiled` is the trace compiled once by
/// run_sweep and shared read-only across points — nullptr makes the
/// point compile its own. Throws whatever the run throws.
[[nodiscard]] SweepPointResult run_point(
    const sim::ExperimentConfig& base, const SweepPoint& point,
    std::size_t storm_faults, sim::CancellationToken* cancel = nullptr,
    std::size_t slot_budget = 0,
    const sim::CompiledTrace* compiled = nullptr);

/// One attempt at grid point `point_index` under `contract`: run_point
/// with the contract's slot budget and `cancel`, every failure mapped
/// onto the typed taxonomy, the result held to the contract's checks.
/// Never throws — a poisoned point fails the point only (`ok == false`).
[[nodiscard]] SweepPointResult execute_point(
    const sim::ExperimentConfig& base, const SweepPoint& point,
    std::size_t point_index, std::size_t storm_faults,
    const resilience::ExecutionContract& contract,
    sim::CancellationToken* cancel,
    const sim::CompiledTrace* compiled = nullptr);

/// Run the grid across `options.jobs` workers under the contract.
/// Throws CsvError for journal-level failures (unwritable journal,
/// unreadable header, fingerprint mismatch, failed spot-check);
/// individual point failures never propagate — they are retried and
/// ultimately quarantined in the result. Publishes the par.sweep.* and
/// resilience.* gauges to `options.observer` once, at sweep end.
[[nodiscard]] SweepResult run_sweep(const sim::ExperimentConfig& base,
                                    const SweepGrid& grid,
                                    const SweepOptions& options = {});

}  // namespace fcdpm::par
