#include "par/sweep.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "audit/audit.hpp"
#include "batch/engine.hpp"
#include "cap/governor.hpp"
#include "common/contracts.hpp"
#include "common/csv.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "par/worker_pool.hpp"
#include "resilience/journal.hpp"
#include "resilience/watchdog.hpp"
#include "telemetry/sweep_telemetry.hpp"

namespace fcdpm::par {

std::vector<SweepPoint> SweepGrid::points(
    const sim::ExperimentConfig& base) const {
  const std::vector<sim::PolicyKind> kinds =
      policies.empty()
          ? std::vector<sim::PolicyKind>{sim::PolicyKind::Conv,
                                         sim::PolicyKind::Asap,
                                         sim::PolicyKind::FcDpm}
          : policies;
  const std::vector<double> rho_values =
      rhos.empty() ? std::vector<double>{base.rho} : rhos;
  const std::vector<Coulomb> capacity_values =
      capacities.empty() ? std::vector<Coulomb>{base.storage_capacity}
                         : capacities;
  const std::vector<std::uint64_t> seeds =
      storm_seeds.empty() ? std::vector<std::uint64_t>{0} : storm_seeds;
  const std::vector<std::size_t> counts =
      stack_counts.empty()
          ? std::vector<std::size_t>{base.stacks.enabled ? base.stacks.count
                                                         : 0}
          : stack_counts;
  const std::vector<stacks::Distribution> dists =
      distributions.empty()
          ? std::vector<stacks::Distribution>{base.stacks.distribution}
          : distributions;

  std::vector<SweepPoint> grid;
  grid.reserve(kinds.size() * rho_values.size() * capacity_values.size() *
               counts.size() * dists.size() * seeds.size());
  for (const sim::PolicyKind kind : kinds) {
    for (const double rho : rho_values) {
      for (const Coulomb capacity : capacity_values) {
        for (const std::size_t count : counts) {
          for (const stacks::Distribution dist : dists) {
            for (const std::uint64_t seed : seeds) {
              grid.push_back({kind, rho, capacity, seed, count, dist});
            }
          }
        }
      }
    }
  }
  return grid;
}

SweepPointResult run_point(const sim::ExperimentConfig& base,
                           const SweepPoint& point,
                           std::size_t storm_faults,
                           sim::CancellationToken* cancel,
                           std::size_t slot_budget,
                           const sim::CompiledTrace* compiled) {
  sim::ExperimentConfig config = base;
  config.rho = point.rho;
  config.storage_capacity = point.capacity;
  // A shrunk buffer cannot hold the configured reserve.
  config.initial_storage = min(config.initial_storage, point.capacity);
  if (point.stacks > 0) {
    config.stacks.enabled = true;
    config.stacks.count = point.stacks;
    config.stacks.distribution = point.distribution;
  }
  // Workers own everything they mutate; the run-level observer is
  // published to after the batch, never attached to a worker's run.
  config.simulation.observer = nullptr;

  // Everything stateful — policies, hybrid, injector, governor, auditor
  // — is rebuilt per attempt, so the self-heal replay below starts from
  // the same clean state the batched attempt did.
  std::optional<audit::AuditStats> failed_stats;
  const auto run_once = [&](sim::Engine engine, bool tamper_allowed,
                            bool& ran_batched) -> sim::SimulationResult {
    dpm::PredictiveDpmPolicy dpm_policy = sim::make_dpm_policy(config);
    const std::unique_ptr<core::FcOutputPolicy> fc_policy =
        sim::make_fc_policy(point.policy, config);
    power::HybridPowerSource hybrid = sim::make_hybrid(config);

    sim::SimulationOptions options = config.simulation;
    options.engine = engine;
    options.initial_storage = config.initial_storage;
    options.cancel = cancel;
    options.slot_budget = slot_budget;
    std::optional<fault::FaultInjector> injector;
    if (point.storm_seed != 0) {
      injector.emplace(fault::FaultSchedule::random_storm(
          point.storm_seed, storm_faults,
          config.trace.stats().total_duration()));
      options.faults = &*injector;
    }
    // Workers own their governor like they own their injector: one
    // fresh instance per point keeps the held-level state
    // thread-private and the results independent of execution order.
    std::optional<cap::Governor> governor;
    if (config.cap.enabled) {
      governor.emplace(cap::make_governor(config.cap, config.efficiency));
      options.governor = &*governor;
    }

    // Mirror of batch::simulate's internal dispatch (storm faults and
    // governors fall back to the reference loop), so each run is
    // counted where it actually lands.
    ran_batched = engine == sim::Engine::Batched &&
                  batch::lane_eligible(hybrid, options);
    // The grid varies rho/capacity/seed but never the trace or device,
    // so one compiled trace serves every point. A direct caller without
    // one compiles its own.
    std::optional<sim::CompiledTrace> local;
    const sim::CompiledTrace* trace = compiled;
    if (ran_batched && trace == nullptr) {
      local.emplace(config.trace, config.device);
      trace = &*local;
    }

    // The auditor is built after eligibility is known: batched lanes
    // always fail fast (the catch below self-heals them), reference
    // runs fail fast only in strict mode (the escape is the contract's
    // contract_violation). Tamper models a batched-engine
    // defect, so it arms only on a batched lane — and never on the
    // replay.
    std::optional<audit::Auditor> auditor;
    if (config.audit.enabled()) {
      audit::AuditSpec spec = config.audit;
      if (!(ran_batched && tamper_allowed)) {
        spec.tamper_slot = audit::npos;
      }
      auditor.emplace(spec,
                      ran_batched || spec.mode == audit::Mode::Strict);
      options.auditor = &*auditor;
    }

    try {
      if (ran_batched) {
        return batch::simulate(*trace, dpm_policy, *fc_policy, hybrid,
                               options);
      }
      return sim::simulate(config.trace, dpm_policy, *fc_policy, hybrid,
                           options);
    } catch (const audit::AuditError&) {
      // The auditor dies with this frame; keep its tally for the
      // fallback record before rethrowing to the dispatcher.
      if (auditor.has_value()) {
        failed_stats = auditor->stats();
      }
      throw;
    }
  };

  SweepPointResult out;
  out.point = point;
  try {
    out.result = run_once(config.simulation.engine, /*tamper_allowed=*/true,
                          out.ran_batched);
  } catch (const audit::AuditError&) {
    if (!out.ran_batched) {
      // Reference-engine violation: nothing trusted to heal onto.
      throw;
    }
    // Self-heal: the batched lane broke an invariant, so replay the
    // point on the reference engine (fresh state, tamper disarmed) and
    // keep that result, recording the run's violations as a fallback.
    const audit::AuditStats failed = failed_stats.value_or(
        audit::AuditStats{});
    failed_stats.reset();
    out.result = run_once(sim::Engine::Reference, /*tamper_allowed=*/false,
                          out.ran_batched);
    if (!out.result.audit.has_value()) {
      out.result.audit.emplace();
      out.result.audit->mode = static_cast<int>(config.audit.mode);
    }
    audit::record_engine_fallback(*out.result.audit, failed);
  }
  return out;
}

namespace {

// Maximum lanes per batched task. Fixed — never derived from the job
// count — so the task list, and therefore every result, is identical
// for any --jobs value.
constexpr std::size_t kBatchMax = 16;

// Points the batch loop can take directly; everything else (fault
// storms, multi-stack sources) runs alone through run_point, which
// still dispatches through batch::simulate's reference fallback.
bool batch_point_eligible(const SweepPoint& point) {
  return point.storm_seed == 0 && point.stacks == 0;
}

// One scheduling round's tasks. Task t is chunk t while t <
// chunks.size(), else single singles[t - chunks.size()].
struct BatchPlan {
  /// Multi-point tasks: grid indices, equal rho, grid order.
  std::vector<std::vector<std::size_t>> chunks;
  /// Points that run alone (ineligible, a leftover group of one, or a
  /// retry).
  std::vector<std::size_t> singles;

  [[nodiscard]] std::size_t tasks() const noexcept {
    return chunks.size() + singles.size();
  }
  /// The grid indices task `t` settles.
  [[nodiscard]] std::span<const std::size_t> members(std::size_t t) const {
    if (t < chunks.size()) {
      return chunks[t];
    }
    return {&singles[t - chunks.size()], 1};
  }
};

// Group the batch-eligible points of `todo` by rho — one DPM policy and
// one idle plan per task; the batch engine requires nothing more, and
// merging across the capacity axis happens inside run_batch — then cut
// each group into chunks of at most kBatchMax, preserving grid order.
BatchPlan plan_batches(const std::vector<SweepPoint>& points,
                       const std::vector<std::size_t>& todo) {
  BatchPlan plan;
  std::vector<std::pair<std::uint64_t, std::vector<std::size_t>>> groups;
  for (const std::size_t k : todo) {
    if (!batch_point_eligible(points[k])) {
      plan.singles.push_back(k);
      continue;
    }
    const std::uint64_t rho_bits = std::bit_cast<std::uint64_t>(points[k].rho);
    auto it = std::find_if(
        groups.begin(), groups.end(),
        [&](const auto& group) { return group.first == rho_bits; });
    if (it == groups.end()) {
      groups.push_back({rho_bits, {}});
      it = std::prev(groups.end());
    }
    it->second.push_back(k);
  }
  for (auto& [rho_bits, members] : groups) {
    // Merge sets only form within one FC policy, so a chunk cut inside
    // a policy's capacity run strands part of the cascade in a second,
    // shorter-lived set. Pack whole policy runs (contiguous in grid
    // order) into chunks, cutting a run only when it alone exceeds
    // kBatchMax. Deterministic and jobs-independent, like the plain
    // fixed-stride cut it replaces.
    std::vector<std::vector<std::size_t>> runs;
    for (const std::size_t k : members) {
      if (runs.empty() ||
          points[runs.back().back()].policy != points[k].policy) {
        runs.emplace_back();
      }
      runs.back().push_back(k);
    }
    std::vector<std::size_t> chunk;
    const auto flush = [&] {
      if (chunk.size() == 1) {
        plan.singles.push_back(chunk.front());
      } else if (!chunk.empty()) {
        plan.chunks.push_back(std::move(chunk));
      }
      chunk.clear();
    };
    for (const std::vector<std::size_t>& run : runs) {
      for (std::size_t at = 0; at < run.size(); at += kBatchMax) {
        const std::size_t count = std::min(kBatchMax, run.size() - at);
        if (chunk.size() + count > kBatchMax) {
          flush();
        }
        chunk.insert(chunk.end(), run.begin() + at,
                     run.begin() + at + count);
      }
    }
    flush();
  }
  return plan;
}

// Store one attempt's outcome in its grid slot. The attempt count is
// the scheduler's, so the slot keeps its own.
void settle(SweepPointResult& slot, SweepPointResult outcome) {
  outcome.attempts = slot.attempts;
  slot = std::move(outcome);
}

void fail(SweepPointResult& slot, resilience::PointError error) {
  SweepPointResult failed;
  failed.point = slot.point;
  failed.ok = false;
  failed.error = std::move(error);
  settle(slot, std::move(failed));
}

// Run one multi-point task: every lane shares the compiled trace, one
// DPM policy (rho is constant within a task) and one slot loop, under
// the contract's per-lane slot budget and the worker's cancel token.
// Each lane is one attempt held to the contract exactly as
// execute_point holds a single: the injected failure fails its point
// without running it, a lane whose hybrid turns out batch-ineligible
// runs alone through execute_point, a fail-fast audit violation
// self-heals on the reference engine, and an exhausted budget or a
// contract breach fails that lane only. An exception out of the slot
// loop (a watchdog cancel) fails every lane's attempt.
void run_batch_chunk(const sim::ExperimentConfig& base,
                     const std::vector<SweepPoint>& points,
                     std::span<const std::size_t> chunk,
                     std::size_t storm_faults,
                     const resilience::ExecutionContract& contract,
                     sim::CancellationToken* cancel,
                     const sim::CompiledTrace& compiled,
                     std::vector<SweepPointResult>& results,
                     batch::BatchStats& stats) {
  sim::ExperimentConfig config = base;
  config.rho = points[chunk.front()].rho;
  config.simulation.observer = nullptr;

  dpm::PredictiveDpmPolicy dpm_policy = sim::make_dpm_policy(config);

  sim::SimulationOptions options = config.simulation;
  options.engine = sim::Engine::Batched;
  // The engine clamps per lane: min(shared initial, lane capacity)
  // reproduces run_point's per-point initial_storage exactly.
  options.initial_storage = base.initial_storage;
  options.cancel = cancel;

  std::vector<std::unique_ptr<core::FcOutputPolicy>> fcs;
  std::vector<std::unique_ptr<audit::Auditor>> auditors;
  std::vector<power::HybridPowerSource> hybrids;
  std::vector<batch::BatchLaneSpec> lanes;
  std::vector<std::size_t> lane_point;
  // Lane specs hold pointers into these vectors: no reallocation.
  fcs.reserve(chunk.size());
  auditors.reserve(chunk.size());
  hybrids.reserve(chunk.size());
  lanes.reserve(chunk.size());
  lane_point.reserve(chunk.size());

  for (const std::size_t k : chunk) {
    const SweepPoint& point = points[k];
    if (k == contract.inject_fail_index) {
      fail(results[k], resilience::injected_failure());
      continue;
    }
    config.storage_capacity = point.capacity;
    config.initial_storage = min(base.initial_storage, point.capacity);
    power::HybridPowerSource hybrid = sim::make_hybrid(config);
    if (!batch::lane_eligible(hybrid, options)) {
      settle(results[k], execute_point(base, point, k, storm_faults,
                                       contract, cancel, &compiled));
      continue;
    }
    hybrids.push_back(std::move(hybrid));
    fcs.push_back(sim::make_fc_policy(point.policy, config));
    batch::BatchLaneSpec lane;
    lane.fc = fcs.back().get();
    lane.hybrid = &hybrids.back();
    lane.slot_budget = contract.point_deadline_slots;
    if (config.audit.enabled()) {
      audit::AuditSpec spec = config.audit;
      // Tamper is a per-point drill; batched sweeps disarm it (the
      // scheduler keeps tampered sweeps on the per-point path anyway).
      spec.tamper_slot = audit::npos;
      auditors.push_back(
          std::make_unique<audit::Auditor>(spec, /*fail_fast=*/true));
      lane.auditor = auditors.back().get();
    }
    lanes.push_back(lane);
    lane_point.push_back(k);
  }
  if (lanes.empty()) {
    return;
  }

  std::vector<batch::LaneOutcome> outcomes;
  try {
    outcomes = batch::run_batch(compiled, dpm_policy, lanes, options, &stats);
  } catch (const std::exception&) {
    const resilience::PointError error = resilience::current_point_error();
    for (const std::size_t k : lane_point) {
      fail(results[k], error);
    }
    return;
  }

  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const std::size_t k = lane_point[i];
    batch::LaneOutcome& outcome = outcomes[i];
    switch (outcome.end) {
      case batch::LaneOutcome::End::Completed:
        if (std::optional<resilience::PointError> breach =
                resilience::contract_breach(outcome.result, contract)) {
          fail(results[k], std::move(*breach));
          break;
        }
        results[k].result = std::move(outcome.result);
        results[k].ran_batched = true;
        results[k].ok = true;
        break;
      case batch::LaneOutcome::End::BudgetExhausted:
        // The message batch::simulate throws for the same exhaustion.
        fail(results[k],
             {resilience::PointErrorKind::deadline_exceeded,
              "slot budget exhausted: " +
                  std::to_string(contract.point_deadline_slots) +
                  " slots simulated, " + std::to_string(compiled.size()) +
                  " required"});
        break;
      case batch::LaneOutcome::End::AuditFailed: {
        // Heal on the reference engine from fresh state, keeping the
        // failed lane's tally.
        sim::ExperimentConfig ref = base;
        ref.simulation.engine = sim::Engine::Reference;
        SweepPointResult healed = execute_point(ref, points[k], k, storm_faults,
                                                contract, cancel);
        if (healed.ok) {
          if (!healed.result.audit.has_value()) {
            healed.result.audit.emplace();
            healed.result.audit->mode = static_cast<int>(base.audit.mode);
          }
          audit::record_engine_fallback(
              *healed.result.audit,
              outcome.result.audit.value_or(audit::AuditStats{}));
        }
        settle(results[k], std::move(healed));
        break;
      }
    }
  }
}

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_point(const SweepPoint& a, const SweepPoint& b) noexcept {
  return a.policy == b.policy && same_bits(a.rho, b.rho) &&
         same_bits(a.capacity.value(), b.capacity.value()) &&
         a.storm_seed == b.storm_seed && a.stacks == b.stacks &&
         a.distribution == b.distribution;
}

// Resume: load the journal, check its fingerprint, splice every record
// into its grid slot, then re-simulate a deterministic sample of the
// replayed points and hold the journal to bit-identity — that catches
// a journal from a different build or a tampered record that still
// checksums. Returns the journal's valid byte count (where appends
// continue).
std::size_t replay_journal(const sim::ExperimentConfig& base,
                           const SweepGrid& grid,
                           const std::vector<SweepPoint>& points,
                           std::uint64_t fingerprint,
                           const SweepOptions& options,
                           const sim::CompiledTrace* compiled,
                           SweepResult& out) {
  FCDPM_EXPECTS(!options.journal_path.empty(),
                "--resume requires a journal path");
  const resilience::JournalLoad load =
      resilience::load_journal(options.journal_path);
  if (load.header.fingerprint != fingerprint ||
      load.header.points != points.size()) {
    throw CsvError("journal does not match this sweep (grid fingerprint "
                   "mismatch): " +
                   options.journal_path);
  }
  out.resilience.torn_tail_recovered = load.torn_tail;
  out.resilience.torn_bytes_dropped = load.dropped_bytes;
  for (const resilience::JournalRecord& record : load.records) {
    if (record.index >= points.size() ||
        !same_point(record.point, points[record.index])) {
      throw CsvError("journal record does not match grid point " +
                     std::to_string(record.index) + ": " +
                     options.journal_path);
    }
    SweepPointResult& slot = out.points[record.index];
    slot.replayed = true;
    slot.attempts = record.attempts;
    slot.ok = record.ok;
    if (record.ok) {
      slot.result = record.result;
    } else {
      slot.error = record.error;
    }
    ++out.resilience.replayed;
  }

  std::vector<std::size_t> replayed_ok;
  for (std::size_t k = 0; k < out.points.size(); ++k) {
    if (out.points[k].replayed && out.points[k].ok) {
      replayed_ok.push_back(k);
    }
  }
  const std::size_t checks = std::min(options.spot_checks, replayed_ok.size());
  for (std::size_t c = 0; c < checks; ++c) {
    const std::size_t k =
        replayed_ok[c * replayed_ok.size() / checks];  // evenly spaced
    const SweepPointResult fresh =
        run_point(base, points[k], grid.storm_faults, nullptr, 0, compiled);
    if (!resilience::same_observable(fresh.result,
                                     out.points[k].result)) {
      throw CsvError("journal spot-check failed at grid point " +
                     std::to_string(k) +
                     ": replayed result is not bit-identical to "
                     "re-simulation: " +
                     options.journal_path);
    }
    ++out.resilience.spot_checks;
  }
  return load.valid_bytes;
}

// The end-of-sweep gauges, published once per sweep. No-op when the
// observer is inactive.
void publish_sweep_stats(obs::Context& obs, const SweepRunStats& stats,
                         const resilience::ResilienceStats& rs) {
  if (!obs.active()) {
    return;
  }
  obs.gauge("par.sweep.points", static_cast<double>(stats.points));
  obs.gauge("par.sweep.jobs", static_cast<double>(stats.jobs));
  obs.gauge("par.sweep.wall_s", stats.wall_seconds);
  obs.gauge("par.sweep.points_per_s", stats.points_per_second());
  if (stats.points_batched > 0) {
    obs.gauge("par.sweep.points_batched",
              static_cast<double>(stats.points_batched));
    obs.gauge("par.sweep.batch_merge_sets",
              static_cast<double>(stats.batch_merge_sets));
    obs.gauge("par.sweep.batch_merged_lane_slots",
              static_cast<double>(stats.batch_merged_lane_slots));
    obs.gauge("par.sweep.batch_splits",
              static_cast<double>(stats.batch_splits));
  }
  obs.gauge("resilience.scheduled", static_cast<double>(rs.scheduled));
  obs.gauge("resilience.replayed", static_cast<double>(rs.replayed));
  obs.gauge("resilience.retries", static_cast<double>(rs.retries));
  obs.gauge("resilience.quarantined", static_cast<double>(rs.quarantined));
  obs.gauge("resilience.capped_ok", static_cast<double>(rs.capped_ok));
  obs.gauge("resilience.rounds", static_cast<double>(rs.rounds));
  obs.gauge("resilience.spot_checks", static_cast<double>(rs.spot_checks));
  obs.gauge("resilience.watchdog_stalls",
            static_cast<double>(rs.watchdog_stalls));
  obs.gauge("resilience.torn_bytes_dropped",
            static_cast<double>(rs.torn_bytes_dropped));
}

}  // namespace

SweepPointResult execute_point(const sim::ExperimentConfig& base,
                               const SweepPoint& point,
                               std::size_t point_index,
                               std::size_t storm_faults,
                               const resilience::ExecutionContract& contract,
                               sim::CancellationToken* cancel,
                               const sim::CompiledTrace* compiled) {
  SweepPointResult out;
  out.point = point;
  if (point_index == contract.inject_fail_index) {
    fail(out, resilience::injected_failure());
    return out;
  }
  try {
    out = run_point(base, point, storm_faults, cancel,
                    contract.point_deadline_slots, compiled);
  } catch (const std::exception&) {
    fail(out, resilience::current_point_error());
    return out;
  }
  if (std::optional<resilience::PointError> breach =
          resilience::contract_breach(out.result, contract)) {
    fail(out, std::move(*breach));
  }
  return out;
}

SweepResult run_sweep(const sim::ExperimentConfig& base,
                      const SweepGrid& grid, const SweepOptions& options) {
  const std::vector<SweepPoint> points = grid.points(base);
  const resilience::ExecutionContract& contract = options.contract;
  const std::size_t max_attempts = 1 + contract.max_retries;

  SweepResult out;
  out.points.resize(points.size());
  for (std::size_t k = 0; k < points.size(); ++k) {
    out.points[k].point = points[k];
  }
  out.stats.points = points.size();

  // Compile the trace once, up front, and share it read-only across all
  // workers (CompiledTrace is immutable after construction).
  std::optional<sim::CompiledTrace> compiled;
  if (base.simulation.engine == sim::Engine::Batched) {
    compiled.emplace(base.trace, base.device);
  }
  const sim::CompiledTrace* shared =
      compiled.has_value() ? &*compiled : nullptr;

  std::optional<resilience::Journal> journal;
  if (!options.journal_path.empty() || options.resume) {
    const std::uint64_t fingerprint =
        resilience::grid_fingerprint(base, points, grid.storm_faults);
    if (options.resume) {
      const std::size_t valid_bytes = replay_journal(
          base, grid, points, fingerprint, options, shared, out);
      journal.emplace(resilience::Journal::open_for_append(
          options.journal_path, valid_bytes));
    } else {
      journal.emplace(resilience::Journal::create(
          options.journal_path,
          {base.trace.name(), points.size(), fingerprint}));
    }
  }

  std::vector<std::size_t> todo;
  for (std::size_t k = 0; k < points.size(); ++k) {
    if (!out.points[k].replayed) {
      todo.push_back(k);
    }
  }
  out.resilience.scheduled = todo.size();

  // Round 0: batched sweeps fan multi-point tasks instead of single
  // points. The plan depends on the grid alone — never the job count —
  // so results stay bit-identical across --jobs. Base configs the batch
  // loop does not model (cap governors, strict/tampered audits,
  // multi-stack sources) keep the per-point path, where
  // batch::simulate falls back to the reference loop per point.
  const bool batched_sweep =
      base.simulation.engine == sim::Engine::Batched && !base.cap.enabled &&
      base.audit.mode != audit::Mode::Strict &&
      base.audit.tamper_slot == audit::npos && !base.stacks.enabled;
  BatchPlan plan;
  if (batched_sweep) {
    plan = plan_batches(points, todo);
  } else {
    plan.singles = std::move(todo);
  }
  std::vector<batch::BatchStats> chunk_stats(plan.chunks.size());

  const auto started = std::chrono::steady_clock::now();
  {
    WorkerPool pool(options.jobs);
    out.stats.jobs = pool.thread_count();
    telemetry::SweepTelemetry* tel = options.telemetry;

    std::vector<sim::CancellationToken> tokens(pool.thread_count());
    std::optional<resilience::Watchdog> watchdog;
    if (options.watchdog_stall.count() > 0) {
      watchdog.emplace(pool.thread_count(),
                       resilience::WatchdogConfig{options.watchdog_poll,
                                                  options.watchdog_stall,
                                                  true});
    }

    // Per-worker shard accounting for one settled attempt at one point.
    const auto account = [&](telemetry::WorkerShard& shard,
                             const SweepPointResult& done, double wall_us) {
      shard.wall_us.observe(wall_us);
      if (!done.ok) {
        (done.attempts >= max_attempts ? shard.points_quarantined
                                       : shard.points_retried)
            .fetch_add(1, std::memory_order_relaxed);
        return;  // a failed attempt has no trustworthy result fields
      }
      shard.points_done.fetch_add(1, std::memory_order_relaxed);
      shard.slots.fetch_add(done.result.slots, std::memory_order_relaxed);
      (done.ran_batched ? shard.batched_dispatches
                        : shard.reference_dispatches)
          .fetch_add(1, std::memory_order_relaxed);
      if (done.result.cap.has_value()) {
        shard.capped_slots.fetch_add(done.result.cap->slots_capped,
                                     std::memory_order_relaxed);
      }
      if (done.result.audit.has_value()) {
        const audit::AuditStats& a = *done.result.audit;
        shard.audited_slots.fetch_add(a.slots_audited,
                                      std::memory_order_relaxed);
        shard.audit_violations.fetch_add(a.violations,
                                         std::memory_order_relaxed);
        shard.engine_fallbacks.fetch_add(a.engine_fallbacks,
                                         std::memory_order_relaxed);
      }
      shard.sim_s.observe(done.result.totals.duration.value());
    };

    std::size_t round = 0;
    std::map<std::size_t, std::vector<std::size_t>> retry_rounds;
    while (plan.tasks() > 0) {
      ++out.resilience.rounds;
      pool.run_indexed_on_workers(
          plan.tasks(), [&](std::size_t worker, std::size_t t) {
            const std::span<const std::size_t> members = plan.members(t);
            const bool chunk = t < plan.chunks.size();
            sim::CancellationToken& token = tokens[worker];
            token.reset();
            if (watchdog.has_value()) {
              watchdog->begin_work(worker, &token);
            }
            const std::uint64_t t0 = tel != nullptr ? tel->now_ns() : 0;
            if (chunk) {
              run_batch_chunk(base, points, members, grid.storm_faults,
                              contract, &token, *shared, out.points,
                              chunk_stats[t]);
            } else {
              const std::size_t k = members.front();
              settle(out.points[k],
                     execute_point(base, points[k], k, grid.storm_faults,
                                   contract, &token, shared));
            }
            if (watchdog.has_value()) {
              watchdog->end_work(worker);
            }

            if (tel != nullptr) {
              const std::uint64_t t1 = tel->now_ns();
              telemetry::WorkerShard& shard = tel->shards().shard(worker);
              shard.busy_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
              shard.heartbeats.fetch_add(token.heartbeat(),
                                         std::memory_order_relaxed);
              // The slot loop advances a chunk's lanes together, so
              // per-point wall time is the task's share.
              const double per_point_us = static_cast<double>(t1 - t0) *
                                          1e-3 /
                                          static_cast<double>(members.size());
              telemetry::PointLane lane;
              lane.ok = true;
              for (const std::size_t k : members) {
                const SweepPointResult& done = out.points[k];
                account(shard, done, per_point_us);
                lane.ok = lane.ok && done.ok;
                lane.quarantined = lane.quarantined ||
                                   (!done.ok && done.attempts >= max_attempts);
              }
              if (telemetry::LaneRecorder* lanes = tel->lanes()) {
                // One span per task: a chunk's covers every point it
                // carried.
                const SweepPointResult& first = out.points[members.front()];
                lane.start_ns = t0;
                lane.end_ns = t1;
                lane.point_index = static_cast<std::uint32_t>(members.front());
                lane.attempt = static_cast<std::uint32_t>(first.attempts);
                lane.batched = chunk || (first.ok && first.ran_batched);
                lanes->record(worker, lane);
              }
            }

            // Group commit: every point this task settled — ok, or its
            // final failed attempt — in one write and one fsync, before
            // anything later can depend on it. A crash loses at most
            // the tasks in flight, never a committed point.
            if (journal.has_value()) {
              std::vector<resilience::JournalRecord> records;
              records.reserve(members.size());
              for (const std::size_t k : members) {
                const SweepPointResult& done = out.points[k];
                if (!done.ok && done.attempts < max_attempts) {
                  continue;
                }
                resilience::JournalRecord& record = records.emplace_back();
                record.index = k;
                record.point = points[k];
                record.attempts = done.attempts;
                record.ok = done.ok;
                if (done.ok) {
                  record.result = done.result;
                } else {
                  record.error = done.error;
                }
              }
              journal->append(records);
            }
          });

      // Serial post-pass in task order: the deterministic retry
      // schedule. A failed point goes back as a single.
      for (std::size_t t = 0; t < plan.tasks(); ++t) {
        for (const std::size_t k : plan.members(t)) {
          SweepPointResult& slot = out.points[k];
          if (slot.ok || slot.attempts >= max_attempts) {
            continue;
          }
          const std::size_t delay = resilience::backoff_delay_rounds(
              contract.backoff_seed, k, slot.attempts,
              contract.max_backoff_exponent);
          retry_rounds[round + delay].push_back(k);
          ++slot.attempts;
          ++out.resilience.retries;
        }
      }
      plan = BatchPlan{};
      if (!retry_rounds.empty()) {
        const auto head = retry_rounds.begin();
        round = head->first;
        plan.singles = std::move(head->second);
        retry_rounds.erase(head);
      }
    }

    if (watchdog.has_value()) {
      watchdog->stop();
      out.resilience.watchdog_stalls = watchdog->stalls_detected();
    }
  }
  out.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  for (const batch::BatchStats& s : chunk_stats) {
    out.stats.batch_merge_sets += s.merge_sets;
    out.stats.batch_merged_lane_slots += s.merged_lane_slots;
    out.stats.batch_splits += s.splits;
  }
  for (const SweepPointResult& r : out.points) {
    if (r.ran_batched) {
      ++out.stats.points_batched;
    }
    if (!r.ok) {
      ++out.resilience.quarantined;
    } else if (r.result.cap.has_value() && r.result.cap->slots_capped > 0) {
      // Points that survived only by throttling — the governor's
      // headline number for brownout reports.
      ++out.resilience.capped_ok;
    }
  }

  if (options.observer != nullptr) {
    publish_sweep_stats(*options.observer, out.stats, out.resilience);
  }
  return out;
}

}  // namespace fcdpm::par
