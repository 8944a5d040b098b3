#include "par/sweep.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "audit/audit.hpp"
#include "batch/engine.hpp"
#include "cap/governor.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "par/worker_pool.hpp"
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
    // one (the resilience retry path) compiles its own.
    std::optional<sim::CompiledTrace> local;
    const sim::CompiledTrace* trace = compiled;
    if (ran_batched && trace == nullptr) {
      local.emplace(config.trace, config.device);
      trace = &*local;
    }

    // The auditor is built after eligibility is known: batched lanes
    // always fail fast (the catch below self-heals them), reference
    // runs fail fast only in strict mode (the escape is the resilience
    // layer's contract_violation). Tamper models a batched-engine
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

struct BatchPlan {
  /// Multi-point tasks: grid indices, equal rho, grid order.
  std::vector<std::vector<std::size_t>> chunks;
  /// Points that run alone (ineligible, or a leftover group of one).
  std::vector<std::size_t> singles;
};

// Group batch-eligible points by rho — one DPM policy and one idle
// plan per task; the batch engine requires nothing more, and merging
// across the capacity axis happens inside run_batch — then cut each
// group into chunks of at most kBatchMax, preserving grid order.
BatchPlan plan_batches(const std::vector<SweepPoint>& points) {
  BatchPlan plan;
  std::vector<std::pair<std::uint64_t, std::vector<std::size_t>>> groups;
  for (std::size_t k = 0; k < points.size(); ++k) {
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

// Run one multi-point task: every lane shares the compiled trace, one
// DPM policy (rho is constant within a task) and one slot loop. A lane
// whose hybrid turns out batch-ineligible runs alone through run_point
// instead, and a fail-fast audit violation self-heals exactly like
// run_point's batched path: replay that point on the reference engine and
// record the fallback. Writes each point's result at its grid index.
void run_batch_chunk(const sim::ExperimentConfig& base,
                     const std::vector<SweepPoint>& points,
                     const std::vector<std::size_t>& chunk,
                     std::size_t storm_faults,
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
    config.storage_capacity = point.capacity;
    config.initial_storage = min(base.initial_storage, point.capacity);
    power::HybridPowerSource hybrid = sim::make_hybrid(config);
    if (!batch::lane_eligible(hybrid, options)) {
      results[k] =
          run_point(base, point, storm_faults, nullptr, 0, &compiled);
      continue;
    }
    hybrids.push_back(std::move(hybrid));
    fcs.push_back(sim::make_fc_policy(point.policy, config));
    batch::BatchLaneSpec lane;
    lane.fc = fcs.back().get();
    lane.hybrid = &hybrids.back();
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

  std::vector<batch::LaneOutcome> outcomes =
      batch::run_batch(compiled, dpm_policy, lanes, options, &stats);

  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const std::size_t k = lane_point[i];
    batch::LaneOutcome& outcome = outcomes[i];
    if (outcome.end == batch::LaneOutcome::End::Completed) {
      results[k].point = points[k];
      results[k].result = std::move(outcome.result);
      results[k].ran_batched = true;
      continue;
    }
    // AuditFailed (budgets are never set here): heal on the reference
    // engine from fresh state, keeping the failed lane's tally.
    sim::ExperimentConfig ref = base;
    ref.simulation.engine = sim::Engine::Reference;
    SweepPointResult healed = run_point(ref, points[k], storm_faults);
    const audit::AuditStats failed =
        outcome.result.audit.value_or(audit::AuditStats{});
    if (!healed.result.audit.has_value()) {
      healed.result.audit.emplace();
      healed.result.audit->mode = static_cast<int>(base.audit.mode);
    }
    audit::record_engine_fallback(*healed.result.audit, failed);
    results[k] = std::move(healed);
  }
}

}  // namespace

SweepResult run_sweep(const sim::ExperimentConfig& base,
                      const SweepGrid& grid, const SweepOptions& options) {
  const std::vector<SweepPoint> points = grid.points(base);

  SweepResult out;
  out.points.resize(points.size());
  out.stats.points = points.size();

  // Compile the trace once, up front, and share it read-only across all
  // workers (CompiledTrace is immutable after construction).
  std::optional<sim::CompiledTrace> compiled;
  if (base.simulation.engine == sim::Engine::Batched) {
    compiled.emplace(base.trace, base.device);
  }
  const sim::CompiledTrace* shared =
      compiled.has_value() ? &*compiled : nullptr;

  // Batched sweeps fan multi-point tasks instead of single points. The
  // plan depends on the grid alone — never the job count — so results
  // stay bit-identical across --jobs. Base configs the batch loop does
  // not model (cap governors, strict/tampered audits, multi-stack
  // sources) keep the per-point path, where batch::simulate falls back
  // to the reference loop per point.
  const bool batched_sweep =
      base.simulation.engine == sim::Engine::Batched && !base.cap.enabled &&
      base.audit.mode != audit::Mode::Strict &&
      base.audit.tamper_slot == audit::npos && !base.stacks.enabled;
  BatchPlan plan;
  if (batched_sweep) {
    plan = plan_batches(points);
  } else {
    plan.singles.resize(points.size());
    for (std::size_t k = 0; k < points.size(); ++k) {
      plan.singles[k] = k;
    }
  }
  std::vector<batch::BatchStats> chunk_stats(plan.chunks.size());

  const auto started = std::chrono::steady_clock::now();
  {
    WorkerPool pool(options.jobs);
    out.stats.jobs = pool.thread_count();
    telemetry::SweepTelemetry* tel = options.telemetry;

    // Task t is chunk t while t < chunks.size(), else single
    // plan.singles[t - chunks.size()].
    const std::size_t tasks = plan.chunks.size() + plan.singles.size();

    const auto run_single = [&](std::size_t k) {
      out.points[k] =
          run_point(base, points[k], grid.storm_faults, nullptr, 0, shared);
    };
    const auto run_chunk = [&](std::size_t c) {
      run_batch_chunk(base, points, plan.chunks[c], grid.storm_faults,
                      *shared, out.points, chunk_stats[c]);
    };
    // Per-point shard accounting shared by the single-point task body
    // and the batched chunk body.
    const auto account_point = [&](telemetry::WorkerShard& shard,
                                   const SweepPointResult& done,
                                   double wall_us) {
      shard.points_done.fetch_add(1, std::memory_order_relaxed);
      shard.slots.fetch_add(done.result.slots, std::memory_order_relaxed);
      if (done.ran_batched) {
        shard.batched_dispatches.fetch_add(1, std::memory_order_relaxed);
      } else {
        shard.reference_dispatches.fetch_add(1, std::memory_order_relaxed);
      }
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
      shard.wall_us.observe(wall_us);
      shard.sim_s.observe(done.result.totals.duration.value());
    };
    const auto run_single_telemetry = [&](std::size_t worker,
                                          std::size_t k) {
      telemetry::WorkerShard& shard = tel->shards().shard(worker);
      const std::uint64_t t0 = tel->now_ns();
      run_single(k);
      const std::uint64_t t1 = tel->now_ns();

      const SweepPointResult& done = out.points[k];
      shard.busy_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
      account_point(shard, done, static_cast<double>(t1 - t0) * 1e-3);

      if (telemetry::LaneRecorder* lanes = tel->lanes()) {
        telemetry::PointLane lane;
        lane.start_ns = t0;
        lane.end_ns = t1;
        lane.point_index = static_cast<std::uint32_t>(k);
        lane.attempt = 1;
        lane.ok = true;
        lane.batched = done.ran_batched;
        lanes->record(worker, lane);
      }
    };
    const auto run_chunk_telemetry = [&](std::size_t worker,
                                         std::size_t c) {
      const std::vector<std::size_t>& chunk = plan.chunks[c];
      telemetry::WorkerShard& shard = tel->shards().shard(worker);
      const std::uint64_t t0 = tel->now_ns();
      run_chunk(c);
      const std::uint64_t t1 = tel->now_ns();

      shard.busy_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
      // The slot loop advances all lanes together, so per-point wall
      // time is the chunk's share — the histogram keeps per-point
      // semantics without pretending to per-lane timers.
      const double per_point_us = static_cast<double>(t1 - t0) * 1e-3 /
                                  static_cast<double>(chunk.size());
      for (const std::size_t k : chunk) {
        account_point(shard, out.points[k], per_point_us);
      }

      if (telemetry::LaneRecorder* lanes = tel->lanes()) {
        // One lane per chunk: the span covers every point it carried.
        telemetry::PointLane lane;
        lane.start_ns = t0;
        lane.end_ns = t1;
        lane.point_index = static_cast<std::uint32_t>(chunk.front());
        lane.attempt = 1;
        lane.ok = true;
        lane.batched = true;
        lanes->record(worker, lane);
      }
    };

    if (tel == nullptr) {
      pool.run_indexed(tasks, [&](std::size_t t) {
        if (t < plan.chunks.size()) {
          run_chunk(t);
        } else {
          run_single(plan.singles[t - plan.chunks.size()]);
        }
      });
    } else {
      pool.run_indexed_on_workers(
          tasks, [&](std::size_t worker, std::size_t t) {
            if (t < plan.chunks.size()) {
              run_chunk_telemetry(worker, t);
            } else {
              run_single_telemetry(worker,
                                   plan.singles[t - plan.chunks.size()]);
            }
          });
    }
  }

  for (const batch::BatchStats& s : chunk_stats) {
    out.stats.batch_merge_sets += s.merge_sets;
    out.stats.batch_merged_lane_slots += s.merged_lane_slots;
    out.stats.batch_splits += s.splits;
  }
  for (const SweepPointResult& r : out.points) {
    if (r.ran_batched) {
      ++out.stats.points_batched;
    }
  }
  out.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  if (options.observer != nullptr) {
    publish_sweep_stats(*options.observer, out.stats);
  }
  return out;
}

void publish_sweep_stats(obs::Context& obs, const SweepRunStats& stats) {
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
}

}  // namespace fcdpm::par
