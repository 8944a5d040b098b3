#include "resilience/resilient_sweep.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <optional>
#include <utility>

#include "cap/stats.hpp"
#include "common/contracts.hpp"
#include "common/csv.hpp"
#include "par/worker_pool.hpp"
#include "resilience/journal.hpp"
#include "resilience/watchdog.hpp"
#include "telemetry/sweep_telemetry.hpp"

namespace fcdpm::resilience {

namespace {

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_point(const par::SweepPoint& a, const par::SweepPoint& b) noexcept {
  return a.policy == b.policy && same_bits(a.rho, b.rho) &&
         same_bits(a.capacity.value(), b.capacity.value()) &&
         a.storm_seed == b.storm_seed;
}

/// Bitwise equality over the journaled cap-governor block (absent on
/// cap-off runs; both sides must agree it is absent).
bool same_cap(const std::optional<cap::CapStats>& a,
              const std::optional<cap::CapStats>& b) {
  if (a.has_value() != b.has_value()) {
    return false;
  }
  if (!a.has_value()) {
    return true;
  }
  if (a->slots_seen != b->slots_seen ||
      a->slots_capped != b->slots_capped ||
      a->level_reductions != b->level_reductions ||
      a->level_restorations != b->level_restorations ||
      a->budget_violations != b->budget_violations ||
      !same_bits(a->energy_deferred.value(), b->energy_deferred.value()) ||
      !same_bits(a->time_deferred.value(), b->time_deferred.value()) ||
      a->time_at_level_s.size() != b->time_at_level_s.size()) {
    return false;
  }
  for (std::size_t k = 0; k < a->time_at_level_s.size(); ++k) {
    if (!same_bits(a->time_at_level_s[k], b->time_at_level_s[k])) {
      return false;
    }
  }
  return true;
}

/// Equality over the journaled audit block (absent on audit-off runs;
/// both sides must agree it is absent). Counters are exact integers,
/// so this is also bitwise.
bool same_audit(const std::optional<audit::AuditStats>& a,
                const std::optional<audit::AuditStats>& b) {
  if (a.has_value() != b.has_value()) {
    return false;
  }
  if (!a.has_value()) {
    return true;
  }
  return a->mode == b->mode && a->slots_audited == b->slots_audited &&
         a->segments_audited == b->segments_audited &&
         a->checks_run == b->checks_run && a->violations == b->violations &&
         a->fuel_violations == b->fuel_violations &&
         a->storage_violations == b->storage_violations &&
         a->cap_violations == b->cap_violations &&
         a->stacks_violations == b->stacks_violations &&
         a->engine_fallbacks == b->engine_fallbacks &&
         a->first_violation_slot == b->first_violation_slot &&
         a->first_violation == b->first_violation;
}

/// Bitwise equality over every observable (journaled) result field.
bool same_observable(const sim::SimulationResult& a,
                     const sim::SimulationResult& b) {
  return a.trace_name == b.trace_name && a.dpm_policy == b.dpm_policy &&
         a.fc_policy == b.fc_policy &&
         same_bits(a.totals.fuel.value(), b.totals.fuel.value()) &&
         same_bits(a.totals.delivered_energy.value(),
                   b.totals.delivered_energy.value()) &&
         same_bits(a.totals.load_energy.value(),
                   b.totals.load_energy.value()) &&
         same_bits(a.totals.bled.value(), b.totals.bled.value()) &&
         same_bits(a.totals.unserved.value(), b.totals.unserved.value()) &&
         same_bits(a.totals.duration.value(), b.totals.duration.value()) &&
         a.slots == b.slots && a.sleeps == b.sleeps &&
         same_bits(a.latency_added.value(), b.latency_added.value()) &&
         same_bits(a.storage_initial.value(), b.storage_initial.value()) &&
         same_bits(a.storage_end.value(), b.storage_end.value()) &&
         same_bits(a.storage_min.value(), b.storage_min.value()) &&
         same_bits(a.storage_max.value(), b.storage_max.value()) &&
         same_cap(a.cap, b.cap) && same_audit(a.audit, b.audit);
}

/// One scheduled unit of work: a grid point and which attempt this is.
struct BatchItem {
  std::size_t index = 0;
  std::size_t attempt = 1;
};

}  // namespace

ResilientSweepResult run_resilient_sweep(const sim::ExperimentConfig& base,
                                         const par::SweepGrid& grid,
                                         const ResilienceOptions& options) {
  const std::vector<par::SweepPoint> points = grid.points(base);
  const std::uint64_t fingerprint =
      grid_fingerprint(base, points, grid.storm_faults);
  const std::size_t max_attempts = 1 + options.contract.max_retries;

  ResilientSweepResult out;
  out.points.resize(points.size());
  out.stats.points = points.size();

  // --- resume: replay the journal, schedule only the remainder --------
  std::size_t journal_valid_bytes = 0;
  if (options.resume) {
    FCDPM_EXPECTS(!options.journal_path.empty(),
                  "--resume requires a journal path");
    const JournalLoad load = load_journal(options.journal_path);
    if (load.header.fingerprint != fingerprint ||
        load.header.points != points.size()) {
      throw CsvError("journal does not match this sweep (grid fingerprint "
                     "mismatch): " +
                     options.journal_path);
    }
    out.resilience.torn_tail_recovered = load.torn_tail;
    out.resilience.torn_bytes_dropped = load.dropped_bytes;
    journal_valid_bytes = load.valid_bytes;
    for (const JournalRecord& record : load.records) {
      if (record.index >= points.size() ||
          !same_point(record.point, points[record.index])) {
        throw CsvError("journal record does not match grid point " +
                       std::to_string(record.index) + ": " +
                       options.journal_path);
      }
      ResilientPoint& slot = out.points[record.index];
      slot.replayed = true;
      slot.attempts = record.attempts;
      slot.ok = record.ok;
      slot.result.point = points[record.index];
      if (record.ok) {
        slot.result.result = record.result;
      } else {
        slot.error = record.error;
      }
      ++out.resilience.replayed;
    }

    // Spot-check: re-simulate a deterministic sample of the replayed
    // points and hold the journal to bit-identity. Catches a journal
    // from a different build or a tampered record that still checksums.
    std::vector<std::size_t> replayed_ok;
    for (std::size_t k = 0; k < out.points.size(); ++k) {
      if (out.points[k].replayed && out.points[k].ok) {
        replayed_ok.push_back(k);
      }
    }
    const std::size_t checks =
        std::min(options.spot_checks, replayed_ok.size());
    for (std::size_t c = 0; c < checks; ++c) {
      const std::size_t k =
          replayed_ok[c * replayed_ok.size() / checks];  // evenly spaced
      const par::SweepPointResult fresh =
          par::run_point(base, points[k], grid.storm_faults);
      if (!same_observable(fresh.result, out.points[k].result.result)) {
        throw CsvError("journal spot-check failed at grid point " +
                       std::to_string(k) +
                       ": replayed result is not bit-identical to "
                       "re-simulation: " +
                       options.journal_path);
      }
      ++out.resilience.spot_checks;
    }
  }

  // --- journal writer --------------------------------------------------
  std::optional<Journal> journal;
  if (!options.journal_path.empty()) {
    if (options.resume) {
      journal.emplace(Journal::open_for_append(options.journal_path,
                                               journal_valid_bytes));
    } else {
      journal.emplace(Journal::create(
          options.journal_path,
          {base.trace.name(), points.size(), fingerprint}));
    }
  }

  // --- round-based schedule -------------------------------------------
  std::map<std::size_t, std::vector<std::size_t>> schedule;
  for (std::size_t k = 0; k < points.size(); ++k) {
    if (!out.points[k].replayed) {
      schedule[0].push_back(k);
      ++out.resilience.scheduled;
    }
  }

  std::vector<std::size_t> attempts(points.size(), 0);

  const auto started = std::chrono::steady_clock::now();
  {
    par::WorkerPool pool(options.jobs);
    out.stats.jobs = pool.thread_count();

    std::vector<sim::CancellationToken> tokens(pool.thread_count());
    std::optional<Watchdog> watchdog;
    if (options.watchdog_stall.count() > 0) {
      watchdog.emplace(pool.thread_count(),
                       WatchdogConfig{options.watchdog_poll,
                                      options.watchdog_stall, true});
    }

    while (!schedule.empty()) {
      const auto head = schedule.begin();
      const std::size_t round = head->first;
      const std::vector<std::size_t> indices = std::move(head->second);
      schedule.erase(head);
      ++out.resilience.rounds;

      std::vector<BatchItem> batch;
      batch.reserve(indices.size());
      for (const std::size_t k : indices) {
        batch.push_back({k, attempts[k] + 1});
      }
      std::vector<PointOutcome> outcomes(batch.size());

      pool.run_indexed_on_workers(
          batch.size(), [&](std::size_t worker, std::size_t j) {
            const BatchItem item = batch[j];
            sim::CancellationToken& token = tokens[worker];
            token.reset();
            if (watchdog.has_value()) {
              watchdog->begin_work(worker, &token);
            }
            telemetry::SweepTelemetry* tel = options.telemetry;
            const std::uint64_t t0 = tel != nullptr ? tel->now_ns() : 0;
            outcomes[j] = execute_point(base, points[item.index],
                                        item.index, grid.storm_faults,
                                        options.contract, &token);
            if (watchdog.has_value()) {
              watchdog->end_work(worker);
            }
            if (tel != nullptr) {
              const std::uint64_t t1 = tel->now_ns();
              telemetry::WorkerShard& shard = tel->shards().shard(worker);
              const PointOutcome& outcome = outcomes[j];
              const bool final_attempt = item.attempt >= max_attempts;
              if (outcome.ok) {
                shard.points_done.fetch_add(1, std::memory_order_relaxed);
              } else if (final_attempt) {
                shard.points_quarantined.fetch_add(1,
                                                   std::memory_order_relaxed);
              } else {
                shard.points_retried.fetch_add(1, std::memory_order_relaxed);
              }
              shard.busy_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
              // Heartbeats accumulated by this attempt's run (the token
              // is reset per attempt, so this is exactly one attempt's
              // slot beats).
              shard.heartbeats.fetch_add(token.heartbeat(),
                                         std::memory_order_relaxed);
              shard.wall_us.observe(static_cast<double>(t1 - t0) * 1e-3);
              if (outcome.ok) {
                // A failed attempt has no trustworthy result fields.
                shard.slots.fetch_add(outcome.result.result.slots,
                                      std::memory_order_relaxed);
                if (outcome.result.result.cap.has_value()) {
                  shard.capped_slots.fetch_add(
                      outcome.result.result.cap->slots_capped,
                      std::memory_order_relaxed);
                }
                if (outcome.result.result.audit.has_value()) {
                  const audit::AuditStats& a = *outcome.result.result.audit;
                  shard.audited_slots.fetch_add(a.slots_audited,
                                                std::memory_order_relaxed);
                  shard.audit_violations.fetch_add(
                      a.violations, std::memory_order_relaxed);
                  shard.engine_fallbacks.fetch_add(
                      a.engine_fallbacks, std::memory_order_relaxed);
                }
                shard.sim_s.observe(
                    outcome.result.result.totals.duration.value());
                if (outcome.result.ran_batched) {
                  shard.batched_dispatches.fetch_add(
                      1, std::memory_order_relaxed);
                } else {
                  shard.reference_dispatches.fetch_add(
                      1, std::memory_order_relaxed);
                }
              }
              if (telemetry::LaneRecorder* lanes = tel->lanes()) {
                telemetry::PointLane lane;
                lane.start_ns = t0;
                lane.end_ns = t1;
                lane.point_index = static_cast<std::uint32_t>(item.index);
                lane.attempt = static_cast<std::uint32_t>(item.attempt);
                lane.ok = outcome.ok;
                lane.quarantined = !outcome.ok && final_attempt;
                lane.batched = outcome.ok && outcome.result.ran_batched;
                lanes->record(worker, lane);
              }
            }
            // Journal a committed outcome immediately (ok, or the final
            // failed attempt): the record is fsync'd before any later
            // work depends on it, so a crash can only lose in-flight
            // points, never a completed one.
            if (journal.has_value() &&
                (outcomes[j].ok || item.attempt >= max_attempts)) {
              JournalRecord record;
              record.index = item.index;
              record.point = points[item.index];
              record.attempts = item.attempt;
              record.ok = outcomes[j].ok;
              if (outcomes[j].ok) {
                record.result = outcomes[j].result.result;
              } else {
                record.error = outcomes[j].error;
              }
              journal->append(record);
            }
          });

      // Serial post-pass in batch order: deterministic retry schedule.
      for (std::size_t j = 0; j < batch.size(); ++j) {
        const BatchItem item = batch[j];
        attempts[item.index] = item.attempt;
        ResilientPoint& slot = out.points[item.index];
        slot.attempts = item.attempt;
        if (outcomes[j].ok) {
          slot.ok = true;
          slot.result = std::move(outcomes[j].result);
          continue;
        }
        if (item.attempt < max_attempts) {
          const std::size_t delay = backoff_delay_rounds(
              options.contract.backoff_seed, item.index, item.attempt,
              options.contract.max_backoff_exponent);
          schedule[round + delay].push_back(item.index);
          ++out.resilience.retries;
          continue;
        }
        slot.ok = false;
        slot.result.point = points[item.index];
        slot.error = std::move(outcomes[j].error);
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

  for (const ResilientPoint& point : out.points) {
    if (!point.ok) {
      ++out.resilience.quarantined;
    } else if (point.result.result.cap.has_value() &&
               point.result.result.cap->slots_capped > 0) {
      // Points that survived only by throttling — the governor's
      // headline number for brownout reports.
      ++out.resilience.capped_ok;
    }
  }

  if (options.observer != nullptr && options.observer->active()) {
    obs::Context& obs = *options.observer;
    // Shared end-of-sweep publication (par.sweep.*): one site for both
    // runners.
    par::publish_sweep_stats(obs, out.stats);
    obs.gauge("resilience.scheduled",
              static_cast<double>(out.resilience.scheduled));
    obs.gauge("resilience.replayed",
              static_cast<double>(out.resilience.replayed));
    obs.gauge("resilience.retries",
              static_cast<double>(out.resilience.retries));
    obs.gauge("resilience.quarantined",
              static_cast<double>(out.resilience.quarantined));
    obs.gauge("resilience.capped_ok",
              static_cast<double>(out.resilience.capped_ok));
    obs.gauge("resilience.rounds",
              static_cast<double>(out.resilience.rounds));
    obs.gauge("resilience.spot_checks",
              static_cast<double>(out.resilience.spot_checks));
    obs.gauge("resilience.watchdog_stalls",
              static_cast<double>(out.resilience.watchdog_stalls));
    obs.gauge("resilience.torn_bytes_dropped",
              static_cast<double>(out.resilience.torn_bytes_dropped));
  }
  return out;
}

}  // namespace fcdpm::resilience
