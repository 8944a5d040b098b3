// Runtime companion of FaultSchedule: tracks which faults are active at
// the current simulated time, hands one-shot brownouts to the storage
// layer exactly once, provides the deterministic sensor-noise stream,
// and owns the run's RobustnessStats.
//
// Threading model mirrors obs::Context — the simulators and the hybrid
// source hold a non-owning `FaultInjector*` that defaults to nullptr;
// every hook is a pointer compare, so a run without an injector is
// bit-identical to a build without the subsystem.
//
// `advance_to` must be called with non-decreasing simulated time (the
// hybrid source's accumulated segment clock); it samples each event's
// activity window at segment boundaries, which matches the simulators'
// piecewise-constant segment model.
//
// Cost model: the schedule is ordered by start and the clock never runs
// backwards, so the entered events are always a prefix of the schedule
// and the active set can only change at the next event boundary (the
// next start, or the earliest end of an active window). Between
// boundaries advance_to is O(1) — it accrues degraded time and returns
// the cached set; a call that crosses a boundary re-folds the entered
// prefix, O(events).
#pragma once

#include <cstddef>
#include <random>

#include "fault/fault.hpp"
#include "fault/schedule.hpp"

namespace fcdpm::fault {

class FaultInjector {
 public:
  explicit FaultInjector(FaultSchedule schedule);

  /// Back to t = 0: clears activation state, stats, pending brownouts
  /// and reseeds the noise stream. Called by the simulators unless the
  /// run continues a previous pass (lifetime multi-pass).
  void reset();

  /// Move the fault clock to `now` (clamped to be non-decreasing) and
  /// accrue degraded time for the elapsed interval when it began with
  /// faults active. When `now` reaches the next event boundary, also
  /// counts newly entered windows, arms brownouts whose start was
  /// crossed and recomputes the combined active set.
  const ActiveFaults& advance_to(Seconds now);

  [[nodiscard]] const ActiveFaults& active() const noexcept {
    return active_;
  }
  [[nodiscard]] bool any_active() const noexcept { return active_.any(); }

  /// Combined stored-charge fraction the storage layer must drop for
  /// brownouts armed since the last call; returns 0 when none are
  /// pending and clears the pending state (each brownout fires once).
  [[nodiscard]] double consume_brownout() noexcept;

  /// One draw from the deterministic noise stream: normal(0, sigma),
  /// or exactly 0 when sigma <= 0 (no engine state consumed, so a
  /// schedule without sensor noise perturbs nothing).
  [[nodiscard]] double noise(double sigma);

  /// Report the storage fraction after a segment; drives the recovery
  /// timer (time from the last fault clearing until the buffer is back
  /// at its pre-fault level).
  void note_storage(Seconds now, double fraction);

  [[nodiscard]] RobustnessStats& stats() noexcept { return stats_; }
  [[nodiscard]] const RobustnessStats& stats() const noexcept {
    return stats_;
  }

  [[nodiscard]] const FaultSchedule& schedule() const noexcept {
    return schedule_;
  }

 private:
  FaultSchedule schedule_;
  ActiveFaults active_;
  RobustnessStats stats_;
  /// Events [0, entered_) have had their window entry counted.
  std::size_t entered_ = 0;
  /// Earliest time the active set can change: the next unentered start
  /// or the earliest end of an active window (+inf when neither).
  Seconds next_change_{0.0};
  double pending_brownout_ = 0.0; ///< combined lost fraction to consume
  Seconds last_time_{0.0};
  bool was_active_ = false;
  std::mt19937_64 noise_engine_;

  // Recovery accounting: storage fraction snapshotted when a fault
  // episode begins, and the instant the last fault cleared.
  double last_fraction_ = -1.0;
  double prefault_fraction_ = -1.0;
  bool recovering_ = false;
  Seconds recovering_since_{0.0};
};

}  // namespace fcdpm::fault
