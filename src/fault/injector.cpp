#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace fcdpm::fault {

FaultInjector::FaultInjector(FaultSchedule schedule)
    : schedule_(std::move(schedule)) {
  reset();
}

void FaultInjector::reset() {
  active_ = ActiveFaults{};
  stats_ = RobustnessStats{};
  entered_ = 0;
  next_change_ = Seconds(0.0);  // the t = 0 call below folds the set
  pending_brownout_ = 0.0;
  last_time_ = Seconds(0.0);
  was_active_ = false;
  noise_engine_.seed(schedule_.noise_seed());
  last_fraction_ = -1.0;
  prefault_fraction_ = -1.0;
  recovering_ = false;
  recovering_since_ = Seconds(0.0);

  // Faults scheduled exactly at t = 0 take effect from the first
  // segment, so establish the active set before any time elapses.
  (void)advance_to(Seconds(0.0));
}

const ActiveFaults& FaultInjector::advance_to(Seconds now) {
  now = std::max(now, last_time_);

  // Degraded time accrues over the elapsed interval when it began with
  // faults active (piecewise-constant sampling at segment boundaries,
  // matching the simulators' segment model).
  if (was_active_) {
    stats_.degraded_time += now - last_time_;
  }

  // No boundary crossed: no window was entered or left, so the active
  // set, and with it the episode state, still stands.
  if (now < next_change_) {
    last_time_ = now;
    return active_;
  }

  // Enter every event whose start was crossed. Starts are ordered, so
  // the entered events stay a prefix of the schedule.
  const std::vector<FaultEvent>& events = schedule_.events();
  for (; entered_ < events.size() && now >= events[entered_].start;
       ++entered_) {
    const FaultEvent& event = events[entered_];
    if (event.kind == FaultKind::Brownout) {
      // Arm the one-shot: compound lost fractions (losing 50 % twice
      // leaves 25 %, not 0 %).
      pending_brownout_ =
          1.0 - (1.0 - pending_brownout_) * (1.0 - event.magnitude);
      ++stats_.brownouts;
    } else {
      ++stats_.activations;
      if (event.kind == FaultKind::ConverterDropout) {
        ++stats_.dropouts;
      }
    }
  }

  // Re-fold the active set in schedule order (the combination order
  // fixes the rounding) and find the next boundary: the next start, or
  // the earliest end of an active window.
  next_change_ = entered_ < events.size()
                     ? events[entered_].start
                     : Seconds(std::numeric_limits<double>::infinity());
  ActiveFaults combined;
  for (std::size_t k = 0; k < entered_; ++k) {
    const FaultEvent& event = events[k];
    if (!event.active_at(now)) {
      continue;
    }
    if (event.duration.value() > 0.0) {
      next_change_ = std::min(next_change_, event.start + event.duration);
    }
    switch (event.kind) {
      case FaultKind::StackDegradation:
      case FaultKind::DcdcEfficiencyDrop:
        combined.fuel_penalty /= event.magnitude;
        break;
      case FaultKind::FuelStarvation:
        combined.fc_output_derate *= event.magnitude;
        break;
      case FaultKind::ConverterDropout:
        combined.fc_dropout = true;
        break;
      case FaultKind::StorageFade:
        combined.storage_derate *= event.magnitude;
        break;
      case FaultKind::SensorNoise:
        // Independent noise sources add in variance.
        combined.sensor_noise_sigma =
            std::sqrt(combined.sensor_noise_sigma *
                          combined.sensor_noise_sigma +
                      event.magnitude * event.magnitude);
        break;
      case FaultKind::LoadSpike:
        combined.load_scale *= event.magnitude;
        break;
      case FaultKind::Brownout:
        break;  // one-shot, never "active"
    }
  }
  active_ = combined;

  const bool now_active = active_.any();
  if (was_active_ && !now_active) {
    // Last fault cleared: start the recovery clock if we know what
    // level the buffer held before the episode.
    if (prefault_fraction_ >= 0.0) {
      recovering_ = true;
      recovering_since_ = now;
    }
  } else if (!was_active_ && now_active) {
    // New episode: snapshot the pre-fault level once and cancel any
    // recovery still in progress.
    if (prefault_fraction_ < 0.0) {
      prefault_fraction_ = last_fraction_;
    }
    recovering_ = false;
  }
  was_active_ = now_active;
  last_time_ = now;
  return active_;
}

double FaultInjector::consume_brownout() noexcept {
  const double fraction = pending_brownout_;
  pending_brownout_ = 0.0;
  return fraction;
}

double FaultInjector::noise(double sigma) {
  if (sigma <= 0.0) {
    return 0.0;
  }
  std::normal_distribution<double> dist(0.0, sigma);
  return dist(noise_engine_);
}

void FaultInjector::note_storage(Seconds now, double fraction) {
  last_fraction_ = fraction;
  if (recovering_ && prefault_fraction_ >= 0.0 &&
      fraction >= prefault_fraction_) {
    stats_.recovery_time += std::max(now, recovering_since_) -
                            recovering_since_;
    recovering_ = false;
    prefault_fraction_ = -1.0;
  }
}

}  // namespace fcdpm::fault
