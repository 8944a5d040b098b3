// Differential property test of the fault clock. `ScanOracle` is the
// original full-scan FaultInjector::advance_to: every call rescans every
// event and re-folds the active set from scratch. The injector caches
// the active set between event boundaries; both are driven with the
// same random storms and time sequences, and everything observable must
// match bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "common/random.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"

namespace fcdpm::fault {
namespace {

/// The full-scan fold the injector replaced, kept verbatim as the
/// oracle: O(events) per advance_to call.
class ScanOracle {
 public:
  explicit ScanOracle(FaultSchedule schedule)
      : schedule_(std::move(schedule)) {
    reset();
  }

  void reset() {
    active_ = ActiveFaults{};
    stats_ = RobustnessStats{};
    entered_.assign(schedule_.size(), false);
    pending_brownout_ = 0.0;
    last_time_ = Seconds(0.0);
    was_active_ = false;
    noise_engine_.seed(schedule_.noise_seed());
    last_fraction_ = -1.0;
    prefault_fraction_ = -1.0;
    recovering_ = false;
    recovering_since_ = Seconds(0.0);
    (void)advance_to(Seconds(0.0));
  }

  const ActiveFaults& advance_to(Seconds now) {
    now = std::max(now, last_time_);
    if (was_active_) {
      stats_.degraded_time += now - last_time_;
    }
    ActiveFaults combined;
    const std::vector<FaultEvent>& events = schedule_.events();
    for (std::size_t k = 0; k < events.size(); ++k) {
      const FaultEvent& event = events[k];
      if (now >= event.start && !entered_[k]) {
        entered_[k] = true;
        if (event.kind == FaultKind::Brownout) {
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
      if (!event.active_at(now)) {
        continue;
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
          combined.sensor_noise_sigma =
              std::sqrt(combined.sensor_noise_sigma *
                            combined.sensor_noise_sigma +
                        event.magnitude * event.magnitude);
          break;
        case FaultKind::LoadSpike:
          combined.load_scale *= event.magnitude;
          break;
        case FaultKind::Brownout:
          break;
      }
    }
    active_ = combined;

    const bool now_active = active_.any();
    if (was_active_ && !now_active) {
      if (prefault_fraction_ >= 0.0) {
        recovering_ = true;
        recovering_since_ = now;
      }
    } else if (!was_active_ && now_active) {
      if (prefault_fraction_ < 0.0) {
        prefault_fraction_ = last_fraction_;
      }
      recovering_ = false;
    }
    was_active_ = now_active;
    last_time_ = now;
    return active_;
  }

  [[nodiscard]] const ActiveFaults& active() const noexcept {
    return active_;
  }
  [[nodiscard]] bool any_active() const noexcept { return active_.any(); }

  double consume_brownout() noexcept {
    const double fraction = pending_brownout_;
    pending_brownout_ = 0.0;
    return fraction;
  }

  double noise(double sigma) {
    if (sigma <= 0.0) {
      return 0.0;
    }
    std::normal_distribution<double> dist(0.0, sigma);
    return dist(noise_engine_);
  }

  void note_storage(Seconds now, double fraction) {
    last_fraction_ = fraction;
    if (recovering_ && prefault_fraction_ >= 0.0 &&
        fraction >= prefault_fraction_) {
      stats_.recovery_time +=
          std::max(now, recovering_since_) - recovering_since_;
      recovering_ = false;
      prefault_fraction_ = -1.0;
    }
  }

  [[nodiscard]] const RobustnessStats& stats() const noexcept {
    return stats_;
  }

 private:
  FaultSchedule schedule_;
  ActiveFaults active_;
  RobustnessStats stats_;
  std::vector<bool> entered_;
  double pending_brownout_ = 0.0;
  Seconds last_time_{0.0};
  bool was_active_ = false;
  std::mt19937_64 noise_engine_;
  double last_fraction_ = -1.0;
  double prefault_fraction_ = -1.0;
  bool recovering_ = false;
  Seconds recovering_since_{0.0};
};

std::uint64_t bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

void expect_same_active(const ActiveFaults& got, const ActiveFaults& want) {
  EXPECT_EQ(bits(got.fc_output_derate), bits(want.fc_output_derate));
  EXPECT_EQ(bits(got.fuel_penalty), bits(want.fuel_penalty));
  EXPECT_EQ(got.fc_dropout, want.fc_dropout);
  EXPECT_EQ(bits(got.storage_derate), bits(want.storage_derate));
  EXPECT_EQ(bits(got.sensor_noise_sigma), bits(want.sensor_noise_sigma));
  EXPECT_EQ(bits(got.load_scale), bits(want.load_scale));
}

void expect_same_stats(const RobustnessStats& got,
                       const RobustnessStats& want) {
  EXPECT_EQ(got.activations, want.activations);
  EXPECT_EQ(got.dropouts, want.dropouts);
  EXPECT_EQ(got.brownouts, want.brownouts);
  EXPECT_EQ(got.fc_clamped_segments, want.fc_clamped_segments);
  EXPECT_EQ(got.reprojections, want.reprojections);
  EXPECT_EQ(got.fallbacks, want.fallbacks);
  EXPECT_EQ(got.solver_failures, want.solver_failures);
  EXPECT_EQ(got.capped_slots, want.capped_slots);
  EXPECT_EQ(bits(got.brownout_lost.value()),
            bits(want.brownout_lost.value()));
  EXPECT_EQ(bits(got.degraded_time.value()),
            bits(want.degraded_time.value()));
  EXPECT_EQ(bits(got.recovery_time.value()),
            bits(want.recovery_time.value()));
}

/// 0-40 events of every kind. Starts come from a coarse grid (so many
/// coincide, some at t = 0) or are arbitrary reals; about a fifth of
/// the windows are permanent.
FaultSchedule random_schedule(Rng& rng) {
  FaultSchedule schedule;
  const auto count = static_cast<std::size_t>(rng.uniform_int(0, 40));
  for (std::size_t k = 0; k < count; ++k) {
    FaultEvent event;
    event.kind = static_cast<FaultKind>(rng.uniform_int(0, 7));
    event.start = rng.chance(0.6)
                      ? Seconds(5.0 * static_cast<double>(
                                          rng.uniform_int(0, 20)))
                      : Seconds(rng.uniform(0.0, 100.0));
    if (rng.chance(0.2)) {
      event.duration = Seconds(0.0);
    } else if (rng.chance(0.5)) {
      event.duration =
          Seconds(5.0 * static_cast<double>(rng.uniform_int(1, 6)));
    } else {
      event.duration = Seconds(rng.uniform(0.01, 30.0));
    }
    switch (event.kind) {
      case FaultKind::StackDegradation:
      case FaultKind::FuelStarvation:
      case FaultKind::DcdcEfficiencyDrop:
      case FaultKind::StorageFade:
        event.magnitude = rng.chance(0.1) ? 1.0 : rng.uniform(0.3, 1.0);
        break;
      case FaultKind::Brownout:
        event.magnitude = rng.uniform(0.0, 1.0);
        break;
      case FaultKind::SensorNoise:
        event.magnitude = rng.chance(0.1) ? 0.0 : rng.uniform(0.0, 0.5);
        break;
      case FaultKind::LoadSpike:
        event.magnitude = rng.chance(0.1) ? 1.0 : rng.uniform(1.0, 2.0);
        break;
      case FaultKind::ConverterDropout:
        event.magnitude = 1.0;
        break;
    }
    schedule.add(event);
  }
  schedule.set_noise_seed(static_cast<std::uint64_t>(
      rng.uniform_int(1, std::numeric_limits<std::int32_t>::max())));
  return schedule;
}

/// Every instant at which an event's activity can change, computed with
/// the same expressions FaultEvent::active_at uses, sorted.
std::vector<Seconds> boundaries(const FaultSchedule& schedule) {
  std::vector<Seconds> out;
  for (const FaultEvent& event : schedule.events()) {
    out.push_back(event.start);
    if (event.duration.value() > 0.0) {
      out.push_back(event.start + event.duration);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Next clock reading: a repeat, a landing exactly on a boundary ahead,
/// a small step, a jump over several boundaries, or (rarely) a step
/// backwards that the clamp must absorb.
Seconds next_time(Rng& rng, Seconds now, const std::vector<Seconds>& edges) {
  const auto ahead =
      std::lower_bound(edges.begin(), edges.end(), now) - edges.begin();
  const auto left = static_cast<std::int64_t>(edges.size()) - ahead;
  const double pick = rng.uniform(0.0, 1.0);
  if (pick < 0.15) {
    return now;
  }
  if (pick < 0.5 && left > 0) {
    return edges[static_cast<std::size_t>(
        ahead + rng.uniform_int(0, std::min<std::int64_t>(left - 1, 2)))];
  }
  if (pick < 0.6 && left > 1) {
    return edges[static_cast<std::size_t>(
               ahead + rng.uniform_int(1, left - 1))] +
           Seconds(rng.uniform(0.0, 1.0));
  }
  if (pick < 0.63) {
    return now - Seconds(rng.uniform(0.0, 3.0));
  }
  return now + Seconds(rng.uniform(0.0, 4.0));
}

/// One lock-step drive of an injector and its oracle.
struct Pair {
  FaultInjector injector;
  ScanOracle oracle;
};

void step(Pair& pair, Rng& rng, Seconds now) {
  const ActiveFaults& got = pair.injector.advance_to(now);
  const ActiveFaults& want = pair.oracle.advance_to(now);
  expect_same_active(got, want);
  expect_same_active(pair.injector.active(), want);
  EXPECT_EQ(pair.injector.any_active(), pair.oracle.any_active());
  if (rng.chance(0.5)) {
    EXPECT_EQ(bits(pair.injector.consume_brownout()),
              bits(pair.oracle.consume_brownout()));
  }
  if (rng.chance(0.3)) {
    const double sigma = got.sensor_noise_sigma;
    EXPECT_EQ(bits(pair.injector.noise(sigma)),
              bits(pair.oracle.noise(sigma)));
  }
  // Storage readings drive the recovery timer; quantized so the
  // "back at the pre-fault level" comparison sometimes ties.
  const double fraction =
      0.25 * static_cast<double>(rng.uniform_int(0, 4));
  pair.injector.note_storage(now, fraction);
  pair.oracle.note_storage(now, fraction);
  expect_same_stats(pair.injector.stats(), pair.oracle.stats());
}

TEST(FaultClock, MatchesTheFullScanOracleOnRandomStormsBitForBit) {
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    SCOPED_TRACE("storm seed " + std::to_string(seed));
    Rng rng(seed);
    const FaultSchedule schedule = random_schedule(rng);
    const std::vector<Seconds> edges = boundaries(schedule);
    const auto steps = rng.uniform_int(20, 120);
    const auto reset_at = rng.uniform_int(0, steps);
    const auto copy_at = rng.uniform_int(0, steps);

    Pair pair{FaultInjector(schedule), ScanOracle(schedule)};
    expect_same_active(pair.injector.active(), pair.oracle.active());
    std::vector<Pair> copies;
    Seconds now{0.0};
    for (std::int64_t k = 0; k < steps; ++k) {
      if (k == reset_at) {
        pair.injector.reset();
        pair.oracle.reset();
        now = Seconds(0.0);
        expect_same_active(pair.injector.active(), pair.oracle.active());
        expect_same_stats(pair.injector.stats(), pair.oracle.stats());
      }
      if (k == copy_at) {
        // Lifetime snapshot path: a copy-constructed and a
        // copy-assigned injector continue independently of the source.
        copies.push_back(pair);
        copies.push_back(Pair{FaultInjector(FaultSchedule{}),
                              ScanOracle(FaultSchedule{})});
        copies.back().injector = pair.injector;
        copies.back().oracle = pair.oracle;
      }
      now = next_time(rng, now, edges);
      step(pair, rng, now);
      for (Pair& copy : copies) {
        step(copy, rng, now);
      }
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
  }
}

TEST(FaultClock, CoincidentBoundariesCrossedInOneJumpMatchTheOracle) {
  // Two windows end exactly where two others start, and one jump
  // crosses all of them plus a brownout.
  const FaultSchedule schedule = FaultSchedule::parse(
      "load_spike@10:10x1.5,fuel_starvation@10:10x0.5,"
      "load_spike@20:5x2,storage_fade@20x0.7,brownout@22x0.5,"
      "sensor_noise@20:1x0.1,sensor_noise@20:3x0.2");
  Rng rng(7);
  Pair pair{FaultInjector(schedule), ScanOracle(schedule)};
  for (const double t : {9.999, 10.0, 10.0, 19.0, 20.0, 20.0, 21.0, 40.0,
                         40.0}) {
    step(pair, rng, Seconds(t));
  }
  EXPECT_EQ(pair.injector.stats().activations, 6u);
  EXPECT_EQ(pair.injector.stats().brownouts, 1u);
}

}  // namespace
}  // namespace fcdpm::fault
