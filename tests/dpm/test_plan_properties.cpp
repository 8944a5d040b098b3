// Property tests over randomized device models and idle lengths: every
// idle plan must conserve time, never invent charge, and respect the
// power-state semantics, regardless of parameters.
#include <gtest/gtest.h>

#include "common/random.hpp"
#include "dpm/dpm_policy.hpp"
#include "dpm/power_states.hpp"

namespace fcdpm::dpm {
namespace {

DevicePowerModel random_device(Rng& rng) {
  DevicePowerModel device;
  device.run_power = Watt(rng.uniform(8.0, 20.0));
  device.sleep_power = Watt(rng.uniform(0.5, 3.0));
  device.standby_power =
      Watt(device.sleep_power.value() + rng.uniform(1.0, 5.0));
  device.power_down_delay = Seconds(rng.uniform(0.1, 2.0));
  device.wake_up_delay = Seconds(rng.uniform(0.1, 2.0));
  device.power_down_power = Watt(rng.uniform(2.0, 15.0));
  device.wake_up_power = Watt(rng.uniform(2.0, 15.0));
  device.validate();
  return device;
}

IdlePlan standby_layout(const DevicePowerModel& device, Seconds idle) {
  IdlePlan plan;
  plan_standby(device, idle, plan);
  return plan;
}

IdlePlan sleep_layout(const DevicePowerModel& device, Seconds idle) {
  IdlePlan plan;
  plan_sleep(device, idle, plan);
  return plan;
}

class PlanPropertySweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PlanPropertySweep, SleepPlansConserveTimeAndCharge) {
  Rng rng(GetParam());
  for (int k = 0; k < 200; ++k) {
    const DevicePowerModel device = random_device(rng);
    const Seconds idle(rng.uniform(0.0, 40.0));

    const IdlePlan plan = sleep_layout(device, idle);
    // Time: total duration covers exactly max(idle, transitions).
    const double expected = std::max(
        idle.value(), device.sleep_transition_delay().value());
    EXPECT_NEAR(plan.total_duration().value(), expected, 1e-9);
    EXPECT_NEAR(plan.latency_spill.value(),
                std::max(0.0, device.sleep_transition_delay().value() -
                                  idle.value()),
                1e-9);
    // Charge: at least the transition charge, at most transitions plus
    // the whole idle at sleep current.
    const double charge = plan.total_charge().value();
    EXPECT_GE(charge, device.sleep_transition_charge().value() - 1e-9);
    EXPECT_LE(charge, device.sleep_transition_charge().value() +
                          device.sleep_current().value() * idle.value() +
                          1e-9);
    // Segment labels: all Sleep-phase states.
    for (std::size_t s = 0; s < plan.count; ++s) {
      const IdleSegment& segment = plan.segments[s];
      EXPECT_EQ(segment.state, PowerState::Sleep);
      EXPECT_GT(segment.duration.value(), 0.0);
      EXPECT_GE(segment.current.value(), 0.0);
    }
  }
}

TEST_P(PlanPropertySweep, StandbyPlansAreExact) {
  Rng rng(GetParam() ^ 0xABCDEF);
  for (int k = 0; k < 200; ++k) {
    const DevicePowerModel device = random_device(rng);
    const Seconds idle(rng.uniform(0.0, 40.0));
    const IdlePlan plan = standby_layout(device, idle);
    EXPECT_NEAR(plan.total_duration().value(), idle.value(), 1e-12);
    EXPECT_NEAR(plan.total_charge().value(),
                device.standby_current().value() * idle.value(), 1e-9);
    EXPECT_DOUBLE_EQ(plan.latency_spill.value(), 0.0);
  }
}

TEST_P(PlanPropertySweep, SleepBeatsStandbyExactlyAboveBreakEven) {
  // The break-even time is *defined* by charge equality of the two
  // plans; verify the definition holds for arbitrary devices.
  Rng rng(GetParam() ^ 0x5EED);
  for (int k = 0; k < 100; ++k) {
    const DevicePowerModel device = random_device(rng);
    const double t_be = device.break_even_time().value();

    const double at_be_sleep =
        sleep_layout(device, Seconds(t_be)).total_charge().value();
    const double at_be_standby =
        standby_layout(device, Seconds(t_be)).total_charge().value();
    // At Tbe the costs tie (when Tbe is not clipped by the transition
    // floor, where sleeping is already cheaper).
    if (t_be > device.sleep_transition_delay().value() + 1e-9) {
      EXPECT_NEAR(at_be_sleep, at_be_standby, 1e-6);
    } else {
      EXPECT_LE(at_be_sleep, at_be_standby + 1e-6);
    }

    const double above = t_be * 1.5 + 1.0;
    EXPECT_LT(sleep_layout(device, Seconds(above)).total_charge().value(),
              standby_layout(device, Seconds(above)).total_charge().value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanPropertySweep,
                         ::testing::Values(1u, 2u, 3u, 77u, 2007u));

}  // namespace
}  // namespace fcdpm::dpm
