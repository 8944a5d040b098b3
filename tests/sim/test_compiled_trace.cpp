#include "sim/compiled_trace.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "dpm/power_states.hpp"
#include "workload/camcorder.hpp"
#include "workload/trace.hpp"

namespace {

using namespace fcdpm;

dpm::DevicePowerModel camcorder_device() {
  return dpm::DevicePowerModel::dvd_camcorder();
}

TEST(CompiledTrace, BakesTheReferenceDerivationsPerSlot) {
  const wl::Trace trace = wl::paper_camcorder_trace();
  const dpm::DevicePowerModel device = camcorder_device();
  const sim::CompiledTrace compiled(trace, device);

  ASSERT_EQ(compiled.size(), trace.size());
  for (std::size_t k = 0; k < trace.size(); ++k) {
    const wl::TaskSlot& slot = trace[k];
    // Same expressions the reference slot loop evaluates per slot.
    const Ampere run_current = slot.active_power / device.bus_voltage;
    const Seconds active_eff = device.standby_to_run_delay + slot.active +
                               device.run_to_standby_delay;
    EXPECT_EQ(compiled.idle(k).value(), slot.idle.value());
    EXPECT_EQ(compiled.run_current(k).value(), run_current.value());
    EXPECT_EQ(compiled.active_eff(k).value(), active_eff.value());
    EXPECT_EQ(compiled.active_charge(k).value(),
              (run_current * active_eff).value());
  }
}

TEST(CompiledTrace, TotalActiveChargeSumsTheSlots) {
  const wl::Trace trace = wl::paper_camcorder_trace();
  const sim::CompiledTrace compiled(trace, camcorder_device());
  Coulomb total{0.0};
  for (std::size_t k = 0; k < compiled.size(); ++k) {
    total += compiled.active_charge(k);
  }
  EXPECT_EQ(compiled.total_active_charge().value(), total.value());
}

TEST(CompiledTrace, KeepsTheSourceTrace) {
  const wl::Trace trace = wl::paper_camcorder_trace();
  const sim::CompiledTrace compiled(trace, camcorder_device());
  EXPECT_EQ(compiled.trace().name(), trace.name());
  ASSERT_EQ(compiled.trace().size(), trace.size());
  EXPECT_EQ(compiled.trace()[0].active_power.value(),
            trace[0].active_power.value());
}

TEST(CompiledTrace, CompatibleWithMatchesOnlyTheBakedDevice) {
  const wl::Trace trace = wl::paper_camcorder_trace();
  const dpm::DevicePowerModel device = camcorder_device();
  const sim::CompiledTrace compiled(trace, device);

  EXPECT_TRUE(compiled.compatible_with(device));
  // Values not baked into the arrays may differ freely.
  dpm::DevicePowerModel same_bakes = device;
  same_bakes.sleep_power = Watt(1.0);
  EXPECT_TRUE(compiled.compatible_with(same_bakes));

  dpm::DevicePowerModel other_bus = device;
  other_bus.bus_voltage = Volt(11.0);
  EXPECT_FALSE(compiled.compatible_with(other_bus));
  dpm::DevicePowerModel other_sr = device;
  other_sr.standby_to_run_delay = Seconds(2.0);
  EXPECT_FALSE(compiled.compatible_with(other_sr));
  dpm::DevicePowerModel other_rs = device;
  other_rs.run_to_standby_delay = Seconds(1.0);
  EXPECT_FALSE(compiled.compatible_with(other_rs));
}

TEST(CompiledTrace, RejectsAnInvalidDevice) {
  dpm::DevicePowerModel device = camcorder_device();
  device.bus_voltage = Volt(0.0);
  EXPECT_THROW(sim::CompiledTrace(wl::paper_camcorder_trace(), device),
               PreconditionError);
}

TEST(CompiledTrace, EmptyTraceCompilesEmpty) {
  const sim::CompiledTrace compiled(wl::Trace{}, camcorder_device());
  EXPECT_TRUE(compiled.empty());
  EXPECT_EQ(compiled.size(), 0u);
  EXPECT_EQ(compiled.total_active_charge().value(), 0.0);
}

}  // namespace
