// Golden fixture for faulted runs: a small fault-storm grid through
// par::run_sweep on the reference engine and one faulted dt-grid run,
// every observable result field and the RobustnessStats written as
// hexfloat and compared bit for bit against tests/fault/data.
//
// The fixture pins the fault layer's numbers independently of the
// binary under test (perfbench takes its reference rows from the same
// build, so drift there would pass unnoticed). On a mismatch the test
// writes what it computed to fault_golden.actual.txt in its working
// directory; after a deliberate change to faulted results, review that
// file and copy it over the fixture.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "par/sweep.hpp"
#include "sim/experiments.hpp"
#include "sim/timed_simulator.hpp"

namespace fcdpm::sim {
namespace {

std::string hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

void append_result(std::ostringstream& out, const SimulationResult& r) {
  out << " fuel=" << hex(r.totals.fuel.value())
      << " delivered=" << hex(r.totals.delivered_energy.value())
      << " load=" << hex(r.totals.load_energy.value())
      << " bled=" << hex(r.totals.bled.value())
      << " unserved=" << hex(r.totals.unserved.value())
      << " duration=" << hex(r.totals.duration.value())
      << " slots=" << r.slots << " sleeps=" << r.sleeps
      << " latency=" << hex(r.latency_added.value())
      << " storage=" << hex(r.storage_initial.value()) << ','
      << hex(r.storage_end.value()) << ',' << hex(r.storage_min.value())
      << ',' << hex(r.storage_max.value());
  if (!r.robustness) {
    out << " robustness=none";
    return;
  }
  const fault::RobustnessStats& s = *r.robustness;
  out << " activations=" << s.activations << " dropouts=" << s.dropouts
      << " brownouts=" << s.brownouts
      << " clamped=" << s.fc_clamped_segments
      << " reprojections=" << s.reprojections
      << " fallbacks=" << s.fallbacks
      << " solver_failures=" << s.solver_failures
      << " capped=" << s.capped_slots
      << " brownout_lost=" << hex(s.brownout_lost.value())
      << " degraded=" << hex(s.degraded_time.value())
      << " recovery=" << hex(s.recovery_time.value());
}

/// Camcorder trace, 4 policies x rho {0.3, 0.7} x capacity {3, 24} x
/// storm seeds 1-8 (default 12-event storms), reference engine.
std::vector<std::string> storm_sweep_lines() {
  const ExperimentConfig base = experiment1_config();
  par::SweepGrid grid;
  grid.policies = {PolicyKind::Conv, PolicyKind::Asap, PolicyKind::FcDpm,
                   PolicyKind::Oracle};
  grid.rhos = {0.3, 0.7};
  grid.capacities = {Coulomb(3.0), Coulomb(24.0)};
  grid.storm_seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  const par::SweepResult sweep = par::run_sweep(base, grid);

  std::vector<std::string> lines;
  for (const par::SweepPointResult& p : sweep.points) {
    std::ostringstream out;
    out << "sweep " << to_string(p.point.policy) << " rho=" << p.point.rho
        << " cap=" << p.point.capacity.value()
        << " seed=" << p.point.storm_seed << " ok=" << p.ok;
    append_result(out, p.result);
    lines.push_back(out.str());
  }
  return lines;
}

/// One dt-grid run under a schedule that exercises every fault kind,
/// with coincident starts, overlaps, permanent windows and a brownout.
std::string timed_line() {
  ExperimentConfig config = experiment1_config();
  config.trace = config.trace.truncated(Seconds(300.0));
  dpm::PredictiveDpmPolicy dpm = make_dpm_policy(config);
  const std::unique_ptr<core::FcOutputPolicy> fc =
      make_fc_policy(PolicyKind::FcDpm, config);
  power::HybridPowerSource hybrid = make_hybrid(config);
  fault::FaultInjector faults{fault::FaultSchedule::parse(
      "stack_degradation@20:60x0.8,fuel_starvation@20:40x0.6,"
      "sensor_noise@30:200x0.2,converter_dropout@90:15,"
      "storage_fade@120x0.7,brownout@150x0.4,load_spike@200:50x1.6,"
      "dcdc_drop@240x0.9")};
  TimedOptions options;
  options.timestep = Seconds(0.05);
  options.initial_storage = config.initial_storage;
  options.faults = &faults;
  const SimulationResult r =
      simulate_timed(config.trace, dpm, *fc, hybrid, options);

  std::ostringstream out;
  out << "timed fcdpm dt=0.05";
  append_result(out, r);
  return out.str();
}

std::vector<std::string> read_fixture() {
  std::ifstream in(FCDPM_FAULT_GOLDEN);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

TEST(FaultGolden, StormSweepAndTimedRunMatchTheFixtureBitForBit) {
  std::vector<std::string> actual = storm_sweep_lines();
  ASSERT_EQ(actual.size(), 128u);
  actual.push_back(timed_line());
  const std::vector<std::string> expected = read_fixture();

  std::size_t mismatches = actual.size() == expected.size() ? 0 : 1;
  for (std::size_t k = 0; k < actual.size() && k < expected.size(); ++k) {
    EXPECT_EQ(actual[k], expected[k]) << "fixture line " << k + 1;
    mismatches += actual[k] != expected[k] ? 1 : 0;
  }
  EXPECT_EQ(actual.size(), expected.size())
      << "fixture " << FCDPM_FAULT_GOLDEN << " is missing or truncated";
  if (mismatches > 0) {
    std::ofstream out("fault_golden.actual.txt");
    for (const std::string& line : actual) {
      out << line << '\n';
    }
    ADD_FAILURE() << mismatches << " line(s) differ; computed lines "
                  << "written to fault_golden.actual.txt";
  }
}

}  // namespace
}  // namespace fcdpm::sim
