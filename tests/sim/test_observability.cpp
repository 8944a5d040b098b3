// The observability contract: attaching an obs::Context must not change
// a single simulated bit, spans must balance, the metrics must agree
// with the result struct, and the simulator must restore whatever
// observer was attached before it ran.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/context.hpp"
#include "sim/slot_simulator.hpp"
#include "sim/timed_simulator.hpp"

namespace fcdpm::sim {
namespace {

using core::FcDpmPolicy;
using dpm::DevicePowerModel;
using dpm::PredictiveDpmPolicy;
using power::HybridPowerSource;
using power::LinearEfficiencyModel;
using power::LinearFuelSource;
using power::SuperCapacitor;
using wl::Trace;

class CaptureSink final : public obs::TraceSink {
 public:
  void event(const obs::TraceEvent& event) override {
    events.push_back(event);
  }
  std::vector<obs::TraceEvent> events;
};

Trace small_trace() {
  return Trace("obs-test", {{Seconds(12.0), Seconds(3.0), Watt(14.65)},
                            {Seconds(0.4), Seconds(2.0), Watt(10.0)},
                            {Seconds(25.0), Seconds(1.5), Watt(12.0)}});
}

PredictiveDpmPolicy paper_dpm() {
  return PredictiveDpmPolicy::paper_policy(
      DevicePowerModel::dvd_camcorder(), 0.5, Seconds(10.0));
}

FcDpmPolicy paper_fc() {
  return FcDpmPolicy::paper_policy(LinearEfficiencyModel::paper_default(),
                                   DevicePowerModel::dvd_camcorder(), 0.5,
                                   Seconds(5.0), Ampere(1.2));
}

HybridPowerSource paper_hybrid() {
  return HybridPowerSource(
      std::make_unique<LinearFuelSource>(
          LinearEfficiencyModel::paper_default()),
      std::make_unique<SuperCapacitor>(Coulomb(6.0), 1.0));
}

SimulationResult run_once(obs::Context* observer) {
  Trace trace = small_trace();
  PredictiveDpmPolicy dpm = paper_dpm();
  FcDpmPolicy fc = paper_fc();
  HybridPowerSource hybrid = paper_hybrid();
  SimulationOptions options;
  options.initial_storage = Coulomb(1.0);
  options.observer = observer;
  return simulate(trace, dpm, fc, hybrid, options);
}

TEST(Observability, ResultsBitIdenticalWithAndWithoutObserver) {
  const SimulationResult plain = run_once(nullptr);

  CaptureSink sink;
  obs::MetricsRegistry metrics;
  obs::Context context(&sink, &metrics);
  const SimulationResult observed = run_once(&context);

  // Exact equality, not tolerance: instrumentation only reads state.
  EXPECT_EQ(plain.fuel().value(), observed.fuel().value());
  EXPECT_EQ(plain.storage_end.value(), observed.storage_end.value());
  EXPECT_EQ(plain.storage_min.value(), observed.storage_min.value());
  EXPECT_EQ(plain.totals.bled.value(), observed.totals.bled.value());
  EXPECT_EQ(plain.totals.unserved.value(),
            observed.totals.unserved.value());
  EXPECT_EQ(plain.sleeps, observed.sleeps);
  EXPECT_EQ(plain.latency_added.value(), observed.latency_added.value());

  EXPECT_FALSE(sink.events.empty());
  EXPECT_FALSE(metrics.empty());
}

TEST(Observability, SpansBalanceAndNest) {
  CaptureSink sink;
  obs::Context context(&sink, nullptr);
  run_once(&context);

  std::map<std::string, int> open_by_name;
  int depth = 0;
  for (const obs::TraceEvent& event : sink.events) {
    if (event.kind == obs::EventKind::SpanBegin) {
      ++open_by_name[event.name];
      ++depth;
    } else if (event.kind == obs::EventKind::SpanEnd) {
      --open_by_name[event.name];
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  for (const auto& [name, open] : open_by_name) {
    EXPECT_EQ(open, 0) << "unbalanced span: " << name;
  }
}

TEST(Observability, EventTimesAreMonotonic) {
  CaptureSink sink;
  obs::Context context(&sink, nullptr);
  const SimulationResult result = run_once(&context);

  Seconds previous{0.0};
  for (const obs::TraceEvent& event : sink.events) {
    EXPECT_GE(event.time.value(), previous.value());
    previous = event.time;
  }
  // The clock ends at the simulated duration.
  EXPECT_NEAR(context.now().value(), result.totals.duration.value(), 1e-9);
}

TEST(Observability, MetricsAgreeWithResult) {
  obs::MetricsRegistry metrics;
  obs::Context context(nullptr, &metrics);
  const SimulationResult result = run_once(&context);

  EXPECT_DOUBLE_EQ(metrics.counter("sim.slots").total(),
                   static_cast<double>(result.slots));
  EXPECT_DOUBLE_EQ(metrics.counter("dpm.decision.sleep").total() +
                       metrics.counter("dpm.decision.standby").total(),
                   static_cast<double>(result.slots));
  EXPECT_DOUBLE_EQ(metrics.counter("dpm.decision.sleep").total(),
                   static_cast<double>(result.sleeps));
  // FC-DPM solves at least once per slot (idle plan + active re-plan).
  EXPECT_GE(metrics.counter("core.solves").total(),
            static_cast<double>(result.slots));
  EXPECT_EQ(metrics.histogram("dpm.predictor_abs_error_s").count(),
            result.slots);
}

TEST(Observability, ObserverDetachedAndPreviousRestored) {
  Trace trace = small_trace();
  PredictiveDpmPolicy dpm = paper_dpm();
  FcDpmPolicy fc = paper_fc();
  HybridPowerSource hybrid = paper_hybrid();

  obs::Context prior;
  fc.set_observer(&prior);  // e.g. attached by an outer harness

  obs::Context context;
  SimulationOptions options;
  options.observer = &context;
  (void)simulate(trace, dpm, fc, hybrid, options);

  EXPECT_EQ(dpm.observer(), nullptr);
  EXPECT_EQ(fc.observer(), &prior);
  EXPECT_EQ(hybrid.observer(), nullptr);
}

TEST(Observability, TimedSimulatorEmitsBalancedSpans) {
  Trace trace = small_trace();
  PredictiveDpmPolicy dpm = paper_dpm();
  FcDpmPolicy fc = paper_fc();
  HybridPowerSource hybrid = paper_hybrid();

  CaptureSink sink;
  obs::MetricsRegistry metrics;
  obs::Context context(&sink, &metrics);
  TimedOptions options;
  options.timestep = Seconds(0.05);
  options.initial_storage = Coulomb(1.0);
  options.observer = &context;
  const SimulationResult result =
      simulate_timed(trace, dpm, fc, hybrid, options);

  int depth = 0;
  for (const obs::TraceEvent& event : sink.events) {
    if (event.kind == obs::EventKind::SpanBegin) {
      ++depth;
    } else if (event.kind == obs::EventKind::SpanEnd) {
      --depth;
    }
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NEAR(context.now().value(), result.totals.duration.value(), 1e-6);
  EXPECT_DOUBLE_EQ(metrics.counter("sim.slots").total(),
                   static_cast<double>(result.slots));
  EXPECT_EQ(dpm.observer(), nullptr);
  EXPECT_EQ(fc.observer(), nullptr);
  EXPECT_EQ(hybrid.observer(), nullptr);
}

}  // namespace
}  // namespace fcdpm::sim
