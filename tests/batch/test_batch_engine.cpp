// Differential suite for fcdpm::batch: every lane of a batch — merged,
// split, ragged, or audited — must be bit-identical to running that
// point alone on the reference simulator, and the merge machinery
// (sets, cascade re-forms, journals) is pure bookkeeping that never
// leaks into results. One CompiledTrace is shared read-only by many
// concurrent batches (the sweep scheduler's usage), which makes this
// binary the TSan probe for the batched path.
//
// The single-run entry (batch::simulate, a B = 1 batch) is held to the
// same contract on every path that changes execution: fault injection,
// observers, profile recording and governors fall back to the reference
// loop; budgets, cancellation and preserved source state run in it.
#include "batch/engine.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "batch/lifetime.hpp"
#include "cap/governor.hpp"
#include "common/contracts.hpp"
#include "dpm/stochastic_policy.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "sim/compiled_trace.hpp"
#include "sim/experiments.hpp"
#include "sim/lifetime.hpp"
#include "sim/slot_simulator.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace fcdpm;

/// Per-lane wiring for one batched point: the capacity-adjusted config,
/// its FC policy, and its hybrid (the engine mutates both).
struct LaneRig {
  sim::ExperimentConfig config;
  std::unique_ptr<core::FcOutputPolicy> fc;
  power::HybridPowerSource hybrid;

  LaneRig(sim::ExperimentConfig base, sim::PolicyKind kind, Coulomb capacity)
      : config(std::move(base)),
        fc(nullptr),
        hybrid((config.storage_capacity = capacity,
                config.initial_storage =
                    min(config.initial_storage, capacity),
                sim::make_hybrid(config))) {
    fc = sim::make_fc_policy(kind, config);
  }
};

void expect_identical_results(const sim::SimulationResult& ref,
                              const sim::SimulationResult& got) {
  EXPECT_EQ(std::memcmp(&ref.totals, &got.totals, sizeof ref.totals), 0);
  EXPECT_EQ(ref.slots, got.slots);
  EXPECT_EQ(ref.sleeps, got.sleeps);
  EXPECT_EQ(ref.latency_added.value(), got.latency_added.value());
  EXPECT_EQ(ref.storage_end.value(), got.storage_end.value());
  EXPECT_EQ(ref.storage_min.value(), got.storage_min.value());
  EXPECT_EQ(ref.storage_max.value(), got.storage_max.value());
  EXPECT_EQ(ref.storage_initial.value(), got.storage_initial.value());
  EXPECT_EQ(ref.trace_name, got.trace_name);
  EXPECT_EQ(ref.dpm_policy, got.dpm_policy);
  EXPECT_EQ(ref.fc_policy, got.fc_policy);
  EXPECT_EQ(ref.idle_accuracy.has_value(), got.idle_accuracy.has_value());
  ASSERT_EQ(ref.slot_records.size(), got.slot_records.size());
  for (std::size_t k = 0; k < ref.slot_records.size(); ++k) {
    const sim::SlotRecord& a = ref.slot_records[k];
    const sim::SlotRecord& b = got.slot_records[k];
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.idle.value(), b.idle.value());
    EXPECT_EQ(a.active.value(), b.active.value());
    EXPECT_EQ(a.slept, b.slept);
    EXPECT_EQ(a.if_idle.value(), b.if_idle.value());
    EXPECT_EQ(a.if_active.value(), b.if_active.value());
    EXPECT_EQ(a.fuel.value(), b.fuel.value());
    EXPECT_EQ(a.fuel_end.value(), b.fuel_end.value());
    EXPECT_EQ(a.storage_end.value(), b.storage_end.value());
    EXPECT_EQ(a.latency.value(), b.latency.value());
  }
}

void expect_identical_hybrids(const power::HybridPowerSource& ref,
                              const power::HybridPowerSource& got) {
  EXPECT_EQ(std::memcmp(&ref.totals(), &got.totals(), sizeof ref.totals()),
            0);
  EXPECT_EQ(ref.storage().charge().value(), got.storage().charge().value());
  EXPECT_EQ(ref.min_storage_seen().value(), got.min_storage_seen().value());
  EXPECT_EQ(ref.max_storage_seen().value(), got.max_storage_seen().value());
  EXPECT_EQ(ref.startups(), got.startups());
}

/// Reference run of one capacity point with run_point's exact wiring.
/// A nonzero sub-trace `slot_budget` throws on the reference engine;
/// the returned hybrid then holds the partial state at the throw.
struct RefRun {
  sim::SimulationResult result;
  power::HybridPowerSource hybrid;
};

RefRun reference_run(const sim::ExperimentConfig& base, sim::PolicyKind kind,
                     Coulomb capacity, std::size_t slot_budget = 0) {
  LaneRig rig(base, kind, capacity);
  dpm::PredictiveDpmPolicy dpm = sim::make_dpm_policy(rig.config);
  sim::SimulationOptions options = rig.config.simulation;
  options.initial_storage = rig.config.initial_storage;
  options.slot_budget = slot_budget;
  sim::SimulationResult result;
  if (slot_budget != 0 && slot_budget < base.trace.size()) {
    EXPECT_THROW((void)sim::simulate(rig.config.trace, dpm, *rig.fc,
                                     rig.hybrid, options),
                 sim::DeadlineExceededError);
  } else {
    result = sim::simulate(rig.config.trace, dpm, *rig.fc, rig.hybrid,
                           options);
  }
  return {std::move(result), std::move(rig.hybrid)};
}

/// Batch run of `capacities` under one shared DPM policy, compared
/// lane-by-lane against solo reference runs. Returns the stats.
batch::BatchStats run_and_check_batch(const sim::ExperimentConfig& base,
                                      sim::PolicyKind kind,
                                      const std::vector<Coulomb>& capacities,
                                      const sim::CompiledTrace& compiled) {
  dpm::PredictiveDpmPolicy dpm = sim::make_dpm_policy(base);
  std::vector<LaneRig> rigs;
  rigs.reserve(capacities.size());
  std::vector<batch::BatchLaneSpec> lanes;
  lanes.reserve(capacities.size());
  for (const Coulomb capacity : capacities) {
    rigs.emplace_back(base, kind, capacity);
    batch::BatchLaneSpec lane;
    lane.fc = rigs.back().fc.get();
    lane.hybrid = &rigs.back().hybrid;
    lanes.push_back(lane);
  }
  sim::SimulationOptions shared = base.simulation;
  shared.initial_storage = base.initial_storage;

  batch::BatchStats stats;
  const std::vector<batch::LaneOutcome> outcomes =
      batch::run_batch(compiled, dpm, lanes, shared, &stats);

  EXPECT_EQ(outcomes.size(), capacities.size());
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    SCOPED_TRACE(capacities[k].value());
    EXPECT_EQ(outcomes[k].end, batch::LaneOutcome::End::Completed);
    const RefRun ref = reference_run(base, kind, capacities[k]);
    expect_identical_results(ref.result, outcomes[k].result);
    expect_identical_hybrids(ref.hybrid, rigs[k].hybrid);
  }
  return stats;
}

sim::ExperimentConfig base_config() {
  sim::ExperimentConfig config = sim::experiment1_config();
  // A shared sub-capacity initial charge is the sweep shape that makes
  // capacity-only lanes physically identical and thus mergeable.
  config.initial_storage = Coulomb(1.0);
  return config;
}

TEST(BatchEngine, CapacityBatchIsBitIdenticalToSoloReferenceRuns) {
  const sim::ExperimentConfig base = base_config();
  const sim::CompiledTrace compiled(base.trace, base.device);
  const std::vector<Coulomb> capacities{Coulomb(1.5), Coulomb(3.0),
                                        Coulomb(6.0), Coulomb(12.0),
                                        Coulomb(24.0)};
  for (const sim::PolicyKind kind :
       {sim::PolicyKind::Conv, sim::PolicyKind::Asap, sim::PolicyKind::FcDpm,
        sim::PolicyKind::Oracle}) {
    SCOPED_TRACE(sim::to_string(kind));
    (void)run_and_check_batch(base, kind, capacities, compiled);
  }
}

TEST(BatchEngine, PureLanesMergeAndCascadeAfterLeaderDivergence) {
  const sim::ExperimentConfig base = base_config();
  const sim::CompiledTrace compiled(base.trace, base.device);
  const std::vector<Coulomb> capacities{Coulomb(1.5), Coulomb(3.0),
                                        Coulomb(6.0), Coulomb(12.0),
                                        Coulomb(24.0)};
  const batch::BatchStats stats =
      run_and_check_batch(base, sim::PolicyKind::FcDpm, capacities, compiled);
  EXPECT_EQ(stats.lanes, capacities.size());
  // Five identical-but-for-capacity pure lanes form one merge set that
  // persists through the cascade: when the 1.5 A-s leader's buffer
  // fills, leadership hands off to the next-smallest capacity in place
  // (the clamped ex-leader splits out solo) instead of dissolving and
  // re-forming the set.
  EXPECT_GE(stats.merge_sets, 1u);
  EXPECT_GT(stats.merged_lane_slots, 0u);
  // Each hand-off splits exactly one ex-leader out, and a lane can exit
  // leadership at most once — strictly fewer splits than lanes.
  EXPECT_GT(stats.splits, 0u);
  EXPECT_LT(stats.splits, capacities.size());
}

TEST(BatchEngine, StatefulPolicyNeverMergesButStaysIdentical) {
  const sim::ExperimentConfig base = base_config();
  const sim::CompiledTrace compiled(base.trace, base.device);
  const std::vector<Coulomb> capacities{Coulomb(3.0), Coulomb(6.0),
                                        Coulomb(12.0)};
  const batch::BatchStats stats =
      run_and_check_batch(base, sim::PolicyKind::Asap, capacities, compiled);
  EXPECT_EQ(stats.merge_sets, 0u);
  EXPECT_EQ(stats.merged_lane_slots, 0u);
  EXPECT_EQ(stats.splits, 0u);
}

TEST(BatchEngine, FuzzedTracesStayBitIdenticalAcrossRhoAndCapacity) {
  for (const std::uint64_t seed : {7u, 42u, 99991u}) {
    for (const double rho : {0.3, 0.7}) {
      SCOPED_TRACE(seed);
      SCOPED_TRACE(rho);
      sim::ExperimentConfig base = base_config();
      base.rho = rho;
      wl::SyntheticConfig synth;
      synth.seed = seed;
      base.trace = wl::generate_synthetic_trace(synth);
      const sim::CompiledTrace compiled(base.trace, base.device);
      const std::vector<Coulomb> capacities{Coulomb(1.5), Coulomb(4.0),
                                            Coulomb(24.0)};
      for (const sim::PolicyKind kind :
           {sim::PolicyKind::Conv, sim::PolicyKind::FcDpm,
            sim::PolicyKind::Oracle}) {
        SCOPED_TRACE(sim::to_string(kind));
        (void)run_and_check_batch(base, kind, capacities, compiled);
      }
    }
  }
}

TEST(BatchEngine, RaggedBudgetsEjectLanesWithIdenticalPartialState) {
  const sim::ExperimentConfig base = base_config();
  const sim::CompiledTrace compiled(base.trace, base.device);

  dpm::PredictiveDpmPolicy dpm = sim::make_dpm_policy(base);
  LaneRig full(base, sim::PolicyKind::FcDpm, Coulomb(6.0));
  LaneRig ragged(base, sim::PolicyKind::FcDpm, Coulomb(6.0));
  LaneRig other(base, sim::PolicyKind::FcDpm, Coulomb(24.0));

  std::vector<batch::BatchLaneSpec> lanes(3);
  lanes[0].fc = full.fc.get();
  lanes[0].hybrid = &full.hybrid;
  lanes[1].fc = ragged.fc.get();
  lanes[1].hybrid = &ragged.hybrid;
  lanes[1].slot_budget = 50;
  lanes[2].fc = other.fc.get();
  lanes[2].hybrid = &other.hybrid;

  sim::SimulationOptions shared = base.simulation;
  shared.initial_storage = base.initial_storage;
  const std::vector<batch::LaneOutcome> outcomes =
      batch::run_batch(compiled, dpm, lanes, shared);

  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].end, batch::LaneOutcome::End::Completed);
  EXPECT_EQ(outcomes[1].end, batch::LaneOutcome::End::BudgetExhausted);
  EXPECT_EQ(outcomes[2].end, batch::LaneOutcome::End::Completed);

  const RefRun ref_full =
      reference_run(base, sim::PolicyKind::FcDpm, Coulomb(6.0));
  expect_identical_results(ref_full.result, outcomes[0].result);
  expect_identical_hybrids(ref_full.hybrid, full.hybrid);

  // The ejected lane's write-back must land the reference engine's
  // exact partial state after the same budget throw.
  const RefRun ref_ragged =
      reference_run(base, sim::PolicyKind::FcDpm, Coulomb(6.0), 50);
  expect_identical_hybrids(ref_ragged.hybrid, ragged.hybrid);
  EXPECT_EQ(outcomes[1].result.slots, 50u);
}

TEST(BatchEngine, EightConcurrentBatchesShareOneCompiledTrace) {
  const sim::ExperimentConfig base = base_config();
  const sim::CompiledTrace compiled(base.trace, base.device);
  const std::vector<Coulomb> capacities{Coulomb(1.5), Coulomb(3.0),
                                        Coulomb(6.0), Coulomb(12.0)};

  // Golden: one serial batch.
  dpm::PredictiveDpmPolicy golden_dpm = sim::make_dpm_policy(base);
  std::vector<LaneRig> golden_rigs;
  std::vector<batch::BatchLaneSpec> golden_lanes;
  golden_rigs.reserve(capacities.size());
  for (const Coulomb capacity : capacities) {
    golden_rigs.emplace_back(base, sim::PolicyKind::FcDpm, capacity);
    batch::BatchLaneSpec lane;
    lane.fc = golden_rigs.back().fc.get();
    lane.hybrid = &golden_rigs.back().hybrid;
    golden_lanes.push_back(lane);
  }
  sim::SimulationOptions shared = base.simulation;
  shared.initial_storage = base.initial_storage;
  const std::vector<batch::LaneOutcome> golden =
      batch::run_batch(compiled, golden_dpm, golden_lanes, shared);

  // Eight threads, each running the same batch against the one shared
  // CompiledTrace (read-only). Under TSan this is the race probe for
  // the sweep scheduler's chunk fan-out.
  constexpr int kThreads = 8;
  std::vector<std::vector<batch::LaneOutcome>> outcomes(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      dpm::PredictiveDpmPolicy dpm = sim::make_dpm_policy(base);
      std::vector<LaneRig> rigs;
      std::vector<batch::BatchLaneSpec> lanes;
      rigs.reserve(capacities.size());
      for (const Coulomb capacity : capacities) {
        rigs.emplace_back(base, sim::PolicyKind::FcDpm, capacity);
        batch::BatchLaneSpec lane;
        lane.fc = rigs.back().fc.get();
        lane.hybrid = &rigs.back().hybrid;
        lanes.push_back(lane);
      }
      outcomes[t] = batch::run_batch(compiled, dpm, lanes, shared);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(t);
    ASSERT_EQ(outcomes[t].size(), golden.size());
    for (std::size_t k = 0; k < golden.size(); ++k) {
      expect_identical_results(golden[k].result, outcomes[t][k].result);
    }
  }
}

// batch::simulate as a B = 1 batch against the reference loop.
TEST(BatchEngine, SimulateMatchesReferenceForASingleRun) {
  const sim::ExperimentConfig base = base_config();
  const sim::CompiledTrace compiled(base.trace, base.device);
  for (const sim::PolicyKind kind :
       {sim::PolicyKind::Conv, sim::PolicyKind::Asap, sim::PolicyKind::FcDpm,
        sim::PolicyKind::Oracle}) {
    SCOPED_TRACE(sim::to_string(kind));
    sim::SimulationOptions options = base.simulation;

    dpm::PredictiveDpmPolicy ref_dpm = sim::make_dpm_policy(base);
    auto ref_fc = sim::make_fc_policy(kind, base);
    power::HybridPowerSource ref_hybrid = sim::make_hybrid(base);
    const sim::SimulationResult ref =
        sim::simulate(base.trace, ref_dpm, *ref_fc, ref_hybrid, options);

    dpm::PredictiveDpmPolicy got_dpm = sim::make_dpm_policy(base);
    auto got_fc = sim::make_fc_policy(kind, base);
    power::HybridPowerSource got_hybrid = sim::make_hybrid(base);
    const sim::SimulationResult got =
        batch::simulate(compiled, got_dpm, *got_fc, got_hybrid, options);

    expect_identical_results(ref, got);
    expect_identical_hybrids(ref_hybrid, got_hybrid);
  }
}

TEST(BatchEngine, LifetimeMeasurementIsBitIdentical) {
  const sim::ExperimentConfig base = base_config();
  const sim::CompiledTrace compiled(base.trace, base.device);
  sim::LifetimeOptions options;
  options.tank = Coulomb(36000.0);
  options.simulation = base.simulation;

  dpm::PredictiveDpmPolicy ref_dpm = sim::make_dpm_policy(base);
  auto ref_fc = sim::make_fc_policy(sim::PolicyKind::FcDpm, base);
  power::HybridPowerSource ref_hybrid = sim::make_hybrid(base);
  const sim::LifetimeResult ref = sim::measure_lifetime(
      base.trace, ref_dpm, *ref_fc, ref_hybrid, options);

  dpm::PredictiveDpmPolicy got_dpm = sim::make_dpm_policy(base);
  auto got_fc = sim::make_fc_policy(sim::PolicyKind::FcDpm, base);
  power::HybridPowerSource got_hybrid = sim::make_hybrid(base);
  const sim::LifetimeResult got = batch::measure_lifetime(
      compiled, got_dpm, *got_fc, got_hybrid, options);

  EXPECT_EQ(ref.lifetime.value(), got.lifetime.value());
  EXPECT_EQ(ref.passes, got.passes);
  EXPECT_EQ(ref.slots_completed, got.slots_completed);
  EXPECT_EQ(ref.tank_emptied, got.tank_emptied);
  EXPECT_EQ(ref.average_fuel_current.value(),
            got.average_fuel_current.value());
}

// Eligibility is a strict subset of what the reference loop accepts:
// profile recording evicts.
TEST(BatchEngine, LaneEligibilityIsStricterThanReference) {
  const sim::ExperimentConfig base = base_config();
  power::HybridPowerSource hybrid = sim::make_hybrid(base);
  const sim::SimulationOptions plain = base.simulation;
  EXPECT_TRUE(batch::lane_eligible(hybrid, plain));

  sim::SimulationOptions with_profiles = plain;
  with_profiles.record_profiles = true;
  EXPECT_FALSE(batch::lane_eligible(hybrid, with_profiles));
}

// --- Single runs (B = 1) ----------------------------------------------
// batch::simulate against sim::simulate, one point at a time, on every
// option that changes the execution path.

/// Fresh policy/hybrid set for one run (both engines mutate them).
struct Rig {
  dpm::PredictiveDpmPolicy dpm;
  std::unique_ptr<core::FcOutputPolicy> fc;
  power::HybridPowerSource hybrid;

  Rig(const sim::ExperimentConfig& config, sim::PolicyKind kind)
      : dpm(sim::make_dpm_policy(config)),
        fc(sim::make_fc_policy(kind, config)),
        hybrid(sim::make_hybrid(config)) {}
};

/// Reference and B = 1 runs of the same point; both results and the
/// post-run hybrid states must match bit for bit.
void expect_differential_identity(const sim::ExperimentConfig& config,
                                  sim::PolicyKind kind,
                                  const sim::SimulationOptions& options) {
  const sim::CompiledTrace compiled(config.trace, config.device);
  Rig ref(config, kind);
  const sim::SimulationResult ref_result =
      sim::simulate(config.trace, ref.dpm, *ref.fc, ref.hybrid, options);
  Rig got(config, kind);
  const sim::SimulationResult got_result =
      batch::simulate(compiled, got.dpm, *got.fc, got.hybrid, options);
  expect_identical_results(ref_result, got_result);
  expect_identical_hybrids(ref.hybrid, got.hybrid);
}

const sim::PolicyKind kAllPolicies[] = {
    sim::PolicyKind::Conv, sim::PolicyKind::Asap, sim::PolicyKind::FcDpm,
    sim::PolicyKind::Oracle};

TEST(BatchEngineSingleLane, BitIdenticalAcrossPoliciesOnTheCamcorderTrace) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  for (const sim::PolicyKind kind : kAllPolicies) {
    SCOPED_TRACE(sim::to_string(kind));
    sim::SimulationOptions options = config.simulation;
    options.keep_slot_records = true;
    expect_differential_identity(config, kind, options);
  }
}

// The B = 1 loop and the reference loop lay idle periods out through
// the same DpmPolicy::plan_idle, so every DPM policy — not only the
// paper's predictive one — must give bit-identical runs on both.
TEST(BatchEngineSingleLane, BitIdenticalAcrossDpmPolicies) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  const sim::CompiledTrace compiled(config.trace, config.device);
  const std::vector<std::function<std::unique_ptr<dpm::DpmPolicy>()>>
      dpm_policies = {
          [&] {
            return std::make_unique<dpm::PredictiveDpmPolicy>(
                sim::make_dpm_policy(config));
          },
          [&] {
            return std::make_unique<dpm::TimeoutDpmPolicy>(config.device,
                                                           Seconds(2.0));
          },
          [&] {
            return std::make_unique<dpm::StochasticDpmPolicy>(
                config.device, 16, 4, Seconds(5.0));
          },
          [&] {
            return std::make_unique<dpm::AlwaysStandbyDpmPolicy>(
                config.device);
          },
      };
  sim::SimulationOptions options = config.simulation;
  options.keep_slot_records = true;
  for (const auto& make_dpm : dpm_policies) {
    for (const sim::PolicyKind kind : kAllPolicies) {
      const std::unique_ptr<dpm::DpmPolicy> ref_dpm = make_dpm();
      SCOPED_TRACE(ref_dpm->name() + " / " + sim::to_string(kind));
      auto ref_fc = sim::make_fc_policy(kind, config);
      power::HybridPowerSource ref_hybrid = sim::make_hybrid(config);
      const sim::SimulationResult ref = sim::simulate(
          config.trace, *ref_dpm, *ref_fc, ref_hybrid, options);

      const std::unique_ptr<dpm::DpmPolicy> got_dpm = make_dpm();
      auto got_fc = sim::make_fc_policy(kind, config);
      power::HybridPowerSource got_hybrid = sim::make_hybrid(config);
      ASSERT_TRUE(batch::lane_eligible(got_hybrid, options));
      const sim::SimulationResult got =
          batch::simulate(compiled, *got_dpm, *got_fc, got_hybrid, options);

      expect_identical_results(ref, got);
      expect_identical_hybrids(ref_hybrid, got_hybrid);
    }
  }
}

TEST(BatchEngineSingleLane, BitIdenticalOnTheSyntheticExperiment) {
  const sim::ExperimentConfig config = sim::experiment2_config();
  for (const sim::PolicyKind kind : kAllPolicies) {
    SCOPED_TRACE(sim::to_string(kind));
    sim::SimulationOptions options = config.simulation;
    options.keep_slot_records = true;
    expect_differential_identity(config, kind, options);
  }
}

TEST(BatchEngineSingleLane, BitIdenticalOnFuzzedSyntheticTraces) {
  for (const std::uint64_t seed : {1u, 7u, 42u, 1234u, 99991u}) {
    SCOPED_TRACE(seed);
    sim::ExperimentConfig config = sim::experiment2_config();
    wl::SyntheticConfig synth;
    synth.seed = seed;
    config.trace = wl::generate_synthetic_trace(synth);
    sim::SimulationOptions options = config.simulation;
    options.keep_slot_records = true;
    expect_differential_identity(config, sim::PolicyKind::FcDpm, options);
  }
}

TEST(BatchEngineSingleLane, BitIdenticalWithNonEmptyInitialStorage) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  sim::SimulationOptions options = config.simulation;
  options.initial_storage = Coulomb(3.5);
  expect_differential_identity(config, sim::PolicyKind::FcDpm, options);
  options.initial_storage = Coulomb(-1.0);  // "start full"
  expect_differential_identity(config, sim::PolicyKind::FcDpm, options);
}

TEST(BatchEngineSingleLane, FaultInjectionFallsBackAndStaysIdentical) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  const fault::FaultSchedule schedule = fault::FaultSchedule::random_storm(
      7, 12, config.trace.stats().total_duration());
  const sim::CompiledTrace compiled(config.trace, config.device);

  fault::FaultInjector ref_injector(schedule);
  sim::SimulationOptions ref_options = config.simulation;
  ref_options.faults = &ref_injector;
  Rig ref(config, sim::PolicyKind::FcDpm);
  const sim::SimulationResult ref_result = sim::simulate(
      config.trace, ref.dpm, *ref.fc, ref.hybrid, ref_options);

  fault::FaultInjector got_injector(schedule);
  sim::SimulationOptions got_options = config.simulation;
  got_options.faults = &got_injector;
  EXPECT_FALSE(batch::lane_eligible(ref.hybrid, got_options));
  Rig got(config, sim::PolicyKind::FcDpm);
  const sim::SimulationResult got_result = batch::simulate(
      compiled, got.dpm, *got.fc, got.hybrid, got_options);

  expect_identical_results(ref_result, got_result);
  expect_identical_hybrids(ref.hybrid, got.hybrid);
  ASSERT_TRUE(got_result.robustness.has_value());
  ASSERT_TRUE(ref_result.robustness.has_value());
  EXPECT_EQ(ref_result.robustness->dropouts, got_result.robustness->dropouts);
  EXPECT_EQ(ref_result.robustness->brownouts,
            got_result.robustness->brownouts);
}

TEST(BatchEngineSingleLane, TracingObserverFallsBackAndStaysIdentical) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  const sim::CompiledTrace compiled(config.trace, config.device);

  Rig ref(config, sim::PolicyKind::FcDpm);
  const sim::SimulationResult ref_result = sim::simulate(
      config.trace, ref.dpm, *ref.fc, ref.hybrid, config.simulation);

  std::ostringstream ref_stream;
  std::ostringstream got_stream;
  obs::JsonlTraceSink ref_sink(ref_stream);
  obs::JsonlTraceSink got_sink(got_stream);
  obs::Context ref_obs;
  ref_obs.set_sink(&ref_sink);
  obs::Context got_obs;
  got_obs.set_sink(&got_sink);

  sim::SimulationOptions ref_options = config.simulation;
  ref_options.observer = &ref_obs;
  Rig ref_traced(config, sim::PolicyKind::FcDpm);
  const sim::SimulationResult ref_traced_result = sim::simulate(
      config.trace, ref_traced.dpm, *ref_traced.fc, ref_traced.hybrid,
      ref_options);

  sim::SimulationOptions got_options = config.simulation;
  got_options.observer = &got_obs;
  EXPECT_FALSE(batch::lane_eligible(ref.hybrid, got_options));
  Rig got(config, sim::PolicyKind::FcDpm);
  const sim::SimulationResult got_result = batch::simulate(
      compiled, got.dpm, *got.fc, got.hybrid, got_options);

  // Observability must not change results, and the fallback must emit
  // the same trace stream the reference does.
  expect_identical_results(ref_result, got_result);
  expect_identical_results(ref_traced_result, got_result);
  ref_sink.flush();
  got_sink.flush();
  EXPECT_EQ(ref_stream.str(), got_stream.str());
}

TEST(BatchEngineSingleLane, GovernorFallsBackAndStaysIdentical) {
  sim::ExperimentConfig config = sim::experiment1_config();
  config.cap.enabled = true;
  const sim::CompiledTrace compiled(config.trace, config.device);

  cap::Governor ref_governor =
      cap::make_governor(config.cap, config.efficiency);
  sim::SimulationOptions ref_options = config.simulation;
  ref_options.governor = &ref_governor;
  Rig ref(config, sim::PolicyKind::FcDpm);
  const sim::SimulationResult ref_result = sim::simulate(
      config.trace, ref.dpm, *ref.fc, ref.hybrid, ref_options);

  cap::Governor governor = cap::make_governor(config.cap, config.efficiency);
  sim::SimulationOptions options = config.simulation;
  options.governor = &governor;
  EXPECT_FALSE(batch::lane_eligible(ref.hybrid, options));
  Rig got(config, sim::PolicyKind::FcDpm);
  const sim::SimulationResult got_result = batch::simulate(
      compiled, got.dpm, *got.fc, got.hybrid, options);

  expect_identical_results(ref_result, got_result);
  expect_identical_hybrids(ref.hybrid, got.hybrid);
  ASSERT_TRUE(ref_result.cap.has_value());
  ASSERT_TRUE(got_result.cap.has_value());
  EXPECT_EQ(ref_result.cap->slots_seen, got_result.cap->slots_seen);
  EXPECT_EQ(ref_result.cap->slots_capped, got_result.cap->slots_capped);
}

TEST(BatchEngineSingleLane, RecordProfilesFallsBackAndStaysIdentical) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  sim::SimulationOptions options = config.simulation;
  options.record_profiles = true;
  options.profile_limit = Seconds(300.0);
  const sim::CompiledTrace compiled(config.trace, config.device);
  Rig ref(config, sim::PolicyKind::FcDpm);
  EXPECT_FALSE(batch::lane_eligible(ref.hybrid, options));
  const sim::SimulationResult ref_result =
      sim::simulate(config.trace, ref.dpm, *ref.fc, ref.hybrid, options);
  Rig got(config, sim::PolicyKind::FcDpm);
  const sim::SimulationResult got_result = batch::simulate(
      compiled, got.dpm, *got.fc, got.hybrid, options);
  expect_identical_results(ref_result, got_result);
  ASSERT_EQ(ref_result.profiles.has_value(), got_result.profiles.has_value());
}

TEST(BatchEngineSingleLane, PreservedSourceStateAccumulatesIdentically) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  const sim::CompiledTrace compiled(config.trace, config.device);
  const sim::SimulationOptions first = config.simulation;
  sim::SimulationOptions next = config.simulation;
  next.preserve_source_state = true;

  Rig ref(config, sim::PolicyKind::FcDpm);
  (void)sim::simulate(config.trace, ref.dpm, *ref.fc, ref.hybrid, first);
  const sim::SimulationResult ref_result =
      sim::simulate(config.trace, ref.dpm, *ref.fc, ref.hybrid, next);

  Rig got(config, sim::PolicyKind::FcDpm);
  (void)batch::simulate(compiled, got.dpm, *got.fc, got.hybrid, first);
  const sim::SimulationResult got_result =
      batch::simulate(compiled, got.dpm, *got.fc, got.hybrid, next);

  expect_identical_results(ref_result, got_result);
  expect_identical_hybrids(ref.hybrid, got.hybrid);
}

TEST(BatchEngineSingleLane, SlotBudgetThrowsWithIdenticalPartialState) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  const sim::CompiledTrace compiled(config.trace, config.device);
  sim::SimulationOptions options = config.simulation;
  options.slot_budget = 50;

  Rig ref(config, sim::PolicyKind::FcDpm);
  EXPECT_THROW(
      (void)sim::simulate(config.trace, ref.dpm, *ref.fc, ref.hybrid,
                          options),
      sim::DeadlineExceededError);
  Rig got(config, sim::PolicyKind::FcDpm);
  EXPECT_THROW((void)batch::simulate(compiled, got.dpm, *got.fc, got.hybrid,
                                     options),
               sim::DeadlineExceededError);
  // The reference leaves the hybrid partially advanced; the batch
  // state's write-back must land the exact same partial state.
  expect_identical_hybrids(ref.hybrid, got.hybrid);
  EXPECT_GT(got.hybrid.totals().fuel.value(), 0.0);
}

TEST(BatchEngineSingleLane, CancelledTokenThrowsOnBothEngines) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  const sim::CompiledTrace compiled(config.trace, config.device);
  sim::CancellationToken token;
  token.cancel();
  sim::SimulationOptions options = config.simulation;
  options.cancel = &token;

  Rig ref(config, sim::PolicyKind::FcDpm);
  EXPECT_THROW(
      (void)sim::simulate(config.trace, ref.dpm, *ref.fc, ref.hybrid,
                          options),
      sim::CancelledError);
  const std::uint64_t ref_beats = token.heartbeat();
  Rig got(config, sim::PolicyKind::FcDpm);
  EXPECT_THROW((void)batch::simulate(compiled, got.dpm, *got.fc, got.hybrid,
                                     options),
               sim::CancelledError);
  EXPECT_EQ(token.heartbeat(), 2 * ref_beats);
  expect_identical_hybrids(ref.hybrid, got.hybrid);
}

TEST(BatchEngineSingleLane, LifetimeMeasurementIsBitIdentical) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  const sim::CompiledTrace compiled(config.trace, config.device);
  sim::LifetimeOptions options;
  options.tank = Coulomb(3600.0);
  options.simulation = config.simulation;

  for (const sim::PolicyKind kind : kAllPolicies) {
    SCOPED_TRACE(sim::to_string(kind));
    Rig ref(config, kind);
    const sim::LifetimeResult ref_result = sim::measure_lifetime(
        config.trace, ref.dpm, *ref.fc, ref.hybrid, options);
    Rig got(config, kind);
    const sim::LifetimeResult got_result = batch::measure_lifetime(
        compiled, got.dpm, *got.fc, got.hybrid, options);

    EXPECT_EQ(ref_result.lifetime.value(), got_result.lifetime.value());
    EXPECT_EQ(ref_result.passes, got_result.passes);
    EXPECT_EQ(ref_result.slots_completed, got_result.slots_completed);
    EXPECT_EQ(ref_result.tank_emptied, got_result.tank_emptied);
    EXPECT_EQ(ref_result.average_fuel_current.value(),
              got_result.average_fuel_current.value());
  }
}

TEST(BatchEngineSingleLane, RefusesACompiledTraceFromAnotherDevice) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  dpm::DevicePowerModel other = config.device;
  other.bus_voltage = Volt(11.0);
  const sim::CompiledTrace foreign(config.trace, other);
  Rig rig(config, sim::PolicyKind::FcDpm);
  EXPECT_THROW((void)batch::simulate(foreign, rig.dpm, *rig.fc, rig.hybrid,
                                     config.simulation),
               PreconditionError);
  // The reference fallback refuses it too, before running anything.
  sim::SimulationOptions with_profiles = config.simulation;
  with_profiles.record_profiles = true;
  Rig fallback(config, sim::PolicyKind::FcDpm);
  EXPECT_THROW((void)batch::simulate(foreign, fallback.dpm, *fallback.fc,
                                     fallback.hybrid, with_profiles),
               PreconditionError);
}

TEST(BatchEngineSingleLane, LaneEligibilityMatchesTheDocumentedRules) {
  sim::ExperimentConfig config = sim::experiment1_config();
  power::HybridPowerSource hybrid = sim::make_hybrid(config);
  const sim::SimulationOptions plain = config.simulation;
  EXPECT_TRUE(batch::lane_eligible(hybrid, plain));

  // Options that do NOT evict from the batch loop: budgets,
  // cancellation, record keeping, preserved state, auditors.
  sim::SimulationOptions busy = plain;
  sim::CancellationToken token;
  busy.cancel = &token;
  busy.slot_budget = 10;
  busy.keep_slot_records = true;
  busy.preserve_source_state = true;
  audit::Auditor auditor(audit::AuditSpec{}, /*fail_fast=*/true);
  busy.auditor = &auditor;
  EXPECT_TRUE(batch::lane_eligible(hybrid, busy));

  // An inactive observer changes nothing; a metering one evicts.
  obs::Context inactive;
  sim::SimulationOptions with_inactive = plain;
  with_inactive.observer = &inactive;
  EXPECT_TRUE(batch::lane_eligible(hybrid, with_inactive));
  obs::MetricsRegistry metrics;
  obs::Context metered;
  metered.set_metrics(&metrics);
  sim::SimulationOptions with_metrics = plain;
  with_metrics.observer = &metered;
  EXPECT_FALSE(batch::lane_eligible(hybrid, with_metrics));

  // Governors evict, and so does a fault injector attached directly to
  // the hybrid rather than through the options.
  config.cap.enabled = true;
  cap::Governor governor = cap::make_governor(config.cap, config.efficiency);
  sim::SimulationOptions governed = plain;
  governed.governor = &governor;
  EXPECT_FALSE(batch::lane_eligible(hybrid, governed));

  fault::FaultInjector injector(fault::FaultSchedule::random_storm(
      7, 4, config.trace.stats().total_duration()));
  hybrid.set_fault_injector(&injector);
  EXPECT_FALSE(batch::lane_eligible(hybrid, plain));
  hybrid.set_fault_injector(nullptr);
  EXPECT_TRUE(batch::lane_eligible(hybrid, plain));
}

}  // namespace
