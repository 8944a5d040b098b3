// Invariant fuzz for the capping tentpole, run end to end through the
// engines: across a battery of random storms, no capped run ever draws
// above its per-slot budget (budget_violations stays 0, whichever engine
// was asked for: a governed run on the batched engine lands on the
// reference loop), and disabling the cap reproduces the governor-free
// baseline bit for bit.
#include <gtest/gtest.h>

#include <cstring>

#include "par/sweep.hpp"
#include "sim/experiments.hpp"

namespace {

using namespace fcdpm;

constexpr std::size_t kStormSeeds = 20;
constexpr std::size_t kStormFaults = 14;

sim::ExperimentConfig capped_config(sim::Engine engine) {
  sim::ExperimentConfig config = sim::experiment1_config();
  config.simulation.engine = engine;
  config.cap.enabled = true;
  return config;
}

par::SweepPoint storm_point(std::uint64_t seed) {
  par::SweepPoint point;
  point.policy = sim::PolicyKind::FcDpm;
  point.rho = 0.5;
  point.capacity = Coulomb(3.0);
  point.storm_seed = seed;
  return point;
}

void expect_bitwise_equal(const sim::SimulationResult& a,
                          const sim::SimulationResult& b) {
  EXPECT_EQ(std::memcmp(&a.totals, &b.totals, sizeof a.totals), 0);
  EXPECT_EQ(a.sleeps, b.sleeps);
  EXPECT_EQ(a.storage_end.value(), b.storage_end.value());
  EXPECT_EQ(a.storage_min.value(), b.storage_min.value());
  EXPECT_EQ(a.storage_max.value(), b.storage_max.value());
  EXPECT_EQ(a.latency_added.value(), b.latency_added.value());
}

TEST(CapInvariants, NoStormEverDrawsAboveBudgetOnEitherEngine) {
  const sim::ExperimentConfig reference =
      capped_config(sim::Engine::Reference);
  const sim::ExperimentConfig batched = capped_config(sim::Engine::Batched);

  for (std::uint64_t seed = 1; seed <= kStormSeeds; ++seed) {
    SCOPED_TRACE("storm seed " + std::to_string(seed));
    const par::SweepPoint point = storm_point(seed);
    const par::SweepPointResult ref =
        par::run_point(reference, point, kStormFaults);
    const par::SweepPointResult fast =
        par::run_point(batched, point, kStormFaults);
    // The batch loop runs no governor: the point is counted where it ran.
    EXPECT_FALSE(fast.ran_batched);

    ASSERT_TRUE(ref.result.cap.has_value());
    EXPECT_EQ(ref.result.cap->budget_violations, 0u);
    EXPECT_EQ(ref.result.cap->slots_seen, ref.result.slots);
    ASSERT_TRUE(fast.result.cap.has_value());
    EXPECT_EQ(fast.result.cap->budget_violations, 0u);

    // The two engines agree bit for bit, stats included.
    expect_bitwise_equal(ref.result, fast.result);
    EXPECT_EQ(ref.result.cap->slots_capped, fast.result.cap->slots_capped);
    EXPECT_EQ(ref.result.cap->energy_deferred.value(),
              fast.result.cap->energy_deferred.value());
  }
}

TEST(CapInvariants, DisabledCapReproducesTheGovernorFreeBaseline) {
  sim::ExperimentConfig baseline = sim::experiment1_config();
  sim::ExperimentConfig disabled = sim::experiment1_config();
  disabled.cap.enabled = false;  // explicit: the default

  for (std::uint64_t seed = 1; seed <= kStormSeeds; ++seed) {
    SCOPED_TRACE("storm seed " + std::to_string(seed));
    const par::SweepPoint point = storm_point(seed);
    const par::SweepPointResult a =
        par::run_point(baseline, point, kStormFaults);
    const par::SweepPointResult b =
        par::run_point(disabled, point, kStormFaults);
    EXPECT_FALSE(a.result.cap.has_value());
    EXPECT_FALSE(b.result.cap.has_value());
    expect_bitwise_equal(a.result, b.result);
  }
}

TEST(CapInvariants, HealthyCappedRunMatchesUncappedBitForBit) {
  // With no faults the governor never engages: identical output, plus
  // a present-but-zeroed stats block.
  sim::ExperimentConfig uncapped = sim::experiment1_config();
  sim::ExperimentConfig capped = sim::experiment1_config();
  capped.cap.enabled = true;

  const par::SweepPoint point = storm_point(/*seed=*/0);  // fault-free
  const par::SweepPointResult off =
      par::run_point(uncapped, point, kStormFaults);
  const par::SweepPointResult on =
      par::run_point(capped, point, kStormFaults);

  expect_bitwise_equal(off.result, on.result);
  EXPECT_FALSE(off.result.cap.has_value());
  ASSERT_TRUE(on.result.cap.has_value());
  EXPECT_EQ(on.result.cap->slots_capped, 0u);
  EXPECT_EQ(on.result.cap->budget_violations, 0u);
  EXPECT_EQ(on.result.cap->slots_seen, on.result.slots);
}

}  // namespace
