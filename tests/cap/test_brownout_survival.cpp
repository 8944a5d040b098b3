// Satellite regression for the capping tentpole: a seeded storm whose
// brownouts exhaust the unserved-charge contract quarantines points
// when capping is off, yet every point completes — throttled, never
// over budget — when capping is on, bit-identically at any job count.
#include <gtest/gtest.h>

#include <cstring>

#include "par/sweep.hpp"
#include "resilience/retry.hpp"
#include "sim/experiments.hpp"

namespace {

using namespace fcdpm;

// Seeds probed against experiment 1 at 3 F: with capping off these
// storms leave >= 30 A-s unserved; with capping on, under 17 A-s.
par::SweepGrid brownout_grid() {
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.5};
  grid.capacities = {Coulomb(3.0)};
  grid.storm_seeds = {11, 13, 21};
  grid.storm_faults = 14;
  return grid;
}

par::SweepOptions survival_options(std::size_t jobs) {
  par::SweepOptions options;
  options.contract.unserved_budget_as = 25.0;
  options.jobs = jobs;
  return options;
}

void expect_identical_points(const par::SweepResult& a,
                             const par::SweepResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t k = 0; k < a.points.size(); ++k) {
    SCOPED_TRACE(k);
    ASSERT_EQ(a.points[k].ok, b.points[k].ok);
    const sim::SimulationResult& ra = a.points[k].result;
    const sim::SimulationResult& rb = b.points[k].result;
    EXPECT_EQ(std::memcmp(&ra.totals, &rb.totals, sizeof ra.totals), 0);
    EXPECT_EQ(ra.sleeps, rb.sleeps);
    EXPECT_EQ(ra.storage_end.value(), rb.storage_end.value());
    ASSERT_EQ(ra.cap.has_value(), rb.cap.has_value());
    if (ra.cap.has_value()) {
      EXPECT_EQ(ra.cap->slots_capped, rb.cap->slots_capped);
      EXPECT_EQ(ra.cap->level_reductions, rb.cap->level_reductions);
      EXPECT_EQ(ra.cap->level_restorations, rb.cap->level_restorations);
      EXPECT_EQ(ra.cap->energy_deferred.value(),
                rb.cap->energy_deferred.value());
      ASSERT_EQ(ra.cap->time_at_level_s.size(),
                rb.cap->time_at_level_s.size());
      for (std::size_t j = 0; j < ra.cap->time_at_level_s.size(); ++j) {
        EXPECT_EQ(ra.cap->time_at_level_s[j], rb.cap->time_at_level_s[j]);
      }
    }
  }
}

TEST(BrownoutSurvival, CapOffQuarantinesCapOnCompletes) {
  sim::ExperimentConfig base = sim::experiment1_config();
  const par::SweepGrid grid = brownout_grid();

  // Capping off: the storms blow through the unserved budget.
  const par::SweepResult off = par::run_sweep(base, grid, survival_options(2));
  std::size_t quarantined = 0;
  for (const par::SweepPointResult& p : off.points) {
    if (!p.ok) {
      ++quarantined;
      EXPECT_EQ(p.error.kind,
                resilience::PointErrorKind::power_undeliverable);
      EXPECT_FALSE(p.result.cap.has_value());
    }
  }
  ASSERT_GE(quarantined, 1u);
  EXPECT_EQ(off.resilience.quarantined, quarantined);
  EXPECT_EQ(off.resilience.capped_ok, 0u);

  // Capping on: the same storms complete -- throttled, never failed.
  base.cap.enabled = true;
  const par::SweepResult on = par::run_sweep(base, grid, survival_options(2));
  ASSERT_EQ(on.points.size(), grid.points(base).size());
  for (const par::SweepPointResult& p : on.points) {
    SCOPED_TRACE(p.point.storm_seed);
    ASSERT_TRUE(p.ok);
    ASSERT_TRUE(p.result.cap.has_value());
    EXPECT_GT(p.result.cap->slots_capped, 0u);
    EXPECT_EQ(p.result.cap->budget_violations, 0u);
    EXPECT_LE(p.result.totals.unserved.value(), 25.0);
  }
  EXPECT_EQ(on.resilience.quarantined, 0u);
  EXPECT_EQ(on.resilience.capped_ok, on.points.size());
}

TEST(BrownoutSurvival, CappedSweepIsBitIdenticalAcrossJobCounts) {
  sim::ExperimentConfig base = sim::experiment1_config();
  base.cap.enabled = true;
  const par::SweepGrid grid = brownout_grid();

  const par::SweepResult one = par::run_sweep(base, grid, survival_options(1));
  const par::SweepResult two = par::run_sweep(base, grid, survival_options(2));
  const par::SweepResult eight =
      par::run_sweep(base, grid, survival_options(8));
  expect_identical_points(one, two);
  expect_identical_points(one, eight);
}

}  // namespace
