#include "par/sweep.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "obs/context.hpp"
#include "par/worker_pool.hpp"
#include "sim/experiments.hpp"
#include "telemetry/sweep_telemetry.hpp"
#include "workload/camcorder.hpp"

namespace fcdpm::par {
namespace {

sim::ExperimentConfig small_base() {
  sim::ExperimentConfig config = sim::experiment1_config();
  config.trace = config.trace.truncated(Seconds(120.0));
  return config;
}

SweepGrid table2_grid() {
  SweepGrid grid;
  grid.rhos = {0.3, 0.5};
  grid.capacities = {Coulomb(3.0), Coulomb(6.0)};
  grid.storm_seeds = {0, 42};
  return grid;  // policies default to the Table-2 trio -> 24 points
}

void expect_same_result(const sim::SimulationResult& a,
                        const sim::SimulationResult& b) {
  EXPECT_EQ(a.totals.fuel.value(), b.totals.fuel.value());
  EXPECT_EQ(a.totals.duration.value(), b.totals.duration.value());
  EXPECT_EQ(a.totals.bled.value(), b.totals.bled.value());
  EXPECT_EQ(a.totals.unserved.value(), b.totals.unserved.value());
  EXPECT_EQ(a.storage_end.value(), b.storage_end.value());
  EXPECT_EQ(a.latency_added.value(), b.latency_added.value());
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.sleeps, b.sleeps);
}

TEST(SweepGridTest, PointsEnumerateTheCartesianProductInGridOrder) {
  const sim::ExperimentConfig base = small_base();
  const std::vector<SweepPoint> points = table2_grid().points(base);
  ASSERT_EQ(points.size(), 3u * 2u * 2u * 2u);
  // Nested order: policy -> rho -> capacity -> seed.
  EXPECT_EQ(points[0].policy, sim::PolicyKind::Conv);
  EXPECT_EQ(points[0].rho, 0.3);
  EXPECT_EQ(points[0].capacity.value(), 3.0);
  EXPECT_EQ(points[0].storm_seed, 0u);
  EXPECT_EQ(points[1].storm_seed, 42u);
  EXPECT_EQ(points[2].capacity.value(), 6.0);
  EXPECT_EQ(points[8].policy, sim::PolicyKind::Asap);
  EXPECT_EQ(points.back().policy, sim::PolicyKind::FcDpm);
  EXPECT_EQ(points.back().rho, 0.5);
}

TEST(SweepGridTest, EmptyDimensionsFallBackToTheBaseConfig) {
  const sim::ExperimentConfig base = small_base();
  SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  const std::vector<SweepPoint> points = grid.points(base);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].rho, base.rho);
  EXPECT_EQ(points[0].capacity.value(), base.storage_capacity.value());
  EXPECT_EQ(points[0].storm_seed, 0u);
}

TEST(SweepTest, SerialSweepMatchesDirectRunPolicy) {
  const sim::ExperimentConfig base = small_base();
  SweepGrid grid;
  grid.rhos = {base.rho};
  grid.capacities = {base.storage_capacity};
  grid.storm_seeds = {0};

  SweepOptions options;
  options.jobs = 1;
  const SweepResult sweep = run_sweep(base, grid, options);
  ASSERT_EQ(sweep.points.size(), 3u);

  for (const SweepPointResult& point : sweep.points) {
    const sim::SimulationResult direct =
        sim::run_policy(point.point.policy, base);
    expect_same_result(point.result, direct);
  }
}

// The tentpole's headline guarantee: the Table-2 grid is bit-identical
// for any job count.
TEST(SweepTest, ParallelSweepIsBitIdenticalToSerialAcrossJobCounts) {
  const sim::ExperimentConfig base = small_base();
  const SweepGrid grid = table2_grid();

  SweepOptions serial;
  serial.jobs = 1;
  const SweepResult reference = run_sweep(base, grid, serial);
  ASSERT_EQ(reference.points.size(), 24u);

  for (const std::size_t jobs : {2u, 8u}) {
    SweepOptions options;
    options.jobs = jobs;
    const SweepResult parallel = run_sweep(base, grid, options);
    ASSERT_EQ(parallel.points.size(), reference.points.size());
    for (std::size_t k = 0; k < reference.points.size(); ++k) {
      SCOPED_TRACE(testing::Message() << "jobs=" << jobs << " point=" << k);
      EXPECT_EQ(parallel.points[k].point.policy,
                reference.points[k].point.policy);
      EXPECT_EQ(parallel.points[k].point.storm_seed,
                reference.points[k].point.storm_seed);
      expect_same_result(parallel.points[k].result,
                         reference.points[k].result);
    }
  }
}

TEST(SweepTest, StormPointsCarryRobustnessAndDifferFromFaultFree) {
  const sim::ExperimentConfig base = small_base();
  SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.5};
  grid.capacities = {Coulomb(6.0)};
  grid.storm_seeds = {0, 7};

  const SweepResult sweep = run_sweep(base, grid, SweepOptions{});
  ASSERT_EQ(sweep.points.size(), 2u);
  const sim::SimulationResult& clean = sweep.points[0].result;
  const sim::SimulationResult& stormy = sweep.points[1].result;
  EXPECT_FALSE(clean.robustness.has_value());
  ASSERT_TRUE(stormy.robustness.has_value());
  EXPECT_GT(stormy.robustness->activations, 0u);
}

TEST(SweepTest, StatsCountPointsAndPublishToObserver) {
  const sim::ExperimentConfig base = small_base();
  SweepGrid grid;
  grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::Asap};
  grid.rhos = {0.5};
  grid.capacities = {Coulomb(6.0)};
  grid.storm_seeds = {0};

  obs::MetricsRegistry metrics;
  obs::Context obs(nullptr, &metrics, nullptr);
  SweepOptions options;
  options.jobs = 2;
  options.observer = &obs;
  const SweepResult sweep = run_sweep(base, grid, options);

  EXPECT_EQ(sweep.stats.points, 2u);
  EXPECT_EQ(sweep.stats.jobs, 2u);
  EXPECT_GT(sweep.stats.wall_seconds, 0.0);
  EXPECT_GT(sweep.stats.points_per_second(), 0.0);
  EXPECT_EQ(metrics.gauge("par.sweep.points").last(), 2.0);
  EXPECT_EQ(metrics.gauge("par.sweep.jobs").last(), 2.0);
}

TEST(SweepTelemetryTest, AttachedTelemetryChangesNoResultAtAnyJobCount) {
  const sim::ExperimentConfig base = small_base();
  const SweepGrid grid = table2_grid();
  const SweepResult plain = run_sweep(base, grid, SweepOptions{});

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    telemetry::TelemetryConfig tconfig;
    tconfig.workers = WorkerPool::resolve(jobs);
    tconfig.total_points = grid.points(base).size();
    tconfig.record_lanes = true;
    telemetry::SweepTelemetry tel(tconfig);
    SweepOptions options;
    options.jobs = jobs;
    options.telemetry = &tel;
    const SweepResult observed = run_sweep(base, grid, options);
    ASSERT_EQ(observed.points.size(), plain.points.size());
    for (std::size_t k = 0; k < plain.points.size(); ++k) {
      expect_same_result(plain.points[k].result, observed.points[k].result);
    }
  }
}

TEST(SweepTelemetryTest, FinalSnapshotTotalsEqualTheSweepReport) {
  const sim::ExperimentConfig base = small_base();
  const SweepGrid grid = table2_grid();
  const std::size_t total = grid.points(base).size();

  telemetry::TelemetryConfig tconfig;
  tconfig.workers = WorkerPool::resolve(4);
  tconfig.total_points = total;
  tconfig.record_lanes = true;
  telemetry::SweepTelemetry tel(tconfig);

  SweepOptions options;
  options.jobs = 4;
  options.telemetry = &tel;
  const SweepResult sweep = run_sweep(base, grid, options);

  const telemetry::SweepSnapshot snap = tel.snapshot();
  EXPECT_EQ(snap.done, sweep.stats.points);
  EXPECT_EQ(snap.retried, 0u);
  EXPECT_EQ(snap.quarantined, 0u);
  EXPECT_EQ(snap.reference_dispatches + snap.batched_dispatches,
            sweep.stats.points);
  EXPECT_GT(snap.slots, 0u);
  EXPECT_GT(snap.wall_max_us, 0.0);

  // Lanes recorded exactly one attempt per grid point.
  ASSERT_NE(tel.lanes(), nullptr);
  std::size_t lanes = 0;
  for (std::size_t w = 0; w < tel.lanes()->workers(); ++w) {
    lanes += tel.lanes()->lane(w).size();
  }
  EXPECT_EQ(lanes, total);
}

}  // namespace
}  // namespace fcdpm::par
