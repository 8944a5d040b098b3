// The sweep engine under Engine::Batched: the chunked multi-point
// scheduler (merge sets, cascade re-forms, per-point fallbacks for
// storm points) must reproduce the reference-engine sweep bit for bit
// at any job count, and the batch rollup must account every point.
#include <gtest/gtest.h>

#include <cstring>

#include "par/sweep.hpp"
#include "par/worker_pool.hpp"
#include "sim/compiled_trace.hpp"
#include "sim/experiments.hpp"
#include "telemetry/sweep_telemetry.hpp"

namespace {

using namespace fcdpm;

par::SweepGrid merge_grid() {
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::Asap,
                   sim::PolicyKind::FcDpm, sim::PolicyKind::Oracle};
  grid.rhos = {0.3, 0.7};
  grid.capacities = {Coulomb(1.5), Coulomb(3.0), Coulomb(6.0),
                     Coulomb(24.0)};
  return grid;
}

void expect_identical_sweeps(const par::SweepResult& ref,
                             const par::SweepResult& got) {
  ASSERT_EQ(ref.points.size(), got.points.size());
  for (std::size_t k = 0; k < ref.points.size(); ++k) {
    SCOPED_TRACE(k);
    const sim::SimulationResult& a = ref.points[k].result;
    const sim::SimulationResult& b = got.points[k].result;
    EXPECT_EQ(std::memcmp(&a.totals, &b.totals, sizeof a.totals), 0);
    EXPECT_EQ(a.sleeps, b.sleeps);
    EXPECT_EQ(a.storage_end.value(), b.storage_end.value());
    EXPECT_EQ(a.storage_min.value(), b.storage_min.value());
    EXPECT_EQ(a.storage_max.value(), b.storage_max.value());
    EXPECT_EQ(a.latency_added.value(), b.latency_added.value());
  }
}

TEST(SweepBatchedEngine, ReproducesTheReferenceSweepBitForBit) {
  sim::ExperimentConfig base = sim::experiment1_config();
  base.initial_storage = Coulomb(1.0);  // sub-capacity: lanes merge
  const par::SweepGrid grid = merge_grid();

  const par::SweepResult ref = par::run_sweep(base, grid);
  base.simulation.engine = sim::Engine::Batched;
  const par::SweepResult got = par::run_sweep(base, grid);
  expect_identical_sweeps(ref, got);

  // Every point ran inside a batch task, and the pure capacity lanes
  // actually merged (the perf claim, not just the identity claim).
  EXPECT_EQ(got.stats.points_batched, got.points.size());
  EXPECT_GT(got.stats.batch_merge_sets, 0u);
  EXPECT_GT(got.stats.batch_merged_lane_slots, 0u);
  for (const par::SweepPointResult& point : got.points) {
    EXPECT_TRUE(point.ran_batched);
  }
}

TEST(SweepBatchedEngine, JobCountDoesNotChangeBatchedResults) {
  sim::ExperimentConfig base = sim::experiment1_config();
  base.initial_storage = Coulomb(1.0);
  base.simulation.engine = sim::Engine::Batched;
  const par::SweepGrid grid = merge_grid();

  par::SweepOptions serial;
  serial.jobs = 1;
  const par::SweepResult one = par::run_sweep(base, grid, serial);
  par::SweepOptions parallel;
  parallel.jobs = 4;
  const par::SweepResult four = par::run_sweep(base, grid, parallel);
  expect_identical_sweeps(one, four);
  EXPECT_EQ(one.stats.batch_merge_sets, four.stats.batch_merge_sets);
  EXPECT_EQ(one.stats.batch_merged_lane_slots,
            four.stats.batch_merged_lane_slots);
  EXPECT_EQ(one.stats.batch_splits, four.stats.batch_splits);
}

TEST(SweepBatchedEngine, StormPointsFallBackPerPointAndStayIdentical) {
  sim::ExperimentConfig base = sim::experiment1_config();
  base.initial_storage = Coulomb(1.0);
  par::SweepGrid grid = merge_grid();
  grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::FcDpm};
  grid.storm_seeds = {0, 7};
  grid.storm_faults = 6;

  const par::SweepResult ref = par::run_sweep(base, grid);
  base.simulation.engine = sim::Engine::Batched;
  const par::SweepResult got = par::run_sweep(base, grid);
  expect_identical_sweeps(ref, got);

  // Storm points are batch-ineligible (fault injection): exactly the
  // seed-0 half of the grid is batched, the rest dispatched per point.
  EXPECT_EQ(got.stats.points_batched, got.points.size() / 2);
  for (const par::SweepPointResult& point : got.points) {
    EXPECT_EQ(point.ran_batched, point.point.storm_seed == 0);
  }
}

// Storm-seed grid on the paper's experiment-1 config: batched chunks
// and per-point reference fallbacks occur in one sweep.
// The SweepHotEngine suite name predates the batched engine's B = 1
// path; these cases now run Engine::Batched.
par::SweepGrid storm_grid() {
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::FcDpm};
  grid.rhos = {0.3, 0.5};
  grid.capacities = {Coulomb(6.0), Coulomb(3.0)};
  grid.storm_seeds = {0, 7};
  grid.storm_faults = 6;
  return grid;
}

TEST(SweepHotEngine, ReproducesTheReferenceSweepBitForBit) {
  sim::ExperimentConfig base = sim::experiment1_config();
  const par::SweepGrid grid = storm_grid();

  const par::SweepResult ref = par::run_sweep(base, grid);
  base.simulation.engine = sim::Engine::Batched;
  const par::SweepResult got = par::run_sweep(base, grid);
  expect_identical_sweeps(ref, got);
}

TEST(SweepHotEngine, JobCountDoesNotChangeHotResults) {
  sim::ExperimentConfig base = sim::experiment1_config();
  base.simulation.engine = sim::Engine::Batched;
  const par::SweepGrid grid = storm_grid();

  par::SweepOptions serial;
  serial.jobs = 1;
  const par::SweepResult one = par::run_sweep(base, grid, serial);
  par::SweepOptions parallel;
  parallel.jobs = 4;
  const par::SweepResult four = par::run_sweep(base, grid, parallel);
  expect_identical_sweeps(one, four);
  EXPECT_EQ(one.stats.points_batched, four.stats.points_batched);
}

TEST(SweepHotEngine, RunPointCompilesLocallyWithoutASharedTrace) {
  sim::ExperimentConfig base = sim::experiment1_config();
  base.simulation.engine = sim::Engine::Batched;
  par::SweepPoint point;
  point.policy = sim::PolicyKind::FcDpm;
  point.rho = 0.5;
  point.capacity = Coulomb(6.0);

  // Shared compiled trace (what run_sweep passes)...
  const sim::CompiledTrace compiled(base.trace, base.device);
  const par::SweepPointResult shared =
      par::run_point(base, point, 6, nullptr, 0, &compiled);
  // ...and the resilience retry path, which passes none.
  const par::SweepPointResult local = par::run_point(base, point, 6);
  EXPECT_TRUE(shared.ran_batched);
  EXPECT_TRUE(local.ran_batched);
  EXPECT_EQ(std::memcmp(&shared.result.totals, &local.result.totals,
                        sizeof shared.result.totals),
            0);
  EXPECT_EQ(shared.result.sleeps, local.result.sleeps);
}

// The engine mix is two-valued: every point is counted once, as
// reference or batched, and each Perfetto lane says which loop ran it —
// true for chunk lanes and for batched singles alike.
TEST(SweepBatchedEngine, TelemetryCountsEveryPointUnderTheEngineThatRanIt) {
  sim::ExperimentConfig base = sim::experiment1_config();
  base.simulation.engine = sim::Engine::Batched;
  const par::SweepGrid grid = storm_grid();
  const std::size_t total = grid.points(base).size();

  telemetry::TelemetryConfig tconfig;
  tconfig.workers = par::WorkerPool::resolve(2);
  tconfig.total_points = total;
  tconfig.record_lanes = true;
  telemetry::SweepTelemetry tel(tconfig);
  par::SweepOptions options;
  options.jobs = 2;
  options.telemetry = &tel;
  const par::SweepResult sweep = par::run_sweep(base, grid, options);

  const telemetry::SweepSnapshot snap = tel.snapshot();
  EXPECT_EQ(snap.batched_dispatches, sweep.stats.points_batched);
  EXPECT_EQ(snap.reference_dispatches + snap.batched_dispatches, total);
  // Storm points fall back; the fault-free half runs on the batch loop.
  EXPECT_EQ(sweep.stats.points_batched, total / 2);

  std::size_t batched_lanes = 0;
  std::size_t reference_lanes = 0;
  for (std::size_t w = 0; w < tel.lanes()->workers(); ++w) {
    for (const telemetry::PointLane& lane : tel.lanes()->lane(w)) {
      if (lane.batched) {
        ++batched_lanes;
      } else {
        ++reference_lanes;
        EXPECT_FALSE(sweep.points[lane.point_index].ran_batched);
      }
    }
  }
  EXPECT_GT(batched_lanes, 0u);
  EXPECT_EQ(reference_lanes, total / 2);
}

}  // namespace
