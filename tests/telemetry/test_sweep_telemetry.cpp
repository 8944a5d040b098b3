#include "telemetry/sweep_telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "telemetry/progress.hpp"

namespace fcdpm::telemetry {
namespace {

TelemetryConfig two_worker_config() {
  TelemetryConfig config;
  config.workers = 2;
  config.total_points = 10;
  return config;
}

TEST(SweepTelemetryTest, SnapshotMergesEveryShard) {
  SweepTelemetry tel(two_worker_config());
  WorkerShard& w0 = tel.shards().shard(0);
  WorkerShard& w1 = tel.shards().shard(1);
  w0.points_done.fetch_add(3, std::memory_order_relaxed);
  w0.wall_us.observe(100.0);
  w1.points_done.fetch_add(2, std::memory_order_relaxed);
  w1.points_retried.fetch_add(1, std::memory_order_relaxed);
  w1.wall_us.observe(300.0);

  const SweepSnapshot snap = tel.snapshot();
  EXPECT_EQ(snap.seq, 1u);
  EXPECT_EQ(snap.total_points, 10u);
  EXPECT_EQ(snap.done, 5u);
  EXPECT_EQ(snap.retried, 1u);
  // Quantile clamps to the exact observed max.
  EXPECT_DOUBLE_EQ(snap.wall_max_us, 300.0);
  ASSERT_EQ(snap.workers.size(), 2u);
  EXPECT_EQ(snap.workers[0].done, 3u);
  EXPECT_EQ(snap.workers[1].done, 2u);
  // skew = max(3,2) / mean(2.5).
  EXPECT_DOUBLE_EQ(snap.worker_skew, 3.0 / 2.5);
}

TEST(SweepTelemetryTest, SnapshotsAreMonotonic) {
  SweepTelemetry tel(two_worker_config());
  tel.shards().shard(0).points_done.fetch_add(1,
                                              std::memory_order_relaxed);
  const SweepSnapshot first = tel.snapshot();
  tel.shards().shard(1).points_done.fetch_add(3,
                                              std::memory_order_relaxed);
  const SweepSnapshot second = tel.snapshot();
  EXPECT_GT(second.seq, first.seq);
  EXPECT_GE(second.done, first.done);
  EXPECT_GE(second.elapsed_seconds, first.elapsed_seconds);
}

TEST(SweepTelemetryTest, EtaCountsOnlyUnsettledPoints) {
  SweepTelemetry tel(two_worker_config());
  tel.shards().shard(0).points_done.fetch_add(4,
                                              std::memory_order_relaxed);
  tel.shards().shard(1).points_quarantined.fetch_add(
      6, std::memory_order_relaxed);
  const SweepSnapshot snap = tel.snapshot();
  EXPECT_EQ(snap.settled(), 10u);
  // Everything settled: no ETA even though throughput is nonzero.
  EXPECT_DOUBLE_EQ(snap.eta_seconds, 0.0);
}

TEST(SweepTelemetryTest, SnapshotOfIdleTelemetryIsAllZeros) {
  SweepTelemetry tel(two_worker_config());
  const SweepSnapshot snap = tel.snapshot();
  EXPECT_EQ(snap.done, 0u);
  EXPECT_DOUBLE_EQ(snap.wall_p50_us, 0.0);
  EXPECT_DOUBLE_EQ(snap.worker_skew, 1.0);
  EXPECT_DOUBLE_EQ(snap.eta_seconds, 0.0);
}

TEST(SamplerTest, EmitsPeriodicallyAndStopsCleanly) {
  SweepTelemetry tel(two_worker_config());
  std::atomic<int> calls{0};
  std::uint64_t last_seq = 0;
  {
    Sampler sampler(tel, std::chrono::milliseconds(5),
                    [&](const SweepSnapshot& snap) {
                      calls.fetch_add(1);
                      last_seq = snap.seq;
                    });
    while (calls.load() < 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    sampler.stop();
    const int after_stop = calls.load();
    EXPECT_EQ(sampler.emitted(), static_cast<std::uint64_t>(after_stop));
    // After stop() returns no further callback runs.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(calls.load(), after_stop);
    // A final on-demand snapshot continues the seq numbering.
    EXPECT_GT(tel.snapshot().seq, last_seq);
  }
}

TEST(SamplerTest, DestructorStopsWithoutExplicitStop) {
  SweepTelemetry tel(two_worker_config());
  std::atomic<int> calls{0};
  {
    Sampler sampler(tel, std::chrono::milliseconds(1),
                    [&](const SweepSnapshot&) { calls.fetch_add(1); });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  SUCCEED();  // no crash, no leak (ASan job watches this test)
}

TEST(ProgressTest, SnapshotJsonCarriesTheHeadlineFields) {
  SweepTelemetry tel(two_worker_config());
  tel.shards().shard(0).points_done.fetch_add(4,
                                              std::memory_order_relaxed);
  tel.shards().shard(0).slots.fetch_add(2, std::memory_order_relaxed);
  const SweepSnapshot snap = tel.snapshot();
  const std::string line = snapshot_to_json(snap);
  EXPECT_NE(line.find("\"schema\":\"fcdpm.sweep_progress.v1\""),
            std::string::npos);
  EXPECT_NE(line.find("\"done\":4"), std::string::npos);
  EXPECT_NE(line.find("\"total_points\":10"), std::string::npos);
  EXPECT_NE(line.find("\"slots\":2"), std::string::npos);
  EXPECT_NE(line.find("\"workers\":["), std::string::npos);
  // One line, one object.
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
}

TEST(ProgressTest, ProgressLineShowsCompletionAndThroughput) {
  SweepTelemetry tel(two_worker_config());
  tel.shards().shard(0).points_done.fetch_add(5,
                                              std::memory_order_relaxed);
  const std::string line = progress_line(tel.snapshot());
  EXPECT_NE(line.find("sweep 5/10"), std::string::npos);
  EXPECT_NE(line.find("pt/s"), std::string::npos);
}

}  // namespace
}  // namespace fcdpm::telemetry
