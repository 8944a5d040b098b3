#include "resilience/resilient_sweep.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "common/csv.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "par/worker_pool.hpp"
#include "resilience/journal.hpp"
#include "sim/experiments.hpp"
#include "telemetry/sweep_telemetry.hpp"

namespace fcdpm::resilience {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "fcdpm_resweep_" + name;
}

sim::ExperimentConfig small_base() {
  sim::ExperimentConfig config = sim::experiment1_config();
  config.trace = config.trace.truncated(Seconds(120.0));
  return config;
}

par::SweepGrid small_grid() {
  par::SweepGrid grid;
  grid.rhos = {0.3, 0.5};
  grid.capacities = {Coulomb(3.0), Coulomb(6.0)};
  grid.storm_seeds = {0, 42};
  return grid;  // Table-2 trio x 2 x 2 x 2 -> 24 points
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

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ResilientSweepTest, MatchesThePlainEngineBitwiseAcrossJobCounts) {
  const sim::ExperimentConfig base = small_base();
  const par::SweepGrid grid = small_grid();

  par::SweepOptions plain_options;
  plain_options.jobs = 1;
  const par::SweepResult plain = par::run_sweep(base, grid, plain_options);

  for (const std::size_t jobs : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "jobs=" << jobs);
    ResilienceOptions options;
    options.jobs = jobs;
    const ResilientSweepResult sweep =
        run_resilient_sweep(base, grid, options);

    ASSERT_EQ(sweep.points.size(), plain.points.size());
    EXPECT_EQ(sweep.resilience.quarantined, 0u);
    EXPECT_EQ(sweep.resilience.retries, 0u);
    EXPECT_EQ(sweep.resilience.rounds, 1u);
    for (std::size_t k = 0; k < sweep.points.size(); ++k) {
      SCOPED_TRACE(testing::Message() << "point=" << k);
      ASSERT_TRUE(sweep.points[k].ok);
      EXPECT_EQ(sweep.points[k].attempts, 1u);
      expect_same_result(sweep.points[k].result.result,
                         plain.points[k].result);
    }
  }
}

// Acceptance: a permanently-failing point is retried exactly
// max_retries times, quarantined with its typed error, and no other
// point changes bitwise.
TEST(ResilientSweepTest, PoisonedPointIsQuarantinedOthersUntouched) {
  const sim::ExperimentConfig base = small_base();
  const par::SweepGrid grid = small_grid();
  const std::size_t poisoned = 5;

  par::SweepOptions plain_options;
  plain_options.jobs = 1;
  const par::SweepResult plain = par::run_sweep(base, grid, plain_options);

  ResilienceOptions options;
  options.jobs = 4;
  options.contract.max_retries = 3;
  options.contract.inject_fail_index = poisoned;
  const ResilientSweepResult sweep =
      run_resilient_sweep(base, grid, options);

  EXPECT_EQ(sweep.resilience.quarantined, 1u);
  EXPECT_EQ(sweep.resilience.retries, 3u);
  ASSERT_FALSE(sweep.points[poisoned].ok);
  EXPECT_EQ(sweep.points[poisoned].attempts, 1u + 3u);
  EXPECT_EQ(sweep.points[poisoned].error.kind,
            PointErrorKind::solver_diverged);
  for (std::size_t k = 0; k < sweep.points.size(); ++k) {
    if (k == poisoned) {
      continue;
    }
    SCOPED_TRACE(testing::Message() << "point=" << k);
    ASSERT_TRUE(sweep.points[k].ok);
    expect_same_result(sweep.points[k].result.result,
                       plain.points[k].result);
  }
}

TEST(ResilientSweepTest, QuarantineLandsInTheJournalWithItsTypedError) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.3, 0.5, 0.7};
  const std::string path = temp_path("quarantine.fcj");

  ResilienceOptions options;
  options.journal_path = path;
  options.contract.max_retries = 1;
  options.contract.inject_fail_index = 1;
  const ResilientSweepResult sweep =
      run_resilient_sweep(base, grid, options);
  EXPECT_EQ(sweep.resilience.quarantined, 1u);

  const JournalLoad load = load_journal(path);
  ASSERT_EQ(load.records.size(), 3u);
  std::size_t failed = 0;
  for (const JournalRecord& record : load.records) {
    if (!record.ok) {
      ++failed;
      EXPECT_EQ(record.index, 1u);
      EXPECT_EQ(record.attempts, 2u);
      EXPECT_EQ(record.error.kind, PointErrorKind::solver_diverged);
    }
  }
  EXPECT_EQ(failed, 1u);
  std::remove(path.c_str());
}

// Acceptance: kill-and-resume. The journal of an interrupted sweep
// (simulated by cutting it mid-record) resumes to results bit-identical
// to the uninterrupted run, re-simulating zero completed points beyond
// the spot-check.
TEST(ResilientSweepTest, TornJournalResumesBitIdenticalToUninterrupted) {
  const sim::ExperimentConfig base = small_base();
  const par::SweepGrid grid = small_grid();
  const std::string path = temp_path("kill_resume.fcj");

  ResilienceOptions first;
  first.jobs = 2;
  first.journal_path = path;
  const ResilientSweepResult uninterrupted =
      run_resilient_sweep(base, grid, first);
  ASSERT_EQ(uninterrupted.resilience.quarantined, 0u);

  // "SIGKILL" partway through: keep the header, 10 full records and a
  // torn 11th.
  const std::string full = read_file(path);
  std::size_t cut = full.find('\n') + 1;
  for (int records = 0; records < 10; ++records) {
    cut = full.find('\n', cut) + 1;
  }
  write_file(path, full.substr(0, cut + 17));

  ResilienceOptions second;
  second.jobs = 2;
  second.journal_path = path;
  second.resume = true;
  second.spot_checks = 1;
  const ResilientSweepResult resumed =
      run_resilient_sweep(base, grid, second);

  EXPECT_TRUE(resumed.resilience.torn_tail_recovered);
  EXPECT_EQ(resumed.resilience.replayed, 10u);
  EXPECT_EQ(resumed.resilience.scheduled, grid.points(base).size() - 10u);
  EXPECT_EQ(resumed.resilience.spot_checks, 1u);
  ASSERT_EQ(resumed.points.size(), uninterrupted.points.size());
  std::size_t replayed_points = 0;
  for (std::size_t k = 0; k < resumed.points.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "point=" << k);
    ASSERT_TRUE(resumed.points[k].ok);
    // With jobs=2 the journal's append order follows completion, not
    // grid order — which 10 points were committed is scheduling-
    // dependent, but their *results* must replay bit-identically.
    replayed_points += resumed.points[k].replayed ? 1 : 0;
    expect_same_result(resumed.points[k].result.result,
                       uninterrupted.points[k].result.result);
  }
  EXPECT_EQ(replayed_points, 10u);

  // The healed journal now holds every point exactly once.
  const JournalLoad healed = load_journal(path);
  EXPECT_FALSE(healed.torn_tail);
  EXPECT_EQ(healed.records.size(), resumed.points.size());
  std::remove(path.c_str());
}

TEST(ResilientSweepTest, FullJournalResumeReSimulatesNothing) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.rhos = {0.4, 0.6};
  const std::string path = temp_path("full_resume.fcj");

  ResilienceOptions first;
  first.journal_path = path;
  const ResilientSweepResult original =
      run_resilient_sweep(base, grid, first);

  ResilienceOptions second;
  second.journal_path = path;
  second.resume = true;
  second.spot_checks = 0;  // isolate "zero re-simulation"
  const ResilientSweepResult resumed =
      run_resilient_sweep(base, grid, second);

  EXPECT_EQ(resumed.resilience.scheduled, 0u);
  EXPECT_EQ(resumed.resilience.rounds, 0u);
  EXPECT_EQ(resumed.resilience.replayed, original.points.size());
  for (std::size_t k = 0; k < resumed.points.size(); ++k) {
    ASSERT_TRUE(resumed.points[k].replayed);
    expect_same_result(resumed.points[k].result.result,
                       original.points[k].result.result);
  }
  std::remove(path.c_str());
}

// Audited journals written before the solve cache was removed carry an
// "aud_cache" counter (always 0 there). The decoder ignores the retired
// field, so such a journal still replays, passes its spot check and
// resumes. The header and first record below are verbatim from such a
// build: `fcdpm_cli sweep --policies fcdpm --rhos 0.5 --capacities 3,6
// --audit sample --journal J --jobs 1`.
TEST(ResilientSweepTest, ResumesAuditedJournalWithRetiredCacheField) {
  const std::string journal =
      R"j({"fcdpm_journal":1,"trace":"camcorder","points":2,"fingerprint":"c)j"
      R"j(dbfc02dd2ee1cc8"})j"
      "\n"
      R"j(R 000002a9 555a6b06358eae82 {"index":0,"policy":2,"rho":"0x1p-1",")j"
      R"j(capacity":"0x1.8p+1","seed":0,"attempts":1,"ok":true,"trace":"camc)j"
      R"j(order","dpm":"predictive(exp-average)","fc":"FC-DPM","fuel":"0x1.b)j"
      R"j(3fa2d7f39b98p+9","delivered_j":"0x1.778a698729fd4p+13","load_j":"0)j"
      R"j(x1.6fdf2fb50eb28p+13","bled":"0x1.47344daf3723dp+4","unserved":"0x)j"
      R"j(0p+0","duration":"0x1.dedbcd0d6e883p+10","slots":112,"sleeps":112,)j"
      R"j("latency":"0x0p+0","storage_initial":"0x1p+0","storage_end":"0x1.f)j"
      R"j(fffffffffffcp-1","storage_min":"0x1.ea4e178478162p-1","storage_max)j"
      R"j(":"0x1.8p+1","aud_mode":1,"aud_slots":7,"aud_segments":28,"aud_che)j"
      R"j(cks":86,"aud_violations":0,"aud_fuel":0,"aud_storage":0,"aud_cap":)j"
      R"j(0,"aud_stacks":0,"aud_cache":0,"aud_fallbacks":0})j"
      "\n";
  ASSERT_NE(journal.find("\"aud_cache\":0"), std::string::npos);
  const std::string path = temp_path("aud_cache.fcj");
  write_file(path, journal);

  sim::ExperimentConfig base = sim::experiment1_config();
  base.audit.mode = audit::Mode::Sample;
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.5};
  grid.capacities = {Coulomb(3.0), Coulomb(6.0)};

  const JournalLoad load = load_journal(path);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_FALSE(load.torn_tail);
  ASSERT_TRUE(load.records[0].result.audit.has_value());
  EXPECT_EQ(load.records[0].result.audit->slots_audited, 7u);

  ResilienceOptions resume;
  resume.journal_path = path;
  resume.resume = true;
  resume.spot_checks = 1;  // re-simulates the replayed point bitwise
  const ResilientSweepResult resumed = run_resilient_sweep(base, grid, resume);
  EXPECT_EQ(resumed.resilience.replayed, 1u);
  EXPECT_EQ(resumed.resilience.scheduled, 1u);
  EXPECT_EQ(resumed.resilience.spot_checks, 1u);

  const ResilientSweepResult fresh =
      run_resilient_sweep(base, grid, ResilienceOptions{});
  ASSERT_EQ(resumed.points.size(), fresh.points.size());
  for (std::size_t k = 0; k < fresh.points.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "point=" << k);
    ASSERT_TRUE(resumed.points[k].ok);
    expect_same_result(resumed.points[k].result.result,
                       fresh.points[k].result.result);
  }
  // New records are written without the retired field.
  const std::string healed = read_file(path);
  const std::size_t appended = healed.find("\"index\":1");
  ASSERT_NE(appended, std::string::npos);
  EXPECT_EQ(healed.find("aud_cache", appended), std::string::npos);
  std::remove(path.c_str());
}

TEST(ResilientSweepTest, ResumeRejectsAForeignGridFingerprint) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.rhos = {0.4, 0.6};
  const std::string path = temp_path("foreign.fcj");

  ResilienceOptions first;
  first.journal_path = path;
  (void)run_resilient_sweep(base, grid, first);

  par::SweepGrid other = grid;
  other.rhos.push_back(0.8);
  ResilienceOptions second;
  second.journal_path = path;
  second.resume = true;
  EXPECT_THROW((void)run_resilient_sweep(base, other, second), CsvError);
  std::remove(path.c_str());
}

TEST(ResilientSweepTest, SpotCheckCatchesATamperedJournal) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.5};
  const std::string path = temp_path("tampered.fcj");
  const std::vector<par::SweepPoint> points = grid.points(base);
  ASSERT_EQ(points.size(), 1u);

  // Forge a journal whose record checksums fine but whose fuel value is
  // wrong: only the spot-check's re-simulation can expose it.
  const par::SweepPointResult honest =
      par::run_point(base, points[0], grid.storm_faults);
  JournalRecord record;
  record.index = 0;
  record.point = points[0];
  record.result = honest.result;
  record.result.totals.fuel =
      Coulomb(honest.result.totals.fuel.value() + 1.0);
  {
    Journal journal = Journal::create(
        path, {base.trace.name(), points.size(),
               grid_fingerprint(base, points, grid.storm_faults)});
    journal.append(record);
  }

  ResilienceOptions options;
  options.journal_path = path;
  options.resume = true;
  options.spot_checks = 1;
  EXPECT_THROW((void)run_resilient_sweep(base, grid, options), CsvError);

  // With spot-checks disabled the forged journal replays unchallenged —
  // the check is exactly what stands between the two behaviours.
  options.spot_checks = 0;
  const ResilientSweepResult blind =
      run_resilient_sweep(base, grid, options);
  EXPECT_EQ(blind.points[0].result.result.totals.fuel.value(),
            honest.result.totals.fuel.value() + 1.0);
  std::remove(path.c_str());
}

TEST(ResilientSweepTest, PublishesResilienceMetrics) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.3, 0.5, 0.7};

  obs::MetricsRegistry metrics;
  obs::Context obs(nullptr, &metrics, nullptr);
  ResilienceOptions options;
  options.observer = &obs;
  options.contract.max_retries = 2;
  options.contract.inject_fail_index = 0;
  const ResilientSweepResult sweep =
      run_resilient_sweep(base, grid, options);

  EXPECT_EQ(metrics.gauge("resilience.scheduled").last(), 3.0);
  EXPECT_EQ(metrics.gauge("resilience.retries").last(), 2.0);
  EXPECT_EQ(metrics.gauge("resilience.quarantined").last(), 1.0);
  EXPECT_EQ(metrics.gauge("resilience.replayed").last(), 0.0);
  EXPECT_EQ(metrics.gauge("resilience.watchdog_stalls").last(), 0.0);
  EXPECT_EQ(metrics.gauge("resilience.rounds").last(),
            static_cast<double>(sweep.resilience.rounds));
}

TEST(ResilientSweepTest, DeadlineContractQuarantinesEveryPointTyped) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::FcDpm};
  ResilienceOptions options;
  options.contract.max_retries = 1;
  options.contract.point_deadline_slots = 2;
  const ResilientSweepResult sweep =
      run_resilient_sweep(base, grid, options);
  ASSERT_EQ(sweep.points.size(), 2u);
  EXPECT_EQ(sweep.resilience.quarantined, 2u);
  for (const ResilientPoint& point : sweep.points) {
    ASSERT_FALSE(point.ok);
    EXPECT_EQ(point.error.kind, PointErrorKind::deadline_exceeded);
    EXPECT_EQ(point.attempts, 2u);
  }
}

TEST(ResilientSweepTest, WatchdogEnabledSweepStaysBitIdentical) {
  // Healthy workers beat every slot, so an armed watchdog must be
  // invisible in the results.
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.rhos = {0.3, 0.7};

  ResilienceOptions plain;
  const ResilientSweepResult reference =
      run_resilient_sweep(base, grid, plain);

  ResilienceOptions watched;
  watched.jobs = 2;
  watched.watchdog_stall = std::chrono::milliseconds(2000);
  const ResilientSweepResult sweep =
      run_resilient_sweep(base, grid, watched);

  EXPECT_EQ(sweep.resilience.watchdog_stalls, 0u);
  ASSERT_EQ(sweep.points.size(), reference.points.size());
  for (std::size_t k = 0; k < sweep.points.size(); ++k) {
    ASSERT_TRUE(sweep.points[k].ok);
    expect_same_result(sweep.points[k].result.result,
                       reference.points[k].result.result);
  }
}

TEST(ResilientSweepTest, TelemetryCountsRetriesAndQuarantines) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.3, 0.5, 0.7};

  telemetry::TelemetryConfig tconfig;
  tconfig.workers = par::WorkerPool::resolve(2);
  tconfig.total_points = 3;
  tconfig.record_lanes = true;
  telemetry::SweepTelemetry tel(tconfig);

  ResilienceOptions options;
  options.jobs = 2;
  options.contract.max_retries = 2;
  options.contract.inject_fail_index = 0;
  options.telemetry = &tel;
  const ResilientSweepResult sweep =
      run_resilient_sweep(base, grid, options);

  const telemetry::SweepSnapshot snap = tel.snapshot();
  // Point 0: 3 attempts — two retried, the final one quarantined. The
  // other two points complete first try.
  EXPECT_EQ(snap.done, 2u);
  EXPECT_EQ(snap.retried, 2u);
  EXPECT_EQ(snap.quarantined, 1u);
  EXPECT_EQ(snap.settled(), 3u);
  EXPECT_EQ(sweep.resilience.retries, 2u);
  EXPECT_GT(snap.heartbeats, 0u);
  // Only successful attempts contribute simulated slots/dispatches.
  EXPECT_EQ(snap.reference_dispatches + snap.batched_dispatches,
            2u);
  EXPECT_GT(snap.slots, 0u);

  // Every attempt — including failed ones — leaves a lane record.
  ASSERT_NE(tel.lanes(), nullptr);
  std::size_t lanes = 0;
  std::size_t quarantined_lanes = 0;
  for (std::size_t w = 0; w < tel.lanes()->workers(); ++w) {
    for (const telemetry::PointLane& lane : tel.lanes()->lane(w)) {
      ++lanes;
      quarantined_lanes += lane.quarantined;
    }
  }
  EXPECT_EQ(lanes, 5u);  // 2 ok + 3 attempts of the poisoned point
  EXPECT_EQ(quarantined_lanes, 1u);
}

TEST(ResilientSweepTest, TelemetryAttachedRunStaysBitIdentical) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.rhos = {0.3, 0.7};

  const ResilientSweepResult reference =
      run_resilient_sweep(base, grid, ResilienceOptions{});

  telemetry::TelemetryConfig tconfig;
  tconfig.workers = par::WorkerPool::resolve(2);
  tconfig.total_points = reference.points.size();
  telemetry::SweepTelemetry tel(tconfig);
  ResilienceOptions observed;
  observed.jobs = 2;
  observed.telemetry = &tel;
  const ResilientSweepResult sweep =
      run_resilient_sweep(base, grid, observed);

  ASSERT_EQ(sweep.points.size(), reference.points.size());
  for (std::size_t k = 0; k < sweep.points.size(); ++k) {
    expect_same_result(sweep.points[k].result.result,
                       reference.points[k].result.result);
  }
  EXPECT_EQ(tel.snapshot().done, reference.points.size());
}

}  // namespace
}  // namespace fcdpm::resilience
