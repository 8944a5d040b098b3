#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "common/csv.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "par/sweep.hpp"
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
    par::SweepOptions options;
    options.jobs = jobs;
    const par::SweepResult sweep = par::run_sweep(base, grid, options);

    ASSERT_EQ(sweep.points.size(), plain.points.size());
    EXPECT_EQ(sweep.resilience.quarantined, 0u);
    EXPECT_EQ(sweep.resilience.retries, 0u);
    EXPECT_EQ(sweep.resilience.rounds, 1u);
    for (std::size_t k = 0; k < sweep.points.size(); ++k) {
      SCOPED_TRACE(testing::Message() << "point=" << k);
      ASSERT_TRUE(sweep.points[k].ok);
      EXPECT_EQ(sweep.points[k].attempts, 1u);
      expect_same_result(sweep.points[k].result,
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

  par::SweepOptions options;
  options.jobs = 4;
  options.contract.max_retries = 3;
  options.contract.inject_fail_index = poisoned;
  const par::SweepResult sweep = par::run_sweep(base, grid, options);

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
    expect_same_result(sweep.points[k].result,
                       plain.points[k].result);
  }
}

TEST(ResilientSweepTest, QuarantineLandsInTheJournalWithItsTypedError) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.3, 0.5, 0.7};
  const std::string path = temp_path("quarantine.fcj");

  par::SweepOptions options;
  options.journal_path = path;
  options.contract.max_retries = 1;
  options.contract.inject_fail_index = 1;
  const par::SweepResult sweep = par::run_sweep(base, grid, options);
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

  par::SweepOptions first;
  first.jobs = 2;
  first.journal_path = path;
  const par::SweepResult uninterrupted = par::run_sweep(base, grid, first);
  ASSERT_EQ(uninterrupted.resilience.quarantined, 0u);

  // "SIGKILL" partway through: keep the header, 10 full records and a
  // torn 11th.
  const std::string full = read_file(path);
  std::size_t cut = full.find('\n') + 1;
  for (int records = 0; records < 10; ++records) {
    cut = full.find('\n', cut) + 1;
  }
  write_file(path, full.substr(0, cut + 17));

  par::SweepOptions second;
  second.jobs = 2;
  second.journal_path = path;
  second.resume = true;
  second.spot_checks = 1;
  const par::SweepResult resumed = par::run_sweep(base, grid, second);

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
    expect_same_result(resumed.points[k].result,
                       uninterrupted.points[k].result);
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

  par::SweepOptions first;
  first.journal_path = path;
  const par::SweepResult original = par::run_sweep(base, grid, first);

  par::SweepOptions second;
  second.journal_path = path;
  second.resume = true;
  second.spot_checks = 0;  // isolate "zero re-simulation"
  const par::SweepResult resumed = par::run_sweep(base, grid, second);

  EXPECT_EQ(resumed.resilience.scheduled, 0u);
  EXPECT_EQ(resumed.resilience.rounds, 0u);
  EXPECT_EQ(resumed.resilience.replayed, original.points.size());
  for (std::size_t k = 0; k < resumed.points.size(); ++k) {
    ASSERT_TRUE(resumed.points[k].replayed);
    expect_same_result(resumed.points[k].result,
                       original.points[k].result);
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

  par::SweepOptions resume;
  resume.journal_path = path;
  resume.resume = true;
  resume.spot_checks = 1;  // re-simulates the replayed point bitwise
  const par::SweepResult resumed = par::run_sweep(base, grid, resume);
  EXPECT_EQ(resumed.resilience.replayed, 1u);
  EXPECT_EQ(resumed.resilience.scheduled, 1u);
  EXPECT_EQ(resumed.resilience.spot_checks, 1u);

  const par::SweepResult fresh =
      par::run_sweep(base, grid, par::SweepOptions{});
  ASSERT_EQ(resumed.points.size(), fresh.points.size());
  for (std::size_t k = 0; k < fresh.points.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "point=" << k);
    ASSERT_TRUE(resumed.points[k].ok);
    expect_same_result(resumed.points[k].result,
                       fresh.points[k].result);
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

  par::SweepOptions first;
  first.journal_path = path;
  (void)par::run_sweep(base, grid, first);

  par::SweepGrid other = grid;
  other.rhos.push_back(0.8);
  par::SweepOptions second;
  second.journal_path = path;
  second.resume = true;
  EXPECT_THROW((void)par::run_sweep(base, other, second), CsvError);
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

  par::SweepOptions options;
  options.journal_path = path;
  options.resume = true;
  options.spot_checks = 1;
  EXPECT_THROW((void)par::run_sweep(base, grid, options), CsvError);

  // With spot-checks disabled the forged journal replays unchallenged —
  // the check is exactly what stands between the two behaviours.
  options.spot_checks = 0;
  const par::SweepResult blind = par::run_sweep(base, grid, options);
  EXPECT_EQ(blind.points[0].result.totals.fuel.value(),
            honest.result.totals.fuel.value() + 1.0);
  std::remove(path.c_str());
}

// Same forgery one block deeper: a per-stack fuel total that checksums
// fine must fail the spot-check like the run's total fuel does.
TEST(ResilientSweepTest, SpotCheckCatchesATamperedStacksBlock) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.5};
  grid.stack_counts = {2};
  const std::string path = temp_path("tampered_stacks.fcj");
  const std::vector<par::SweepPoint> points = grid.points(base);
  ASSERT_EQ(points.size(), 1u);

  const par::SweepPointResult honest =
      par::run_point(base, points[0], grid.storm_faults);
  ASSERT_TRUE(honest.result.stacks.has_value());
  ASSERT_EQ(honest.result.stacks->stacks.size(), 2u);
  JournalRecord record;
  record.index = 0;
  record.point = points[0];
  record.result = honest.result;
  record.result.stacks->stacks[1].fuel_as += 1.0;
  {
    Journal journal = Journal::create(
        path, {base.trace.name(), points.size(),
               grid_fingerprint(base, points, grid.storm_faults)});
    journal.append(record);
  }

  par::SweepOptions options;
  options.journal_path = path;
  options.resume = true;
  options.spot_checks = 1;
  EXPECT_THROW((void)par::run_sweep(base, grid, options), CsvError);

  options.spot_checks = 0;
  const par::SweepResult blind = par::run_sweep(base, grid, options);
  ASSERT_TRUE(blind.points[0].result.stacks.has_value());
  EXPECT_EQ(blind.points[0].result.stacks->stacks[1].fuel_as,
            honest.result.stacks->stacks[1].fuel_as + 1.0);
  std::remove(path.c_str());
}

TEST(ResilientSweepTest, PublishesResilienceMetrics) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.3, 0.5, 0.7};

  obs::MetricsRegistry metrics;
  obs::Context obs(nullptr, &metrics);
  par::SweepOptions options;
  options.observer = &obs;
  options.contract.max_retries = 2;
  options.contract.inject_fail_index = 0;
  const par::SweepResult sweep = par::run_sweep(base, grid, options);

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
  par::SweepOptions options;
  options.contract.max_retries = 1;
  options.contract.point_deadline_slots = 2;
  const par::SweepResult sweep = par::run_sweep(base, grid, options);
  ASSERT_EQ(sweep.points.size(), 2u);
  EXPECT_EQ(sweep.resilience.quarantined, 2u);
  for (const par::SweepPointResult& point : sweep.points) {
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

  par::SweepOptions plain;
  const par::SweepResult reference = par::run_sweep(base, grid, plain);

  par::SweepOptions watched;
  watched.jobs = 2;
  watched.watchdog_stall = std::chrono::milliseconds(2000);
  const par::SweepResult sweep = par::run_sweep(base, grid, watched);

  EXPECT_EQ(sweep.resilience.watchdog_stalls, 0u);
  ASSERT_EQ(sweep.points.size(), reference.points.size());
  for (std::size_t k = 0; k < sweep.points.size(); ++k) {
    ASSERT_TRUE(sweep.points[k].ok);
    expect_same_result(sweep.points[k].result,
                       reference.points[k].result);
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

  par::SweepOptions options;
  options.jobs = 2;
  options.contract.max_retries = 2;
  options.contract.inject_fail_index = 0;
  options.telemetry = &tel;
  const par::SweepResult sweep = par::run_sweep(base, grid, options);

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

  const par::SweepResult reference =
      par::run_sweep(base, grid, par::SweepOptions{});

  telemetry::TelemetryConfig tconfig;
  tconfig.workers = par::WorkerPool::resolve(2);
  tconfig.total_points = reference.points.size();
  telemetry::SweepTelemetry tel(tconfig);
  par::SweepOptions observed;
  observed.jobs = 2;
  observed.telemetry = &tel;
  const par::SweepResult sweep = par::run_sweep(base, grid, observed);

  ASSERT_EQ(sweep.points.size(), reference.points.size());
  for (std::size_t k = 0; k < sweep.points.size(); ++k) {
    expect_same_result(sweep.points[k].result,
                       reference.points[k].result);
  }
  EXPECT_EQ(tel.snapshot().done, reference.points.size());
}


// Resume splices a record only into the grid point it names — every
// point field counts, the stack axis included. Point 0's honest record
// passes the one spot check; a record at index 1 carrying point 0's
// (1-stack) point and result must be rejected, not reported as the
// 2-stack point's fuel.
TEST(ResilientSweepTest, ResumeRejectsARecordFromAnotherStackAxisPoint) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.5};
  grid.stack_counts = {1, 2};
  const std::vector<par::SweepPoint> points = grid.points(base);
  ASSERT_EQ(points.size(), 2u);
  ASSERT_NE(points[0].stacks, points[1].stacks);
  const std::string path = temp_path("stack_axis.fcj");

  const par::SweepPointResult one_stack =
      par::run_point(base, points[0], grid.storm_faults);
  JournalRecord honest;
  honest.index = 0;
  honest.point = points[0];
  honest.result = one_stack.result;
  JournalRecord misplaced = honest;
  misplaced.index = 1;
  {
    Journal journal = Journal::create(
        path, {base.trace.name(), points.size(),
               grid_fingerprint(base, points, grid.storm_faults)});
    journal.append(honest);
    journal.append(misplaced);
  }

  par::SweepOptions options;
  options.journal_path = path;
  options.resume = true;
  EXPECT_THROW((void)par::run_sweep(base, grid, options), CsvError);
  std::remove(path.c_str());
}

// The batched journaled path: the grid packs into two 8-lane chunks
// (one per rho), so a journal written at --jobs 1 holds two task
// groups of 8 records each, in task order.
sim::ExperimentConfig batched_base() {
  sim::ExperimentConfig config = small_base();
  config.initial_storage = Coulomb(1.0);  // sub-capacity: lanes merge
  config.simulation.engine = sim::Engine::Batched;
  return config;
}

par::SweepGrid chunked_grid() {
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::FcDpm};
  grid.rhos = {0.3, 0.7};
  grid.capacities = {Coulomb(1.5), Coulomb(3.0), Coulomb(6.0),
                     Coulomb(24.0)};
  return grid;  // 2 x 2 x 4 = 16 points
}

/// Byte offsets just past each line of `bytes` (the header first).
std::vector<std::size_t> line_ends(const std::string& bytes) {
  std::vector<std::size_t> ends;
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    if (bytes[k] == '\n') {
      ends.push_back(k + 1);
    }
  }
  return ends;
}

TEST(ResilientSweepTest, JournaledBatchedSweepRunsEveryPointBatched) {
  const sim::ExperimentConfig base = batched_base();
  const par::SweepGrid grid = chunked_grid();
  const std::string path = temp_path("batched.fcj");

  par::SweepOptions plain;
  plain.jobs = 2;
  const par::SweepResult reference = par::run_sweep(base, grid, plain);

  par::SweepOptions journaled = plain;
  journaled.journal_path = path;
  const par::SweepResult sweep = par::run_sweep(base, grid, journaled);

  EXPECT_EQ(sweep.stats.points_batched, sweep.stats.points);
  EXPECT_EQ(sweep.stats.batch_merge_sets, reference.stats.batch_merge_sets);
  ASSERT_EQ(sweep.points.size(), reference.points.size());
  for (std::size_t k = 0; k < sweep.points.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "point=" << k);
    ASSERT_TRUE(sweep.points[k].ok);
    EXPECT_TRUE(sweep.points[k].ran_batched);
    expect_same_result(sweep.points[k].result, reference.points[k].result);
  }
  EXPECT_EQ(load_journal(path).records.size(), sweep.points.size());
  std::remove(path.c_str());
}

// An injected failure inside a chunk fails that lane alone: it retries
// as a single until quarantined after exactly 1 + max_retries attempts,
// while its chunk-mates complete on the batch loop first time.
TEST(ResilientSweepTest, InjectedFailureInsideAChunkLeavesChunkMatesBatched) {
  const sim::ExperimentConfig base = batched_base();
  const par::SweepGrid grid = chunked_grid();
  const std::size_t poisoned = 5;  // rho 0.3, inside the first chunk
  const par::SweepResult reference = par::run_sweep(base, grid);

  for (const std::size_t jobs : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "jobs=" << jobs);
    par::SweepOptions options;
    options.jobs = jobs;
    options.contract.max_retries = 3;
    options.contract.inject_fail_index = poisoned;
    const par::SweepResult sweep = par::run_sweep(base, grid, options);

    ASSERT_FALSE(sweep.points[poisoned].ok);
    EXPECT_EQ(sweep.points[poisoned].attempts, 1u + 3u);
    EXPECT_EQ(sweep.points[poisoned].error.kind,
              PointErrorKind::solver_diverged);
    EXPECT_EQ(sweep.resilience.retries, 3u);
    EXPECT_EQ(sweep.resilience.quarantined, 1u);
    EXPECT_EQ(sweep.stats.points_batched, sweep.points.size() - 1);
    for (std::size_t k = 0; k < sweep.points.size(); ++k) {
      if (k == poisoned) {
        continue;
      }
      SCOPED_TRACE(testing::Message() << "point=" << k);
      ASSERT_TRUE(sweep.points[k].ok);
      EXPECT_TRUE(sweep.points[k].ran_batched);
      EXPECT_EQ(sweep.points[k].attempts, 1u);
      expect_same_result(sweep.points[k].result, reference.points[k].result);
    }
  }
}

// Group commit: a crash mid-write tears the final task's group. Cut at
// every byte offset inside that group, the loader keeps every record
// that fully landed — the earlier groups and the group's leading
// records — and reports the rest as a torn tail.
TEST(ResilientSweepTest, BatchedJournalTornAtEveryByteOfItsFinalGroupRecovers) {
  const sim::ExperimentConfig base = batched_base();
  const par::SweepGrid grid = chunked_grid();
  const std::string path = temp_path("batched_torn.fcj");
  par::SweepOptions options;
  options.journal_path = path;
  const par::SweepResult sweep = par::run_sweep(base, grid, options);
  ASSERT_EQ(sweep.stats.points_batched, 16u);

  const std::string full = read_file(path);
  const std::vector<std::size_t> ends = line_ends(full);
  ASSERT_EQ(ends.size(), 1u + 16u);  // header + two groups of 8
  const std::size_t group_start = ends[1 + 8 - 1];
  const std::string cut_path = path + ".cut";

  std::size_t complete = 8;  // records of the first group
  for (std::size_t cut = group_start; cut <= full.size(); ++cut) {
    if (complete < 16 && cut >= ends[1 + complete]) {
      ++complete;
    }
    const std::size_t boundary = ends[complete];
    write_file(cut_path, full.substr(0, cut));
    const JournalLoad load = load_journal(cut_path);
    ASSERT_EQ(load.records.size(), complete) << "cut=" << cut;
    ASSERT_EQ(load.valid_bytes, boundary) << "cut=" << cut;
    ASSERT_EQ(load.torn_tail, cut != boundary) << "cut=" << cut;
    ASSERT_EQ(load.dropped_bytes, cut - boundary) << "cut=" << cut;
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

// Kill-and-resume on the batched path: cut the journal inside its final
// group, resume, and the merged sweep is bit-identical to the
// uninterrupted one — the remainder re-runs batched.
TEST(ResilientSweepTest, TornBatchedJournalResumesBitIdenticalToUninterrupted) {
  const sim::ExperimentConfig base = batched_base();
  const par::SweepGrid grid = chunked_grid();
  const std::string path = temp_path("batched_resume.fcj");

  par::SweepOptions first;
  first.journal_path = path;
  const par::SweepResult uninterrupted = par::run_sweep(base, grid, first);

  // Header, the first group, three records of the final group and a
  // torn fourth.
  const std::string full = read_file(path);
  const std::vector<std::size_t> ends = line_ends(full);
  ASSERT_EQ(ends.size(), 1u + 16u);
  write_file(path, full.substr(0, ends[1 + 8 + 3 - 1] + 17));

  par::SweepOptions second;
  second.jobs = 2;
  second.journal_path = path;
  second.resume = true;
  const par::SweepResult resumed = par::run_sweep(base, grid, second);

  EXPECT_TRUE(resumed.resilience.torn_tail_recovered);
  EXPECT_EQ(resumed.resilience.replayed, 11u);
  EXPECT_EQ(resumed.resilience.scheduled, 5u);
  EXPECT_EQ(resumed.resilience.spot_checks, 1u);
  EXPECT_EQ(resumed.stats.points_batched, 5u);
  ASSERT_EQ(resumed.points.size(), uninterrupted.points.size());
  for (std::size_t k = 0; k < resumed.points.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "point=" << k);
    ASSERT_TRUE(resumed.points[k].ok);
    expect_same_result(resumed.points[k].result,
                       uninterrupted.points[k].result);
  }
  const JournalLoad healed = load_journal(path);
  EXPECT_FALSE(healed.torn_tail);
  EXPECT_EQ(healed.records.size(), resumed.points.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fcdpm::resilience
