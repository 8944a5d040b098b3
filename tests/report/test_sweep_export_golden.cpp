// Golden bytes of the sweep exports: the BENCH JSON object and the ASCII
// sweep table. tests/report/data/ pins both; on a mismatch the test
// writes what it rendered next to its working directory as
// sweep_bench_golden.actual.json / sweep_table_golden.actual.txt. After
// a deliberate format change, review that file and copy it over the
// fixture.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "report/sweep_export.hpp"
#include "report/table.hpp"

namespace fcdpm::report {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

void expect_golden(const std::string& rendered, const std::string& fixture,
                   const std::string& actual) {
  if (rendered != read_file(fixture)) {
    write_file(actual, rendered);
    ADD_FAILURE() << "rendered bytes differ from " << fixture
                  << "; what was rendered is in " << actual;
  }
}

/// Doubles whose text form is easy to get wrong: signed zero, the
/// smallest subnormal, an inexact sum and a huge magnitude.
constexpr double kNegZero = -0.0;
constexpr double kTiny = 5e-324;
const double kInexact = 0.1 + 0.2;
constexpr double kHuge = 1e300;

SweepPointRow plain_row(const char* policy, double rho, double capacity) {
  SweepPointRow row;
  row.policy = policy;
  row.rho = rho;
  row.capacity = capacity;
  row.fuel = 826.8231756513512;
  row.bled = 1.0 / 3.0;
  row.unserved = 0.0;
  row.duration = 1120.0;
  row.storage_end = 2.9999999999999996;
  row.latency = 1.5e-7;
  row.slots = 112;
  row.sleeps = 9;
  return row;
}

SweepBenchReport golden_report() {
  SweepBenchReport bench;
  bench.trace_name = "camcorder \"exp1\"";
  bench.points = 6;
  bench.jobs = 4;
  bench.wall_seconds = 0.012345678901234;
  bench.points_per_second = 486.00000000001;
  bench.serial_wall_seconds = kInexact;
  bench.speedup = kTiny;
  bench.bit_identical_to_serial = 1;
  bench.cap_enabled = true;
  bench.capped_slots = 51;
  bench.capped_points = 1;
  bench.cap_deferred_j = kNegZero;
  bench.stacks_enabled = true;
  bench.stack_points = 1;
  bench.stack_startups = 19;
  bench.stack_max_wear = kInexact;
  bench.batched_points = 4;
  bench.batch_merge_sets = 2;
  bench.batch_merged_lane_slots = 224;
  bench.batch_splits = 1;
  bench.audit_enabled = true;
  bench.audit_mode = "sample";
  bench.audited_slots = 95;
  bench.audit_checks = 1023;
  bench.audit_violations = 3;
  bench.engine_fallbacks = 1;
  bench.fallback_points = 1;

  bench.results.push_back(plain_row("conv", 0.1, 3.0));
  SweepPointRow odd = plain_row("fcdpm", kInexact, kHuge);
  odd.storm_seed = 18446744073709551615ull;
  odd.fuel = kNegZero;
  odd.bled = kTiny;
  odd.unserved = kInexact;
  odd.duration = kHuge;
  odd.replayed = true;
  bench.results.push_back(odd);

  SweepPointRow failed = plain_row("asap", 0.5, 6.0);
  failed.ok = false;
  failed.attempts = 3;
  failed.error = "solver_diverged: \"bisect\"\n\tslot\\7 \x01";
  bench.results.push_back(failed);

  SweepPointRow capped = plain_row("oracle", 0.7, 24.0);
  capped.cap_enabled = true;
  capped.capped_slots = 51;
  capped.cap_deferred_j = 1.0 / 3.0;
  capped.cap_deferred_s = 1e-300;
  bench.results.push_back(capped);

  SweepPointRow stacked = plain_row("fcdpm", 0.9, 12.0);
  stacked.stacks_enabled = true;
  stacked.stacks = 3;
  stacked.distribution = "waterfill";
  stacked.stack_startups = 19;
  stacked.stack_max_wear = kInexact;
  stacked.stack_fuel = {kNegZero, kTiny, kInexact, kHuge};
  bench.results.push_back(stacked);

  SweepPointRow audited = plain_row("conv", 0.3, 1.5);
  audited.audit_enabled = true;
  audited.audit_slots = 95;
  audited.audit_checks = 1023;
  audited.audit_violations = 3;
  audited.engine_fallbacks = 1;
  audited.audit_first = "delivered \"integral\"\n";
  bench.results.push_back(audited);

  SweepResilienceReport& r = bench.resilience;
  r.enabled = true;
  r.scheduled = 4;
  r.replayed = 2;
  r.retries = 2;
  r.quarantined = 1;
  r.rounds = 3;
  r.spot_checks = 2;
  r.torn_tail_recovered = true;
  r.torn_bytes_dropped = 17;
  r.watchdog_stalls = 1;
  r.max_retries = 2;
  r.point_deadline_slots = 500;
  r.cap_enabled = true;
  r.capped_ok = 1;

  TelemetryReport& t = bench.telemetry;
  t.enabled = true;
  t.snapshots = 3;
  t.done = 6;
  t.retried = 2;
  t.quarantined = 1;
  t.reference_dispatches = 2;
  t.batched_dispatches = 4;
  t.heartbeats = 12;
  t.slots = 672;
  t.capped_slots = 51;
  t.audited_slots = 95;
  t.audit_violations = 3;
  t.engine_fallbacks = 1;
  t.throughput_points_per_s = 486.00000000001;
  t.wall_p50_us = kInexact;
  t.wall_p95_us = kTiny;
  t.wall_p99_us = kHuge;
  t.wall_max_us = kNegZero;
  t.worker_skew = 1.0 / 3.0;
  TelemetryWorkerRow busy;
  busy.worker = 0;
  busy.done = 4;
  busy.retried = 2;
  busy.quarantined = 1;
  busy.reference_dispatches = 2;
  busy.batched_dispatches = 2;
  busy.heartbeats = 8;
  busy.slots = 448;
  busy.capped_slots = 51;
  busy.audited_slots = 95;
  busy.audit_violations = 3;
  busy.engine_fallbacks = 1;
  busy.busy_seconds = 0.0123456789012345;
  t.workers.push_back(busy);
  TelemetryWorkerRow idle;
  idle.worker = 1;
  idle.done = 2;
  idle.batched_dispatches = 2;
  idle.heartbeats = 4;
  idle.slots = 224;
  idle.busy_seconds = kTiny;
  t.workers.push_back(idle);
  return bench;
}

/// The sweep table's shape (the CLI's `sweep` columns), with cells from
/// report::cell / percent_cell.
Table golden_table() {
  Table table("sweep: camcorder",
              {"policy", "rho", "capacity", "storm seed", "fuel (A-s)",
               "bled (A-s)", "unserved (A-s)", "sleeps", "share", "status"});
  table.add_row({"conv", cell(0.1, 2), cell(3.0, 1), "0",
                 cell(826.8231756513512, 2), cell(1.0 / 3.0, 2),
                 cell(0.0, 2), "9", percent_cell(0.308), "ok"});
  table.add_row({"fcdpm", cell(kInexact, 2), cell(kHuge, 1),
                 "18446744073709551615", cell(kNegZero, 2), cell(kTiny, 2),
                 cell(kInexact, 17), "0", percent_cell(kNegZero, 3),
                 "replayed"});
  table.add_row({"asap", cell(0.5, 2), cell(6.0, 1), "0", "-", "-", "-",
                 "-", percent_cell(1.0 / 3.0, 0),
                 "quarantined: solver_diverged"});
  table.add_row({"oracle", cell(-1.005, 2), cell(2.5, 0), "7",
                 cell(-12345.678, 3), cell(0.125, 2), cell(1e-7, 6),
                 "112", percent_cell(kTiny)});
  table.add_row({"x"});
  return table;
}

TEST(SweepExportGolden, BenchJsonByteForByte) {
  expect_golden(sweep_bench_to_json(golden_report()), FCDPM_SWEEP_JSON_GOLDEN,
                "sweep_bench_golden.actual.json");
}

TEST(SweepExportGolden, TableByteForByte) {
  expect_golden(golden_table().to_ascii(), FCDPM_SWEEP_TABLE_GOLDEN,
                "sweep_table_golden.actual.txt");
}

}  // namespace
}  // namespace fcdpm::report
