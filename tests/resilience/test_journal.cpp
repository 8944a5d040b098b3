#include "resilience/journal.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "cap/stats.hpp"
#include "common/csv.hpp"
#include "sim/experiments.hpp"

namespace fcdpm::resilience {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "fcdpm_journal_" + name;
}

sim::ExperimentConfig small_base() {
  sim::ExperimentConfig config = sim::experiment1_config();
  config.trace = config.trace.truncated(Seconds(60.0));
  return config;
}

/// Synthetic but fully-populated record for grid point `k`: journal
/// serialization is exercised without running a simulation.
JournalRecord make_record(std::size_t k, const par::SweepPoint& point) {
  JournalRecord record;
  record.index = k;
  record.point = point;
  record.attempts = 1 + k % 3;
  record.ok = true;
  sim::SimulationResult& r = record.result;
  r.trace_name = "trace-" + std::to_string(k);
  r.dpm_policy = "dpm \"quoted\"\nline";  // exercises JSON escaping
  r.fc_policy = "fc-" + std::to_string(k);
  const double base = 1.0 / (3.0 + static_cast<double>(k));  // inexact
  r.totals.fuel = Coulomb(base * 1000.0);
  r.totals.delivered_energy = Joule(base * 12000.0);
  r.totals.load_energy = Joule(base * 11000.0);
  r.totals.bled = Coulomb(base * 7.0);
  r.totals.unserved = Coulomb(base / 13.0);
  r.totals.duration = Seconds(1680.0 + base);
  r.slots = 100 + k;
  r.sleeps = 40 + k;
  r.latency_added = Seconds(base * 2.0);
  r.storage_initial = Coulomb(1.0);
  r.storage_end = Coulomb(base * 5.0);
  r.storage_min = Coulomb(0.0);
  r.storage_max = Coulomb(base * 6.0);
  return record;
}

/// Bit pattern of a double: -0.0 and 0.0 differ, as they do in the
/// journal.
std::uint64_t bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

void expect_same_record(const JournalRecord& a, const JournalRecord& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.point.policy, b.point.policy);
  EXPECT_EQ(bits(a.point.rho), bits(b.point.rho));
  EXPECT_EQ(bits(a.point.capacity.value()), bits(b.point.capacity.value()));
  EXPECT_EQ(a.point.storm_seed, b.point.storm_seed);
  EXPECT_EQ(a.attempts, b.attempts);
  ASSERT_EQ(a.ok, b.ok);
  if (!a.ok) {
    EXPECT_EQ(a.error.kind, b.error.kind);
    EXPECT_EQ(a.error.detail, b.error.detail);
    return;
  }
  EXPECT_EQ(a.result.trace_name, b.result.trace_name);
  EXPECT_EQ(a.result.dpm_policy, b.result.dpm_policy);
  EXPECT_EQ(a.result.fc_policy, b.result.fc_policy);
  EXPECT_EQ(bits(a.result.totals.fuel.value()),
            bits(b.result.totals.fuel.value()));
  EXPECT_EQ(bits(a.result.totals.delivered_energy.value()),
            bits(b.result.totals.delivered_energy.value()));
  EXPECT_EQ(bits(a.result.totals.load_energy.value()),
            bits(b.result.totals.load_energy.value()));
  EXPECT_EQ(bits(a.result.totals.bled.value()),
            bits(b.result.totals.bled.value()));
  EXPECT_EQ(bits(a.result.totals.unserved.value()),
            bits(b.result.totals.unserved.value()));
  EXPECT_EQ(bits(a.result.totals.duration.value()),
            bits(b.result.totals.duration.value()));
  EXPECT_EQ(a.result.slots, b.result.slots);
  EXPECT_EQ(a.result.sleeps, b.result.sleeps);
  EXPECT_EQ(bits(a.result.latency_added.value()),
            bits(b.result.latency_added.value()));
  EXPECT_EQ(bits(a.result.storage_initial.value()),
            bits(b.result.storage_initial.value()));
  EXPECT_EQ(bits(a.result.storage_end.value()),
            bits(b.result.storage_end.value()));
  EXPECT_EQ(bits(a.result.storage_min.value()),
            bits(b.result.storage_min.value()));
  EXPECT_EQ(bits(a.result.storage_max.value()),
            bits(b.result.storage_max.value()));
  EXPECT_EQ(a.point.stacks, b.point.stacks);
  EXPECT_EQ(a.point.distribution, b.point.distribution);
  ASSERT_EQ(a.result.stacks.has_value(), b.result.stacks.has_value());
  if (a.result.stacks.has_value()) {
    const stacks::StacksStats& sa = *a.result.stacks;
    const stacks::StacksStats& sb = *b.result.stacks;
    EXPECT_EQ(sa.distribution, sb.distribution);
    ASSERT_EQ(sa.stacks.size(), sb.stacks.size());
    for (std::size_t j = 0; j < sa.stacks.size(); ++j) {
      EXPECT_EQ(bits(sa.stacks[j].fuel_as), bits(sb.stacks[j].fuel_as));
      EXPECT_EQ(bits(sa.stacks[j].delivered_as),
                bits(sb.stacks[j].delivered_as));
      EXPECT_EQ(bits(sa.stacks[j].wear), bits(sb.stacks[j].wear));
      EXPECT_EQ(sa.stacks[j].startups, sb.stacks[j].startups);
    }
  }
  ASSERT_EQ(a.result.cap.has_value(), b.result.cap.has_value());
  if (a.result.cap.has_value()) {
    const cap::CapStats& ca = *a.result.cap;
    const cap::CapStats& cb = *b.result.cap;
    EXPECT_EQ(ca.slots_seen, cb.slots_seen);
    EXPECT_EQ(ca.slots_capped, cb.slots_capped);
    EXPECT_EQ(ca.level_reductions, cb.level_reductions);
    EXPECT_EQ(ca.level_restorations, cb.level_restorations);
    EXPECT_EQ(ca.budget_violations, cb.budget_violations);
    EXPECT_EQ(bits(ca.energy_deferred.value()),
              bits(cb.energy_deferred.value()));
    EXPECT_EQ(bits(ca.time_deferred.value()), bits(cb.time_deferred.value()));
    ASSERT_EQ(ca.time_at_level_s.size(), cb.time_at_level_s.size());
    for (std::size_t j = 0; j < ca.time_at_level_s.size(); ++j) {
      EXPECT_EQ(bits(ca.time_at_level_s[j]), bits(cb.time_at_level_s[j]));
    }
  }
  ASSERT_EQ(a.result.audit.has_value(), b.result.audit.has_value());
  if (a.result.audit.has_value()) {
    const audit::AuditStats& aa = *a.result.audit;
    const audit::AuditStats& ab = *b.result.audit;
    EXPECT_EQ(aa.mode, ab.mode);
    EXPECT_EQ(aa.slots_audited, ab.slots_audited);
    EXPECT_EQ(aa.segments_audited, ab.segments_audited);
    EXPECT_EQ(aa.checks_run, ab.checks_run);
    EXPECT_EQ(aa.violations, ab.violations);
    EXPECT_EQ(aa.fuel_violations, ab.fuel_violations);
    EXPECT_EQ(aa.storage_violations, ab.storage_violations);
    EXPECT_EQ(aa.cap_violations, ab.cap_violations);
    EXPECT_EQ(aa.stacks_violations, ab.stacks_violations);
    EXPECT_EQ(aa.engine_fallbacks, ab.engine_fallbacks);
    EXPECT_EQ(aa.first_violation_slot, ab.first_violation_slot);
    EXPECT_EQ(aa.first_violation, ab.first_violation);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<par::SweepPoint> grid_points(std::size_t shape) {
  par::SweepGrid grid;
  switch (shape % 3) {
    case 0:
      grid.policies = {sim::PolicyKind::FcDpm};
      grid.rhos = {0.3, 0.7};
      break;
    case 1:
      grid.rhos = {0.5};
      grid.capacities = {Coulomb(3.0), Coulomb(9.0)};
      grid.storm_seeds = {0, 11};
      break;
    default:
      grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::Oracle};
      grid.capacities = {Coulomb(6.0)};
      grid.storm_seeds = {5};
      break;
  }
  return grid.points(small_base());
}

TEST(JournalTest, RoundTripsOkAndFailedRecordsBitExactly) {
  const std::string path = temp_path("roundtrip.fcj");
  const std::vector<par::SweepPoint> points = grid_points(1);

  std::vector<JournalRecord> written;
  {
    Journal journal =
        Journal::create(path, {"camcorder", points.size(), 0xabcdefull});
    for (std::size_t k = 0; k < points.size(); ++k) {
      JournalRecord record = make_record(k, points[k]);
      if (k == 2) {
        record.ok = false;
        record.error = {PointErrorKind::deadline_exceeded,
                        "slot budget exhausted: 7 \"slots\""};
      }
      journal.append(record);
      written.push_back(record);
    }
  }

  const JournalLoad load = load_journal(path);
  EXPECT_EQ(load.header.trace_name, "camcorder");
  EXPECT_EQ(load.header.points, points.size());
  EXPECT_EQ(load.header.fingerprint, 0xabcdefull);
  EXPECT_FALSE(load.torn_tail);
  EXPECT_EQ(load.dropped_bytes, 0u);
  ASSERT_EQ(load.records.size(), written.size());
  for (std::size_t k = 0; k < written.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "record=" << k);
    expect_same_record(load.records[k], written[k]);
  }
  std::remove(path.c_str());
}

TEST(JournalTest, HexfloatSerializationRoundTripsHostileDoubles) {
  const std::string path = temp_path("hexfloat.fcj");
  const std::vector<par::SweepPoint> points = grid_points(0);
  const double hostile[] = {0.1 + 0.2,
                            1.0 / 3.0,
                            3.141592653589793,
                            5e-324,  // smallest subnormal
                            -0.0,
                            1.7976931348623157e308};
  {
    Journal journal = Journal::create(path, {"t", 6, 1});
    for (std::size_t k = 0; k < 6; ++k) {
      JournalRecord record = make_record(k, points[k % points.size()]);
      record.index = k;
      record.point.rho = hostile[k];
      record.result.totals.fuel = Coulomb(hostile[k]);
      journal.append(record);
    }
  }
  const JournalLoad load = load_journal(path);
  ASSERT_EQ(load.records.size(), 6u);
  for (std::size_t k = 0; k < 6; ++k) {
    SCOPED_TRACE(testing::Message() << "value=" << hostile[k]);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(load.records[k].point.rho),
              std::bit_cast<std::uint64_t>(hostile[k]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  load.records[k].result.totals.fuel.value()),
              std::bit_cast<std::uint64_t>(hostile[k]));
  }
  std::remove(path.c_str());
}

// Cap-stats block: present iff the run carried a governor, hexfloat
// round-trip including the per-level histogram, capless records coexist
// in the same journal.
TEST(JournalTest, CapStatsRoundTripBitExactly) {
  const std::string path = temp_path("cap.fcj");
  const std::vector<par::SweepPoint> points = grid_points(1);
  ASSERT_GE(points.size(), 2u);

  std::vector<JournalRecord> written;
  {
    Journal journal = Journal::create(path, {"t", points.size(), 0xcab});
    JournalRecord capped = make_record(0, points[0]);
    cap::CapStats stats;
    stats.slots_seen = 112;
    stats.slots_capped = 51;
    stats.level_reductions = 2;
    stats.level_restorations = 2;
    stats.budget_violations = 0;
    stats.energy_deferred = Joule(1.0 / 3.0);
    stats.time_deferred = Seconds(0.1 + 0.2);
    stats.time_at_level_s = {5e-324, -0.0, 3.141592653589793, 42.0};
    capped.result.cap = stats;
    journal.append(capped);
    written.push_back(capped);

    const JournalRecord plain = make_record(1, points[1]);
    journal.append(plain);
    written.push_back(plain);
  }

  const JournalLoad load = load_journal(path);
  ASSERT_EQ(load.records.size(), 2u);
  expect_same_record(load.records[0], written[0]);
  EXPECT_TRUE(load.records[0].result.cap.has_value());
  expect_same_record(load.records[1], written[1]);
  EXPECT_FALSE(load.records[1].result.cap.has_value());
  std::remove(path.c_str());
}

TEST(JournalTest, StacksStatsRoundTripBitExactly) {
  const std::string path = temp_path("stacks.fcj");
  const std::vector<par::SweepPoint> points = grid_points(1);
  ASSERT_GE(points.size(), 2u);

  std::vector<JournalRecord> written;
  {
    Journal journal = Journal::create(path, {"t", points.size(), 0x57ac});
    JournalRecord stacked = make_record(0, points[0]);
    stacked.point.stacks = 3;
    stacked.point.distribution = stacks::Distribution::Health;
    stacks::StacksStats stats;
    stats.distribution = stacks::Distribution::Health;
    stats.stacks.resize(3);
    stats.stacks[0] = {1.0 / 3.0, 5e-324, 7, 0.1 + 0.2};
    stats.stacks[1] = {-0.0, 3.141592653589793, 0, 0.0};
    stats.stacks[2] = {42.0, 1e300, 12, 2.2250738585072014e-308};
    stacked.result.stacks = stats;
    journal.append(stacked);
    written.push_back(stacked);

    const JournalRecord plain = make_record(1, points[1]);
    journal.append(plain);
    written.push_back(plain);
  }

  const JournalLoad load = load_journal(path);
  ASSERT_EQ(load.records.size(), 2u);
  expect_same_record(load.records[0], written[0]);
  EXPECT_TRUE(load.records[0].result.stacks.has_value());
  EXPECT_EQ(load.records[0].point.stacks, 3u);
  expect_same_record(load.records[1], written[1]);
  EXPECT_FALSE(load.records[1].result.stacks.has_value());
  EXPECT_EQ(load.records[1].point.stacks, 0u);
  std::remove(path.c_str());
}

// Audit block: present iff an auditor ran; a violated record keeps its
// first-violation token (with escaping), a clean audited record omits
// it, and unaudited records coexist byte-identically to pre-audit form.
TEST(JournalTest, AuditStatsRoundTripBitExactly) {
  const std::string path = temp_path("audit.fcj");
  const std::vector<par::SweepPoint> points = grid_points(0);
  ASSERT_GE(points.size(), 2u);

  std::vector<JournalRecord> written;
  {
    Journal journal = Journal::create(path, {"t", points.size(), 0xaad});
    JournalRecord violated = make_record(0, points[0]);
    audit::AuditStats stats;
    stats.mode = 2;
    stats.slots_audited = 95;
    stats.segments_audited = 241;
    stats.checks_run = 1023;
    stats.violations = 3;
    stats.fuel_violations = 1;
    stats.storage_violations = 1;
    stats.cap_violations = 0;
    stats.stacks_violations = 1;
    stats.engine_fallbacks = 1;
    stats.first_violation_slot = 40;
    stats.first_violation = "delivered \"integral\"\n";  // escaping
    violated.result.audit = stats;
    journal.append(violated);
    written.push_back(violated);

    JournalRecord clean = make_record(1, points[1]);
    audit::AuditStats clean_stats;
    clean_stats.mode = 1;
    clean_stats.slots_audited = 7;
    clean_stats.checks_run = 35;
    clean.result.audit = clean_stats;  // first_violation empty, slot npos
    journal.append(clean);
    written.push_back(clean);

    const JournalRecord unaudited = make_record(0, points[0]);
    journal.append(unaudited);  // duplicate index: dropped on load
  }

  const JournalLoad load = load_journal(path);
  ASSERT_EQ(load.records.size(), 2u);
  expect_same_record(load.records[0], written[0]);
  ASSERT_TRUE(load.records[0].result.audit.has_value());
  EXPECT_EQ(load.records[0].result.audit->first_violation,
            "delivered \"integral\"\n");
  expect_same_record(load.records[1], written[1]);
  ASSERT_TRUE(load.records[1].result.audit.has_value());
  EXPECT_EQ(load.records[1].result.audit->first_violation_slot, audit::npos);
  EXPECT_TRUE(load.records[1].result.audit->first_violation.empty());
  std::remove(path.c_str());
}

// Satellite: a torn tail across a record that carries an audit block —
// truncation at every byte offset of the final (audited) record drops
// exactly that record and keeps the earlier audited one intact.
TEST(JournalTest, TruncationAcrossAuditedFinalRecordRecovers) {
  const std::vector<par::SweepPoint> points = grid_points(0);
  ASSERT_GE(points.size(), 2u);
  const std::string path = temp_path("torn_audit.fcj");
  auto audited = [&](std::size_t k) {
    JournalRecord record = make_record(k, points[k]);
    audit::AuditStats stats;
    stats.mode = 2;
    stats.slots_audited = 10 + k;
    stats.checks_run = 50 + k;
    stats.violations = k;
    stats.fuel_violations = k;
    if (k != 0) {
      stats.first_violation_slot = 4;
      stats.first_violation = "fuel_integral";
    }
    record.result.audit = stats;
    return record;
  };
  {
    Journal journal = Journal::create(path, {"t", points.size(), 0x7a});
    journal.append(audited(0));
    journal.append(audited(1));
  }
  const std::string full = read_file(path);
  const std::string cut_file = path + ".cut";
  write_file(cut_file, full.substr(0, full.size() - 1));
  const std::size_t final_start = load_journal(cut_file).valid_bytes;
  ASSERT_LT(final_start, full.size());

  for (std::size_t cut = final_start; cut < full.size(); ++cut) {
    write_file(cut_file, full.substr(0, cut));
    const JournalLoad load = load_journal(cut_file);
    ASSERT_EQ(load.records.size(), 1u) << "cut=" << cut;
    ASSERT_EQ(load.torn_tail, cut != final_start) << "cut=" << cut;
    expect_same_record(load.records[0], audited(0));
  }
  std::remove(path.c_str());
  std::remove(cut_file.c_str());
}

// Satellite: a journal truncated at *every byte offset* of its final
// record loads the preceding records and reports the torn tail, across
// three different grid shapes.
TEST(JournalTest, TruncationAtEveryByteOffsetOfFinalRecordRecovers) {
  for (std::size_t shape = 0; shape < 3; ++shape) {
    const std::vector<par::SweepPoint> points = grid_points(shape);
    const std::string path =
        temp_path("torn_" + std::to_string(shape) + ".fcj");
    {
      Journal journal = Journal::create(path, {"t", points.size(), shape});
      for (std::size_t k = 0; k < points.size(); ++k) {
        journal.append(make_record(k, points[k]));
      }
    }
    const std::string full = read_file(path);
    const JournalLoad complete = load_journal(path);
    ASSERT_EQ(complete.records.size(), points.size());
    ASSERT_EQ(complete.valid_bytes, full.size());

    // Find where the final record starts: reload after dropping the
    // last byte — valid_bytes then names the final record's offset.
    std::string cut_file = path + ".cut";
    write_file(cut_file, full.substr(0, full.size() - 1));
    const std::size_t final_start = load_journal(cut_file).valid_bytes;
    ASSERT_LT(final_start, full.size());

    for (std::size_t cut = final_start; cut < full.size(); ++cut) {
      write_file(cut_file, full.substr(0, cut));
      const JournalLoad load = load_journal(cut_file);
      ASSERT_EQ(load.records.size(), points.size() - 1)
          << "shape=" << shape << " cut=" << cut;
      // A cut exactly on the record boundary leaves a *clean* shorter
      // journal; every later cut leaves a torn tail to drop.
      ASSERT_EQ(load.torn_tail, cut != final_start)
          << "shape=" << shape << " cut=" << cut;
      ASSERT_EQ(load.valid_bytes, final_start)
          << "shape=" << shape << " cut=" << cut;
      ASSERT_EQ(load.dropped_bytes, cut - final_start)
          << "shape=" << shape << " cut=" << cut;
    }
    std::remove(path.c_str());
    std::remove(cut_file.c_str());
  }
}

TEST(JournalTest, ChecksumCorruptionDropsTheRecordAndItsTail) {
  const std::vector<par::SweepPoint> points = grid_points(2);
  const std::string path = temp_path("corrupt.fcj");
  {
    Journal journal = Journal::create(path, {"t", points.size(), 9});
    for (std::size_t k = 0; k < points.size(); ++k) {
      journal.append(make_record(k, points[k]));
    }
  }
  std::string bytes = read_file(path);
  // Flip one payload byte inside the *second* record: find the second
  // "R " framing and damage a byte well past its prefix.
  const std::size_t first_nl = bytes.find("\nR ");
  ASSERT_NE(first_nl, std::string::npos);
  const std::size_t second_nl = bytes.find("\nR ", first_nl + 1);
  ASSERT_NE(second_nl, std::string::npos);
  const std::size_t second = second_nl + 1;
  bytes[second + 40] ^= 0x01;
  write_file(path, bytes);

  const JournalLoad load = load_journal(path);
  // Only the record before the corruption survives; everything from the
  // damaged record on is dropped as a torn tail.
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_TRUE(load.torn_tail);
  EXPECT_EQ(load.valid_bytes, second);
  expect_same_record(load.records[0], make_record(0, points[0]));
  std::remove(path.c_str());
}

TEST(JournalTest, OpenForAppendTruncatesTornTailAndContinues) {
  const std::vector<par::SweepPoint> points = grid_points(1);
  ASSERT_GE(points.size(), 3u);
  const std::string path = temp_path("resume.fcj");
  {
    Journal journal = Journal::create(path, {"t", points.size(), 4});
    journal.append(make_record(0, points[0]));
    journal.append(make_record(1, points[1]));
  }
  // Tear the second record in half.
  const std::string full = read_file(path);
  const std::size_t first_nl = full.find("\nR ");
  ASSERT_NE(first_nl, std::string::npos);
  const std::size_t second_nl = full.find("\nR ", first_nl + 1);
  ASSERT_NE(second_nl, std::string::npos);
  write_file(path, full.substr(0, second_nl + 1 + 25));

  const JournalLoad torn = load_journal(path);
  ASSERT_EQ(torn.records.size(), 1u);
  ASSERT_TRUE(torn.torn_tail);
  {
    Journal journal = Journal::open_for_append(path, torn.valid_bytes);
    journal.append(make_record(1, points[1]));
    journal.append(make_record(2, points[2]));
  }
  const JournalLoad healed = load_journal(path);
  EXPECT_FALSE(healed.torn_tail);
  ASSERT_EQ(healed.records.size(), 3u);
  expect_same_record(healed.records[0], make_record(0, points[0]));
  expect_same_record(healed.records[1], make_record(1, points[1]));
  expect_same_record(healed.records[2], make_record(2, points[2]));
  std::remove(path.c_str());
}

TEST(JournalTest, DuplicateIndicesKeepTheFirstRecord) {
  const std::vector<par::SweepPoint> points = grid_points(0);
  const std::string path = temp_path("dup.fcj");
  {
    Journal journal = Journal::create(path, {"t", points.size(), 2});
    JournalRecord original = make_record(0, points[0]);
    journal.append(original);
    JournalRecord shadow = make_record(0, points[0]);
    shadow.attempts = 99;
    journal.append(shadow);
  }
  const JournalLoad load = load_journal(path);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].attempts, make_record(0, points[0]).attempts);
  std::remove(path.c_str());
}

TEST(JournalTest, MissingFileAndGarbageHeaderThrow) {
  EXPECT_THROW((void)load_journal(temp_path("does_not_exist.fcj")),
               CsvError);
  const std::string path = temp_path("garbage.fcj");
  write_file(path, "not a journal header\nR 0000 junk\n");
  EXPECT_THROW((void)load_journal(path), CsvError);
  std::remove(path.c_str());
}

TEST(GridFingerprintTest, SensitiveToConfigPointsAndStormSize) {
  const sim::ExperimentConfig base = small_base();
  const std::vector<par::SweepPoint> points = grid_points(0);

  const std::uint64_t reference = grid_fingerprint(base, points, 12);
  EXPECT_EQ(grid_fingerprint(base, points, 12), reference);

  sim::ExperimentConfig other = base;
  other.rho = base.rho + 0.01;
  EXPECT_NE(grid_fingerprint(other, points, 12), reference);

  std::vector<par::SweepPoint> reordered = points;
  std::swap(reordered.front(), reordered.back());
  EXPECT_NE(grid_fingerprint(base, reordered, 12), reference);

  std::vector<par::SweepPoint> tweaked = points;
  tweaked[0].storm_seed += 1;
  EXPECT_NE(grid_fingerprint(base, tweaked, 12), reference);

  EXPECT_NE(grid_fingerprint(base, points, 13), reference);

  // Capping config participates only when enabled: a journal from a
  // capped sweep must not resume an uncapped one (or one with other
  // governor knobs), while the disabled spec leaves the print alone.
  sim::ExperimentConfig capped = base;
  capped.cap.enabled = true;
  const std::uint64_t capped_print = grid_fingerprint(capped, points, 12);
  EXPECT_NE(capped_print, reference);
  capped.cap.hysteresis_slots = 7;
  EXPECT_NE(grid_fingerprint(capped, points, 12), capped_print);

  sim::ExperimentConfig disabled_tweak = base;
  disabled_tweak.cap.hysteresis_slots = 7;  // inert while disabled
  EXPECT_EQ(grid_fingerprint(disabled_tweak, points, 12), reference);

  // Same contract for the multi-stack spec: enabled participates (count,
  // distribution and fade rates all matter), disabled stays inert.
  sim::ExperimentConfig stacked = base;
  stacked.stacks.enabled = true;
  stacked.stacks.count = 3;
  const std::uint64_t stacked_print = grid_fingerprint(stacked, points, 12);
  EXPECT_NE(stacked_print, reference);
  stacked.stacks.distribution = stacks::Distribution::Waterfill;
  EXPECT_NE(grid_fingerprint(stacked, points, 12), stacked_print);
  stacked.stacks.distribution = stacks::Distribution::Proportional;
  stacked.stacks.charge_fade_per_as = 1e-5;
  EXPECT_NE(grid_fingerprint(stacked, points, 12), stacked_print);

  sim::ExperimentConfig stacks_inert = base;
  stacks_inert.stacks.count = 5;  // inert while disabled
  stacks_inert.stacks.cycle_fade = 0.25;
  EXPECT_EQ(grid_fingerprint(stacks_inert, points, 12), reference);

  // Per-point stack axes participate too.
  std::vector<par::SweepPoint> stack_points = points;
  stack_points[0].stacks = 2;
  EXPECT_NE(grid_fingerprint(base, stack_points, 12), reference);
  std::vector<par::SweepPoint> dist_points = stack_points;
  dist_points[0].distribution = stacks::Distribution::Health;
  EXPECT_NE(grid_fingerprint(base, dist_points, 12),
            grid_fingerprint(base, stack_points, 12));

  // Audit spec participates when enabled — so a journal written with
  // auditing on cannot silently resume a sweep run with it off (or in
  // another mode), while audit-off knob tweaks stay inert.
  sim::ExperimentConfig audited = base;
  audited.audit.mode = audit::Mode::Strict;
  const std::uint64_t audited_print = grid_fingerprint(audited, points, 12);
  EXPECT_NE(audited_print, reference);
  audited.audit.mode = audit::Mode::Sample;
  const std::uint64_t sampled_print = grid_fingerprint(audited, points, 12);
  EXPECT_NE(sampled_print, audited_print);
  audited.audit.sample_period = 5;
  EXPECT_NE(grid_fingerprint(audited, points, 12), sampled_print);
  audited.audit.sample_period = 16;
  audited.audit.tamper_slot = 3;
  EXPECT_NE(grid_fingerprint(audited, points, 12), sampled_print);

  sim::ExperimentConfig audit_inert = base;
  audit_inert.audit.sample_period = 5;  // inert while mode is Off
  audit_inert.audit.tamper_slot = 3;
  EXPECT_EQ(grid_fingerprint(audit_inert, points, 12), reference);
}


// --- golden bytes -----------------------------------------------------------
// tests/resilience/data/journal_golden.fcj pins the encoded bytes of one
// record per shape. On a mismatch the test writes what it encoded to
// journal_golden.actual.fcj in its working directory; after a
// deliberate format change, review that file and copy it over the
// fixture.

std::vector<JournalRecord> golden_records() {
  par::SweepPoint point;
  point.policy = sim::PolicyKind::FcDpm;
  point.rho = 0.5;
  point.capacity = Coulomb(6.0);
  std::vector<JournalRecord> records;

  records.push_back(make_record(0, point));  // plain ok record

  JournalRecord failed = make_record(1, point);
  failed.ok = false;
  failed.attempts = 3;
  failed.error = {PointErrorKind::solver_diverged,
                  "no root in [0, 1]: \"bisect\"\n\tslot\\7 \x01"};
  records.push_back(failed);

  JournalRecord stack_point = make_record(2, point);
  stack_point.point.stacks = 2;
  stack_point.point.distribution = stacks::Distribution::Waterfill;
  records.push_back(stack_point);

  JournalRecord capped = make_record(3, point);
  cap::CapStats cap;
  cap.slots_seen = 112;
  cap.slots_capped = 51;
  cap.level_reductions = 3;
  cap.level_restorations = 2;
  cap.energy_deferred = Joule(1.0 / 3.0);
  cap.time_deferred = Seconds(1e-300);
  cap.time_at_level_s = {-0.0, 5e-324, 0.1 + 0.2};
  capped.result.cap = cap;
  records.push_back(capped);

  JournalRecord stacked = make_record(4, point);
  stacks::StacksStats fleet;
  fleet.distribution = stacks::Distribution::Health;
  fleet.stacks = {{1.0 / 3.0, 5e-324, 7, 0.1 + 0.2},
                  {-0.0, 3.141592653589793, 0, 0.0},
                  {42.0, 1e300, 12, 2.2250738585072014e-308}};
  stacked.result.stacks = fleet;
  records.push_back(stacked);

  JournalRecord violated = make_record(5, point);
  audit::AuditStats audit;
  audit.mode = 2;
  audit.slots_audited = 95;
  audit.segments_audited = 241;
  audit.checks_run = 1023;
  audit.violations = 3;
  audit.fuel_violations = 1;
  audit.storage_violations = 1;
  audit.stacks_violations = 1;
  audit.engine_fallbacks = 1;
  audit.first_violation_slot = 40;
  audit.first_violation = "delivered \"integral\"\n";
  violated.result.audit = audit;
  records.push_back(violated);

  JournalRecord clean = make_record(6, point);
  audit::AuditStats clean_audit;
  clean_audit.mode = 1;
  clean_audit.slots_audited = 7;
  clean_audit.segments_audited = 28;
  clean_audit.checks_run = 86;
  clean.result.audit = clean_audit;
  records.push_back(clean);
  return records;
}

TEST(JournalGolden, EncodesEveryBlockByteForByte) {
  const std::vector<JournalRecord> records = golden_records();
  const std::string path = temp_path("golden.fcj");
  {
    Journal journal =
        Journal::create(path, {"golden", records.size(), 0x601d3fcull});
    journal.append(records);
  }
  const std::string encoded = read_file(path);
  const std::string fixture = read_file(FCDPM_JOURNAL_GOLDEN);
  if (encoded != fixture) {
    write_file("journal_golden.actual.fcj", encoded);
    ADD_FAILURE() << "encoded journal differs from " << FCDPM_JOURNAL_GOLDEN
                  << "; what was encoded is in journal_golden.actual.fcj";
  }

  // Each fixture line after the header is "R <len> <sum> <payload>".
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < fixture.size();) {
    const std::size_t end = fixture.find('\n', pos);
    lines.push_back(fixture.substr(pos, end - pos));
    pos = end == std::string::npos ? fixture.size() : end + 1;
  }
  ASSERT_EQ(lines.size(), records.size() + 1);
  for (std::size_t k = 0; k < records.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "record=" << k);
    ASSERT_GT(lines[k + 1].size(), 28u);
    EXPECT_EQ(record_to_json(records[k]), lines[k + 1].substr(28));
  }

  const JournalLoad load = load_journal(FCDPM_JOURNAL_GOLDEN);
  EXPECT_FALSE(load.torn_tail);
  ASSERT_EQ(load.records.size(), records.size());
  for (std::size_t k = 0; k < records.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "record=" << k);
    expect_same_record(load.records[k], records[k]);
  }
  std::remove(path.c_str());
}


// --- property: every block round-trips and every field is compared ----------

/// Doubles that stress a text round-trip: signed zero, subnormals, the
/// extremes, inexact fractions, infinities (scalars only: list entries
/// must be finite) and random finite bit patterns.
double hostile_double(std::mt19937_64& rng, bool finite) {
  static constexpr double kHostile[] = {
      -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 0.1 + 0.2, 1.0 / 3.0,
      1.7976931348623157e308, -1e-300, 42.0};
  if (!finite && rng() % 8 == 0) {
    return rng() % 2 == 0 ? HUGE_VAL : -HUGE_VAL;
  }
  if (rng() % 2 == 0) {
    return kHostile[rng() % std::size(kHostile)];
  }
  double value = 0.0;
  do {
    value = std::bit_cast<double>(rng());
  } while (!std::isfinite(value));
  return value;
}

/// Short text with characters the journal must escape.
std::string hostile_text(std::mt19937_64& rng) {
  static constexpr char kChars[] = "ab \"\\/\n\t\x01\x1f";
  std::string text;
  for (std::size_t n = rng() % 8; n > 0; --n) {
    text += kChars[rng() % (sizeof(kChars) - 1)];
  }
  return text;
}

sim::SimulationResult random_result(std::mt19937_64& rng) {
  const auto scalar = [&] { return hostile_double(rng, false); };
  sim::SimulationResult r;
  r.trace_name = hostile_text(rng);
  r.dpm_policy = hostile_text(rng);
  r.fc_policy = hostile_text(rng);
  r.totals.fuel = Coulomb(scalar());
  r.totals.delivered_energy = Joule(scalar());
  r.totals.load_energy = Joule(scalar());
  r.totals.bled = Coulomb(scalar());
  r.totals.unserved = Coulomb(scalar());
  r.totals.duration = Seconds(scalar());
  r.slots = rng();
  r.sleeps = rng();
  r.latency_added = Seconds(scalar());
  r.storage_initial = Coulomb(scalar());
  r.storage_end = Coulomb(scalar());
  r.storage_min = Coulomb(scalar());
  r.storage_max = Coulomb(scalar());
  if (rng() % 2 == 0) {
    cap::CapStats c;
    c.slots_seen = rng();
    c.slots_capped = rng();
    c.level_reductions = rng();
    c.level_restorations = rng();
    c.budget_violations = rng();
    c.energy_deferred = Joule(scalar());
    c.time_deferred = Seconds(scalar());
    for (std::size_t n = rng() % 7; n > 0; --n) {
      c.time_at_level_s.push_back(hostile_double(rng, true));
    }
    r.cap = c;
  }
  if (const std::size_t n = rng() % 6; n > 0) {
    stacks::StacksStats s;
    s.distribution = static_cast<stacks::Distribution>(rng() % 3);
    for (std::size_t i = 0; i < n; ++i) {
      s.stacks.push_back({hostile_double(rng, true),
                          hostile_double(rng, true), rng(),
                          hostile_double(rng, true)});
    }
    r.stacks = s;
  }
  if (rng() % 2 == 0) {
    audit::AuditStats a;
    a.mode = static_cast<int>(rng() % 3);
    a.slots_audited = rng();
    a.segments_audited = rng();
    a.checks_run = rng();
    a.violations = rng();
    a.fuel_violations = rng();
    a.storage_violations = rng();
    a.cap_violations = rng();
    a.stacks_violations = rng();
    a.engine_fallbacks = rng();
    if (rng() % 2 == 0) {
      a.first_violation_slot = rng();
      a.first_violation = "x" + hostile_text(rng);
    }
    r.audit = a;
  }
  return r;
}

double nudged(double value) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(value) ^ 1u);
}
template <typename Tag>
void nudge(detail::Quantity<Tag>& value) {
  value = detail::Quantity<Tag>(nudged(value.value()));
}

/// Adds an empty block or drops a present one.
template <typename Block>
bool toggle(std::optional<Block>& block) {
  if (block.has_value()) {
    block.reset();
  } else {
    block.emplace();
  }
  return true;
}

/// One edit per result field (and per block's presence), written out
/// independently of the journal's field lists. Each returns false when
/// the field is absent from the given result.
using Mutation = std::function<bool(sim::SimulationResult&)>;
std::vector<std::pair<std::string, Mutation>> field_mutations() {
  using R = sim::SimulationResult;
  const auto mid = [](R& r) -> stacks::StackTotals& {
    return r.stacks->stacks[r.stacks->stacks.size() / 2];
  };
  return {
      {"trace", [](R& r) { return r.trace_name += "t", true; }},
      {"dpm", [](R& r) { return r.dpm_policy += "d", true; }},
      {"fc", [](R& r) { return r.fc_policy += "f", true; }},
      {"fuel", [](R& r) { return nudge(r.totals.fuel), true; }},
      {"delivered_j",
       [](R& r) { return nudge(r.totals.delivered_energy), true; }},
      {"load_j", [](R& r) { return nudge(r.totals.load_energy), true; }},
      {"bled", [](R& r) { return nudge(r.totals.bled), true; }},
      {"unserved", [](R& r) { return nudge(r.totals.unserved), true; }},
      {"duration", [](R& r) { return nudge(r.totals.duration), true; }},
      {"slots", [](R& r) { return ++r.slots, true; }},
      {"sleeps", [](R& r) { return ++r.sleeps, true; }},
      {"latency", [](R& r) { return nudge(r.latency_added), true; }},
      {"storage_initial", [](R& r) { return nudge(r.storage_initial), true; }},
      {"storage_end", [](R& r) { return nudge(r.storage_end), true; }},
      {"storage_min", [](R& r) { return nudge(r.storage_min), true; }},
      {"storage_max", [](R& r) { return nudge(r.storage_max), true; }},
      {"cap block", [](R& r) { return toggle(r.cap); }},
      {"cap_slots", [](R& r) { return r.cap && (++r.cap->slots_seen, true); }},
      {"cap_capped",
       [](R& r) { return r.cap && (++r.cap->slots_capped, true); }},
      {"cap_reductions",
       [](R& r) { return r.cap && (++r.cap->level_reductions, true); }},
      {"cap_restorations",
       [](R& r) {
         return r.cap && (++r.cap->level_restorations, true);
       }},
      {"cap_violations",
       [](R& r) { return r.cap && (++r.cap->budget_violations, true); }},
      {"cap_deferred_j",
       [](R& r) { return r.cap && (nudge(r.cap->energy_deferred), true); }},
      {"cap_deferred_s",
       [](R& r) { return r.cap && (nudge(r.cap->time_deferred), true); }},
      {"cap_levels entry",
       [](R& r) {
         if (!r.cap || r.cap->time_at_level_s.empty()) {
           return false;
         }
         double& level = r.cap->time_at_level_s.back();
         level = nudged(level);
         return true;
       }},
      {"cap_levels length",
       [](R& r) {
         return r.cap && (r.cap->time_at_level_s.push_back(0.0), true);
       }},
      {"stacks block", [](R& r) { return toggle(r.stacks); }},
      {"stk_n",
       [](R& r) {
         return r.stacks && (r.stacks->stacks.emplace_back(), true);
       }},
      {"stk_dist",
       [](R& r) {
         if (!r.stacks) {
           return false;
         }
         const int next = (static_cast<int>(r.stacks->distribution) + 1) % 3;
         r.stacks->distribution = static_cast<stacks::Distribution>(next);
         return true;
       }},
      {"stk_fuel",
       [=](R& r) {
         return r.stacks && (mid(r).fuel_as = nudged(mid(r).fuel_as), true);
       }},
      {"stk_delivered",
       [=](R& r) {
         return r.stacks &&
                (mid(r).delivered_as = nudged(mid(r).delivered_as), true);
       }},
      {"stk_startups",
       [=](R& r) { return r.stacks && (++mid(r).startups, true); }},
      {"stk_wear",
       [=](R& r) {
         return r.stacks && (mid(r).wear = nudged(mid(r).wear), true);
       }},
      {"audit block", [](R& r) { return toggle(r.audit); }},
      {"aud_mode",
       [](R& r) {
         return r.audit && (r.audit->mode = (r.audit->mode + 1) % 3, true);
       }},
      {"aud_slots",
       [](R& r) { return r.audit && (++r.audit->slots_audited, true); }},
      {"aud_segments",
       [](R& r) { return r.audit && (++r.audit->segments_audited, true); }},
      {"aud_checks",
       [](R& r) { return r.audit && (++r.audit->checks_run, true); }},
      {"aud_violations",
       [](R& r) { return r.audit && (++r.audit->violations, true); }},
      {"aud_fuel",
       [](R& r) { return r.audit && (++r.audit->fuel_violations, true); }},
      {"aud_storage",
       [](R& r) {
         return r.audit && (++r.audit->storage_violations, true);
       }},
      {"aud_cap",
       [](R& r) { return r.audit && (++r.audit->cap_violations, true); }},
      {"aud_stacks",
       [](R& r) { return r.audit && (++r.audit->stacks_violations, true); }},
      {"aud_fallbacks",
       [](R& r) { return r.audit && (++r.audit->engine_fallbacks, true); }},
      {"aud_first_slot",
       [](R& r) {
         return r.audit && (++r.audit->first_violation_slot, true);
       }},
      {"aud_first",
       [](R& r) { return r.audit && (r.audit->first_violation += "y", true); }},
  };
}

TEST(JournalProperty, EveryBlockRoundTripsAndEveryFieldIsCompared) {
  std::mt19937_64 rng(0x5eed17);
  par::SweepPoint point;
  point.policy = sim::PolicyKind::FcDpm;
  std::vector<JournalRecord> written(300);
  for (std::size_t k = 0; k < written.size(); ++k) {
    written[k].index = k;
    written[k].point = point;
    written[k].result = random_result(rng);
  }
  const std::string path = temp_path("property.fcj");
  {
    Journal journal = Journal::create(path, {"property", written.size(), 1});
    journal.append(written);
  }
  const JournalLoad load = load_journal(path);
  ASSERT_FALSE(load.torn_tail);
  ASSERT_EQ(load.records.size(), written.size());

  const auto mutations = field_mutations();
  std::map<std::string, std::size_t> applied;
  for (std::size_t k = 0; k < written.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "record=" << k);
    const sim::SimulationResult& original = written[k].result;
    expect_same_record(load.records[k], written[k]);
    EXPECT_TRUE(same_observable(load.records[k].result, original));
    for (const auto& [field, mutate] : mutations) {
      sim::SimulationResult changed = original;
      if (mutate(changed)) {
        ++applied[field];
        EXPECT_FALSE(same_observable(original, changed)) << field;
        EXPECT_FALSE(same_observable(changed, original)) << field;
      }
    }
  }
  for (const auto& [field, mutate] : mutations) {
    EXPECT_GT(applied[field], 10u) << field << " was never exercised";
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fcdpm::resilience
