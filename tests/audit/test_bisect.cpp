// audit::bisect — binary-searching the first slot where the batched
// engine diverges from the reference engine, and dumping a minimized repro.
#include "audit/bisect.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/contracts.hpp"
#include "sim/experiments.hpp"

namespace fcdpm::audit {
namespace {

sim::ExperimentConfig short_config() {
  sim::ExperimentConfig config = sim::experiment2_config();
  config.trace = config.trace.truncated(Seconds(300.0));
  return config;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_prefix(const char* name) {
  return ::testing::TempDir() + "fcdpm_bisect_" + name;
}

TEST(Bisect, HealthyEnginesDoNotDiverge) {
  const BisectReport report =
      bisect_point(short_config(), sim::PolicyKind::FcDpm);
  EXPECT_FALSE(report.diverged);
  EXPECT_EQ(report.first_divergent_slot, npos);
  EXPECT_EQ(report.runs, 1u);  // one full-trace engine pair settles it
}

TEST(Bisect, PinpointsThePerturbedSlot) {
  const sim::ExperimentConfig config = short_config();
  BisectOptions options;
  options.perturb_slot = 17;
  const BisectReport report =
      bisect_point(config, sim::PolicyKind::FcDpm, options);

  ASSERT_TRUE(report.diverged);
  EXPECT_EQ(report.first_divergent_slot, 17u);
  // O(log n) probes plus the initial full-trace pair.
  EXPECT_GT(report.runs, 1u);
  EXPECT_LT(report.runs, 24u);
  // The minimal divergent prefix genuinely disagrees...
  EXPECT_FALSE(same_run_bits(report.reference, report.batched));
  // ...and the entry state is the agreed-on state before the slot.
  EXPECT_GE(report.entry_fuel_as, 0.0);
  EXPECT_GE(report.entry_storage_as, 0.0);
}

TEST(Bisect, RefusesACappedConfig) {
  // A governed run never reaches the batch loop, so both sides of the
  // search would be the reference loop.
  sim::ExperimentConfig config = short_config();
  config.cap.enabled = true;
  EXPECT_THROW((void)bisect_point(config, sim::PolicyKind::FcDpm),
               PreconditionError);
}

TEST(Bisect, FirstSlotPerturbationIsFound) {
  BisectOptions options;
  options.perturb_slot = 0;
  const BisectReport report =
      bisect_point(short_config(), sim::PolicyKind::FcDpm, options);
  ASSERT_TRUE(report.diverged);
  EXPECT_EQ(report.first_divergent_slot, 0u);
}

TEST(Bisect, WriteReproEmitsJsonAndTraceWindow) {
  const sim::ExperimentConfig config = short_config();
  BisectOptions options;
  options.perturb_slot = 11;
  const BisectReport report =
      bisect_point(config, sim::PolicyKind::FcDpm, options);
  ASSERT_TRUE(report.diverged);

  const std::string prefix = temp_prefix("repro");
  write_repro(prefix, config, sim::PolicyKind::FcDpm, report);

  const std::string json = read_file(prefix + ".json");
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"first_divergent_slot\": 11"), std::string::npos);
  EXPECT_NE(json.find("\"entry\""), std::string::npos);
  EXPECT_NE(json.find("\"fuel_as\""), std::string::npos);
  EXPECT_NE(json.find("\"storage_as\""), std::string::npos);
  EXPECT_NE(json.find("\"reference\""), std::string::npos);
  EXPECT_NE(json.find("\"batched\""), std::string::npos);
  EXPECT_NE(json.find("_bits"), std::string::npos);  // raw IEEE patterns

  const std::string window = read_file(prefix + "_window.csv");
  ASSERT_FALSE(window.empty());
  // At least a header and one slot row.
  EXPECT_NE(window.find('\n'), std::string::npos);

  std::remove((prefix + ".json").c_str());
  std::remove((prefix + "_window.csv").c_str());
}

}  // namespace
}  // namespace fcdpm::audit
