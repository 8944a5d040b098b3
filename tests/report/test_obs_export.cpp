#include "report/obs_export.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/csv.hpp"

namespace fcdpm::report {
namespace {

obs::MetricsRegistry sample_registry() {
  obs::MetricsRegistry registry;
  registry.counter("core.solves").increment(5.0);
  registry.gauge("power.storage_charge_As").set(4.5);
  registry.histogram("dpm.predictor_abs_error_s").observe(0.5);
  registry.histogram("dpm.predictor_abs_error_s").observe(1.5);
  return registry;
}

TEST(ObsExport, CsvHasHeaderAndOneRowPerInstrument) {
  const CsvDocument doc = metrics_to_csv(sample_registry());
  // The column order is part of the export contract (obs_export.hpp).
  ASSERT_EQ(doc.header.size(), 9u);
  EXPECT_EQ(doc.header[0], "name");
  EXPECT_EQ(doc.header[3], "value");
  EXPECT_EQ(doc.header[7], "p95");
  EXPECT_EQ(doc.header[8], "p99");
  ASSERT_EQ(doc.rows.size(), 3u);
  EXPECT_EQ(doc.rows[0][0], "core.solves");
  EXPECT_EQ(doc.rows[0][1], "counter");
  EXPECT_EQ(doc.rows[0][3], "5");
  EXPECT_EQ(doc.rows[1][1], "gauge");
  EXPECT_EQ(doc.rows[2][1], "histogram");
  EXPECT_EQ(doc.rows[2][2], "2");
}

TEST(ObsExport, JsonContainsEveryInstrument) {
  const std::string json = metrics_to_json(sample_registry());
  EXPECT_EQ(json.rfind("{\"metrics\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"core.solves\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(ObsExport, IdenticalRegistriesSerializeByteIdentically) {
  // Two registries populated the same way but in different insertion
  // orders: rows() sorts by (type, name), so both exports — CSV and
  // JSON — must come out byte-for-byte equal. This is the stability
  // contract CI diffs and the bench-history ledger lean on.
  obs::MetricsRegistry a;
  a.counter("core.solves").increment(5.0);
  a.gauge("power.storage_charge_As").set(4.5);
  a.histogram("dpm.predictor_abs_error_s").observe(0.5);
  a.histogram("dpm.predictor_abs_error_s").observe(1.5);

  obs::MetricsRegistry b;
  b.histogram("dpm.predictor_abs_error_s").observe(0.5);
  b.gauge("power.storage_charge_As").set(4.5);
  b.counter("core.solves").increment(5.0);
  b.histogram("dpm.predictor_abs_error_s").observe(1.5);

  EXPECT_EQ(metrics_to_json(a), metrics_to_json(b));
  std::ostringstream csv_a;
  std::ostringstream csv_b;
  write_csv(csv_a, metrics_to_csv(a));
  write_csv(csv_b, metrics_to_csv(b));
  EXPECT_EQ(csv_a.str(), csv_b.str());
}

TEST(ObsExport, EmptyRegistrySerializes) {
  const obs::MetricsRegistry registry;
  EXPECT_TRUE(metrics_to_csv(registry).rows.empty());
  EXPECT_EQ(metrics_to_json(registry), "{\"metrics\":[]}\n");
}

}  // namespace
}  // namespace fcdpm::report
