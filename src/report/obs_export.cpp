#include "report/obs_export.hpp"

#include <cstdio>

#include "common/atomic_file.hpp"
#include "obs/trace_sink.hpp"

namespace fcdpm::report {

namespace {

std::string format_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

std::string format_count(std::uint64_t value) {
  return std::to_string(value);
}

}  // namespace

CsvDocument metrics_to_csv(const obs::MetricsRegistry& metrics) {
  CsvDocument doc;
  doc.header = {"name", "type", "count", "value",
                "min",  "max",  "p50",   "p95",   "p99"};
  for (const obs::MetricRow& row : metrics.rows()) {
    doc.rows.push_back({row.name, row.type, format_count(row.count),
                        format_double(row.value), format_double(row.min),
                        format_double(row.max), format_double(row.p50),
                        format_double(row.p95), format_double(row.p99)});
  }
  return doc;
}

std::string metrics_to_json(const obs::MetricsRegistry& metrics) {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const obs::MetricRow& row : metrics.rows()) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"name\":\"" + obs::json_escape(row.name.c_str()) +
           "\",\"type\":\"" + row.type +
           "\",\"count\":" + format_count(row.count) +
           ",\"value\":" + format_double(row.value) +
           ",\"min\":" + format_double(row.min) +
           ",\"max\":" + format_double(row.max) +
           ",\"p50\":" + format_double(row.p50) +
           ",\"p95\":" + format_double(row.p95) +
           ",\"p99\":" + format_double(row.p99) + "}";
  }
  out += "]}\n";
  return out;
}

void write_metrics_file(const std::string& path,
                        const obs::MetricsRegistry& metrics) {
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  if (json) {
    write_file_atomic(path, metrics_to_json(metrics));
    return;
  }
  write_csv_file(path, metrics_to_csv(metrics));
}

}  // namespace fcdpm::report
