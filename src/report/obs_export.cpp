#include "report/obs_export.hpp"

#include "common/atomic_file.hpp"
#include "common/text.hpp"
#include "obs/trace_sink.hpp"

namespace fcdpm::report {

CsvDocument metrics_to_csv(const obs::MetricsRegistry& metrics) {
  CsvDocument doc;
  doc.header = {"name", "type", "count", "value",
                "min",  "max",  "p50",   "p95",   "p99"};
  for (const obs::MetricRow& row : metrics.rows()) {
    doc.rows.push_back(
        {row.name, row.type, std::to_string(row.count),
         format_general(row.value, 12), format_general(row.min, 12),
         format_general(row.max, 12), format_general(row.p50, 12),
         format_general(row.p95, 12), format_general(row.p99, 12)});
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
           "\",\"count\":" + std::to_string(row.count) +
           ",\"value\":" + format_general(row.value, 12) +
           ",\"min\":" + format_general(row.min, 12) +
           ",\"max\":" + format_general(row.max, 12) +
           ",\"p50\":" + format_general(row.p50, 12) +
           ",\"p95\":" + format_general(row.p95, 12) +
           ",\"p99\":" + format_general(row.p99, 12) + "}";
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
