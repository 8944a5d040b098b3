// Export of an obs::MetricsRegistry snapshot: CSV (one row per
// instrument, for spreadsheets and the CLI's --metrics-out) and a JSON
// object (for dashboards). The registry itself stays dependency-free;
// serialization lives here with the other report writers.
#pragma once

#include <string>

#include "common/csv.hpp"
#include "obs/metrics.hpp"

namespace fcdpm::report {

/// Columns, in this fixed order: name, type, count, value, min, max,
/// p50, p95, p99. `value` is the counter total / gauge last /
/// histogram mean. Rows are sorted by (type, name) — the ordering is
/// part of the export contract: two registries holding the same
/// instrument values serialize byte-identically regardless of the
/// order the instruments were created or updated in
/// (tests/report/test_obs_export.cpp holds it).
[[nodiscard]] CsvDocument metrics_to_csv(const obs::MetricsRegistry& metrics);

/// `{"metrics":[{"name":...,"type":...,...},...]}`, rows sorted by
/// (type, name) and keys in the same fixed order as the CSV columns —
/// byte-identical output for identical registry contents.
[[nodiscard]] std::string metrics_to_json(const obs::MetricsRegistry& metrics);

/// Write the CSV form to `path` (.json extension switches to JSON).
/// Throws CsvError when the file cannot be created.
void write_metrics_file(const std::string& path,
                        const obs::MetricsRegistry& metrics);

}  // namespace fcdpm::report
