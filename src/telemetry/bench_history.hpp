// Bench-history regression ledger.
//
// Every BENCH_*.json the repo produces is a single-run artifact: it
// says how fast *this* build is, not whether the number drifted. The
// ledger (BENCH_HISTORY.jsonl) gives benches a memory — one
// schema-versioned row appended per bench run (git SHA, env capture,
// headline metrics) — and `check_regression` compares a fresh row
// against the median of the trailing window, direction-aware, so CI
// fails when a headline metric regresses past tolerance instead of
// silently recording the decay.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.hpp"

namespace fcdpm::telemetry {

/// Schema tag written into every ledger row.
inline constexpr const char* kHistorySchema = "fcdpm.bench_history.v1";

/// One ledger row. `env` and `metrics` preserve insertion order so a
/// row serializes deterministically.
struct HistoryRow {
  std::string kind;       ///< "core", "sweep", ... (bench family)
  std::string timestamp;  ///< ISO-8601 UTC, supplied by the caller
  std::string git_sha;    ///< empty when unknown
  std::string source;     ///< bench JSON filename the row came from
  std::vector<std::pair<std::string, std::string>> env;
  std::vector<std::pair<std::string, double>> metrics;

  [[nodiscard]] const double* metric(const std::string& name) const noexcept {
    for (const auto& [key, value] : metrics) {
      if (key == name) {
        return &value;
      }
    }
    return nullptr;
  }
};

/// Build a ledger row from a parsed BENCH_*.json document. Kind is
/// detected from the document's "schema" field ("fcdpm.bench.core.v2"
/// -> "core"); documents without one but with sweep headline fields
/// ("points_per_s") are "sweep". Returns false (with `error` set) when
/// the document matches no known bench family.
[[nodiscard]] bool make_history_row(const json::Value& bench,
                                    const std::string& source_name,
                                    HistoryRow& out, std::string& error);

/// One JSON object, no trailing newline.
[[nodiscard]] std::string history_row_to_json(const HistoryRow& row);

/// Parse one ledger line. Unknown schema versions and malformed lines
/// return false.
[[nodiscard]] bool parse_history_row(const std::string& line, HistoryRow& out);

/// Load every well-formed row of a ledger file; rows that fail to parse
/// are counted in `skipped` (a ledger survives a torn tail the same way
/// the resilience journal does). A missing file is an empty history.
[[nodiscard]] std::vector<HistoryRow> load_history(const std::string& path,
                                                   std::size_t* skipped =
                                                       nullptr);

/// Append one row to the ledger (plain O_APPEND-style write; the row is
/// a single line so concurrent CI jobs at worst interleave whole rows).
/// Returns false when the file cannot be opened or written.
[[nodiscard]] bool append_history(const std::string& path,
                                  const HistoryRow& row);

/// Metric directions the checker understands. Metrics not listed here
/// are recorded but never gated.
enum class Direction { HigherIsBetter, LowerIsBetter };

/// Direction for a known headline metric; false for unknown names.
[[nodiscard]] bool metric_direction(const std::string& name, Direction& out);

struct CheckOptions {
  /// Fractional tolerance: a higher-is-better metric regresses when
  /// value < baseline * (1 - tolerance); lower-is-better when
  /// value > baseline * (1 + tolerance).
  double tolerance = 0.15;
  /// Baseline = median over at most this many most-recent rows of the
  /// same kind.
  std::size_t window = 8;
  /// When non-empty, only these metrics are gated.
  std::vector<std::string> metrics;
};

struct MetricCheck {
  std::string name;
  double value = 0.0;
  double baseline = 0.0;  ///< median of the trailing window
  std::size_t samples = 0;
  Direction direction = Direction::HigherIsBetter;
  bool regressed = false;
};

struct CheckResult {
  bool ok = true;  ///< no gated metric regressed
  /// One entry per gated metric that had >= 1 baseline sample.
  std::vector<MetricCheck> checks;
};

/// Compare `row` against the trailing window of same-kind rows in
/// `history`. A metric with no history samples is not gated (first run
/// always passes).
[[nodiscard]] CheckResult check_regression(
    const std::vector<HistoryRow>& history, const HistoryRow& row,
    const CheckOptions& options);

}  // namespace fcdpm::telemetry
