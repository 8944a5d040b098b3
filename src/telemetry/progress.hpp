// Snapshot serialization: the JSONL progress stream written by
// `fcdpm_cli sweep --progress-out`, and the one-line human progress
// string for stderr.
#pragma once

#include <string>

#include "telemetry/sweep_telemetry.hpp"

namespace fcdpm::telemetry {

/// One self-contained JSON object (no trailing newline) per snapshot.
/// Schema "fcdpm.sweep_progress.v1": every field present on every
/// line, numbers via %.12g (these are derived rates/latencies, not
/// simulation results), per-worker rows under "workers".
[[nodiscard]] std::string snapshot_to_json(const SweepSnapshot& snap);

/// Compact single-line progress string for a terminal, e.g.
///   `sweep 42/360 (11.7%)  123.4 pt/s  eta 2.6s  p95 812us`.
/// No trailing newline; the caller decides between '\r' and '\n'.
[[nodiscard]] std::string progress_line(const SweepSnapshot& snap);

}  // namespace fcdpm::telemetry
