#include "report/sweep_export.hpp"

#include "common/atomic_file.hpp"
#include "common/sweep_counters.hpp"
#include "common/text.hpp"
#include "obs/trace_sink.hpp"

namespace fcdpm::report {

namespace {

// Field writers. Each `key` carries its separator, quotes and colon
// (",\"rho\":"), so a field is one append with no temporary string.

/// Result values: 17 significant digits reproduce any binary64 bit
/// pattern, so bitwise-equal results give byte-equal rows.
void exact(std::string& out, const char* key, double value) {
  out += key;
  append_general(out, value, 17);
}

/// Timings and derived rates: 12 significant digits.
void rounded(std::string& out, const char* key, double value) {
  out += key;
  append_general(out, value, 12);
}

template <typename Integer>
void integer(std::string& out, const char* key, Integer value) {
  out += key;
  append_integer(out, value);
}

void flag(std::string& out, const char* key, bool value) {
  out += key;
  out += value ? "true" : "false";
}

void text(std::string& out, const char* key, const std::string& value) {
  out += key;
  out += '"';
  out += obs::json_escape(value.c_str());
  out += '"';
}

void append_row(std::string& out, const SweepPointRow& row) {
  text(out, "{\"policy\":", row.policy);
  exact(out, ",\"rho\":", row.rho);
  exact(out, ",\"capacity\":", row.capacity);
  integer(out, ",\"storm_seed\":", row.storm_seed);
  flag(out, ",\"ok\":", row.ok);
  if (!row.error.empty()) {
    text(out, ",\"error\":", row.error);
  }
  integer(out, ",\"attempts\":", row.attempts);
  flag(out, ",\"replayed\":", row.replayed);
  if (row.ok) {
    exact(out, ",\"fuel\":", row.fuel);
    exact(out, ",\"bled\":", row.bled);
    exact(out, ",\"unserved\":", row.unserved);
    exact(out, ",\"duration\":", row.duration);
    exact(out, ",\"storage_end\":", row.storage_end);
    exact(out, ",\"latency\":", row.latency);
    integer(out, ",\"slots\":", row.slots);
    integer(out, ",\"sleeps\":", row.sleeps);
    if (row.cap_enabled) {
      integer(out, ",\"capped_slots\":", row.capped_slots);
      integer(out, ",\"cap_violations\":", row.cap_violations);
      exact(out, ",\"cap_deferred_j\":", row.cap_deferred_j);
      exact(out, ",\"cap_deferred_s\":", row.cap_deferred_s);
    }
    if (row.stacks_enabled) {
      integer(out, ",\"stacks\":", row.stacks);
      text(out, ",\"distribution\":", row.distribution);
      integer(out, ",\"stack_startups\":", row.stack_startups);
      exact(out, ",\"stack_max_wear\":", row.stack_max_wear);
      out += ",\"stack_fuel\":[";
      for (std::size_t k = 0; k < row.stack_fuel.size(); ++k) {
        exact(out, k == 0 ? "" : ",", row.stack_fuel[k]);
      }
      out += ']';
    }
    if (row.audit_enabled) {
      integer(out, ",\"audit_slots\":", row.audit_slots);
      integer(out, ",\"audit_checks\":", row.audit_checks);
      integer(out, ",\"audit_violations\":", row.audit_violations);
      integer(out, ",\"engine_fallbacks\":", row.engine_fallbacks);
      if (!row.audit_first.empty()) {
        text(out, ",\"audit_first\":", row.audit_first);
      }
    }
  }
  out += '}';
}

void append_resilience(std::string& out, const SweepResilienceReport& r) {
  integer(out, ",\"resilience\":{\"scheduled\":", r.scheduled);
  integer(out, ",\"replayed\":", r.replayed);
  integer(out, ",\"retries\":", r.retries);
  integer(out, ",\"quarantined\":", r.quarantined);
  integer(out, ",\"rounds\":", r.rounds);
  integer(out, ",\"spot_checks\":", r.spot_checks);
  flag(out, ",\"torn_tail_recovered\":", r.torn_tail_recovered);
  integer(out, ",\"torn_bytes_dropped\":", r.torn_bytes_dropped);
  integer(out, ",\"watchdog_stalls\":", r.watchdog_stalls);
  integer(out, ",\"max_retries\":", r.max_retries);
  integer(out, ",\"point_deadline_slots\":", r.point_deadline_slots);
  if (r.cap_enabled) {
    integer(out, ",\"capped_ok\":", r.capped_ok);
  }
  out += '}';
}

void append_telemetry(std::string& out, const TelemetryReport& t) {
  integer(out, ",\"telemetry\":{\"snapshots\":", t.snapshots);
  append_sweep_counters(out, t);
  rounded(out, ",\"points_per_s\":", t.throughput_points_per_s);
  rounded(out, ",\"wall_p50_us\":", t.wall_p50_us);
  rounded(out, ",\"wall_p95_us\":", t.wall_p95_us);
  rounded(out, ",\"wall_p99_us\":", t.wall_p99_us);
  rounded(out, ",\"wall_max_us\":", t.wall_max_us);
  rounded(out, ",\"worker_skew\":", t.worker_skew);
  out += ",\"workers\":[";
  for (std::size_t k = 0; k < t.workers.size(); ++k) {
    const TelemetryWorkerRow& w = t.workers[k];
    integer(out, k == 0 ? "{\"worker\":" : ",{\"worker\":", w.worker);
    append_sweep_counters(out, w);
    rounded(out, ",\"busy_s\":", w.busy_seconds);
    out += '}';
  }
  out += "]}";
}

}  // namespace

std::string sweep_bench_to_json(const SweepBenchReport& bench) {
  std::string out;
  out.reserve(1024 + 400 * bench.results.size());
  text(out, "{\"trace\":", bench.trace_name);
  integer(out, ",\"points\":", bench.points);
  integer(out, ",\"jobs\":", bench.jobs);
  rounded(out, ",\"wall_s\":", bench.wall_seconds);
  rounded(out, ",\"points_per_s\":", bench.points_per_second);
  rounded(out, ",\"serial_wall_s\":", bench.serial_wall_seconds);
  rounded(out, ",\"speedup\":", bench.speedup);
  integer(out, ",\"bit_identical_to_serial\":",
          bench.bit_identical_to_serial);
  if (bench.cap_enabled) {
    integer(out, ",\"cap\":{\"capped_slots\":", bench.capped_slots);
    integer(out, ",\"capped_points\":", bench.capped_points);
    integer(out, ",\"violations\":", bench.cap_violations);
    rounded(out, ",\"deferred_j\":", bench.cap_deferred_j);
    out += '}';
  }
  if (bench.stacks_enabled) {
    integer(out, ",\"stacks\":{\"points\":", bench.stack_points);
    integer(out, ",\"startups\":", bench.stack_startups);
    exact(out, ",\"max_wear\":", bench.stack_max_wear);
    out += '}';
  }
  if (bench.batched_points > 0) {
    integer(out, ",\"batch\":{\"points\":", bench.batched_points);
    integer(out, ",\"merge_sets\":", bench.batch_merge_sets);
    integer(out, ",\"merged_lane_slots\":", bench.batch_merged_lane_slots);
    integer(out, ",\"splits\":", bench.batch_splits);
    out += '}';
  }
  if (bench.audit_enabled) {
    text(out, ",\"audit\":{\"mode\":", bench.audit_mode);
    integer(out, ",\"audited_slots\":", bench.audited_slots);
    integer(out, ",\"checks\":", bench.audit_checks);
    integer(out, ",\"violations\":", bench.audit_violations);
    integer(out, ",\"engine_fallbacks\":", bench.engine_fallbacks);
    integer(out, ",\"fallback_points\":", bench.fallback_points);
    out += '}';
  }
  if (bench.resilience.enabled) {
    append_resilience(out, bench.resilience);
  }
  if (bench.telemetry.enabled) {
    append_telemetry(out, bench.telemetry);
  }
  out += ",\"results\":[";
  for (std::size_t k = 0; k < bench.results.size(); ++k) {
    if (k != 0) {
      out += ',';
    }
    append_row(out, bench.results[k]);
  }
  out += "]}\n";
  return out;
}

void write_sweep_bench_file(const std::string& path,
                            const SweepBenchReport& bench) {
  write_file_atomic(path, sweep_bench_to_json(bench));
}

}  // namespace fcdpm::report
