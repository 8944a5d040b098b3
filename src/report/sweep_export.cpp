#include "report/sweep_export.hpp"

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

/// Exact round-trip form for result values (17 significant digits
/// reproduce any IEEE binary64 bit pattern).
std::string format_exact(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string point_row_to_json(const SweepPointRow& row) {
  std::string out = "{";
  out += "\"policy\":\"" + obs::json_escape(row.policy.c_str()) + "\"";
  out += ",\"rho\":" + format_exact(row.rho);
  out += ",\"capacity\":" + format_exact(row.capacity);
  out += ",\"storm_seed\":" + std::to_string(row.storm_seed);
  out += ",\"ok\":";
  out += row.ok ? "true" : "false";
  if (!row.error.empty()) {
    out += ",\"error\":\"" + obs::json_escape(row.error.c_str()) + "\"";
  }
  out += ",\"attempts\":" + std::to_string(row.attempts);
  out += ",\"replayed\":";
  out += row.replayed ? "true" : "false";
  if (row.ok) {
    out += ",\"fuel\":" + format_exact(row.fuel);
    out += ",\"bled\":" + format_exact(row.bled);
    out += ",\"unserved\":" + format_exact(row.unserved);
    out += ",\"duration\":" + format_exact(row.duration);
    out += ",\"storage_end\":" + format_exact(row.storage_end);
    out += ",\"latency\":" + format_exact(row.latency);
    out += ",\"slots\":" + std::to_string(row.slots);
    out += ",\"sleeps\":" + std::to_string(row.sleeps);
    if (row.cap_enabled) {
      out += ",\"capped_slots\":" + std::to_string(row.capped_slots);
      out += ",\"cap_violations\":" + std::to_string(row.cap_violations);
      out += ",\"cap_deferred_j\":" + format_exact(row.cap_deferred_j);
      out += ",\"cap_deferred_s\":" + format_exact(row.cap_deferred_s);
    }
    if (row.stacks_enabled) {
      out += ",\"stacks\":" + std::to_string(row.stacks);
      out += ",\"distribution\":\"" +
             obs::json_escape(row.distribution.c_str()) + "\"";
      out += ",\"stack_startups\":" + std::to_string(row.stack_startups);
      out += ",\"stack_max_wear\":" + format_exact(row.stack_max_wear);
      out += ",\"stack_fuel\":[";
      for (std::size_t k = 0; k < row.stack_fuel.size(); ++k) {
        if (k != 0) {
          out += ',';
        }
        out += format_exact(row.stack_fuel[k]);
      }
      out += "]";
    }
    if (row.audit_enabled) {
      out += ",\"audit_slots\":" + std::to_string(row.audit_slots);
      out += ",\"audit_checks\":" + std::to_string(row.audit_checks);
      out += ",\"audit_violations\":" + std::to_string(row.audit_violations);
      out += ",\"engine_fallbacks\":" + std::to_string(row.engine_fallbacks);
      if (!row.audit_first.empty()) {
        out += ",\"audit_first\":\"" +
               obs::json_escape(row.audit_first.c_str()) + "\"";
      }
    }
  }
  out += "}";
  return out;
}

std::string resilience_to_json(const SweepResilienceReport& r) {
  std::string out = "{";
  out += "\"scheduled\":" + std::to_string(r.scheduled);
  out += ",\"replayed\":" + std::to_string(r.replayed);
  out += ",\"retries\":" + std::to_string(r.retries);
  out += ",\"quarantined\":" + std::to_string(r.quarantined);
  out += ",\"rounds\":" + std::to_string(r.rounds);
  out += ",\"spot_checks\":" + std::to_string(r.spot_checks);
  out += ",\"torn_tail_recovered\":";
  out += r.torn_tail_recovered ? "true" : "false";
  out += ",\"torn_bytes_dropped\":" + std::to_string(r.torn_bytes_dropped);
  out += ",\"watchdog_stalls\":" + std::to_string(r.watchdog_stalls);
  out += ",\"max_retries\":" + std::to_string(r.max_retries);
  out +=
      ",\"point_deadline_slots\":" + std::to_string(r.point_deadline_slots);
  if (r.cap_enabled) {
    out += ",\"capped_ok\":" + std::to_string(r.capped_ok);
  }
  out += "}";
  return out;
}

std::string telemetry_worker_to_json(const TelemetryWorkerRow& w) {
  std::string out = "{";
  out += "\"worker\":" + std::to_string(w.worker);
  out += ",\"done\":" + std::to_string(w.done);
  out += ",\"retried\":" + std::to_string(w.retried);
  out += ",\"quarantined\":" + std::to_string(w.quarantined);
  out += ",\"hot_dispatches\":" + std::to_string(w.hot_dispatches);
  out += ",\"reference_dispatches\":" +
         std::to_string(w.reference_dispatches);
  if (w.batched_dispatches > 0) {
    out += ",\"batched_dispatches\":" +
           std::to_string(w.batched_dispatches);
  }
  out += ",\"heartbeats\":" + std::to_string(w.heartbeats);
  out += ",\"slots\":" + std::to_string(w.slots);
  if (w.capped_slots > 0) {
    out += ",\"capped_slots\":" + std::to_string(w.capped_slots);
  }
  if (w.audited_slots > 0) {
    out += ",\"audited_slots\":" + std::to_string(w.audited_slots);
    out += ",\"audit_violations\":" + std::to_string(w.audit_violations);
    out += ",\"engine_fallbacks\":" + std::to_string(w.engine_fallbacks);
  }
  out += ",\"busy_s\":" + format_double(w.busy_seconds);
  out += "}";
  return out;
}

std::string telemetry_to_json(const TelemetryReport& t) {
  std::string out = "{";
  out += "\"snapshots\":" + std::to_string(t.snapshots);
  out += ",\"done\":" + std::to_string(t.done);
  out += ",\"retried\":" + std::to_string(t.retried);
  out += ",\"quarantined\":" + std::to_string(t.quarantined);
  out += ",\"hot_dispatches\":" + std::to_string(t.hot_dispatches);
  out += ",\"reference_dispatches\":" +
         std::to_string(t.reference_dispatches);
  if (t.batched_dispatches > 0) {
    out += ",\"batched_dispatches\":" +
           std::to_string(t.batched_dispatches);
  }
  out += ",\"heartbeats\":" + std::to_string(t.heartbeats);
  out += ",\"slots\":" + std::to_string(t.slots);
  if (t.capped_slots > 0) {
    out += ",\"capped_slots\":" + std::to_string(t.capped_slots);
  }
  if (t.audited_slots > 0) {
    out += ",\"audited_slots\":" + std::to_string(t.audited_slots);
    out += ",\"audit_violations\":" + std::to_string(t.audit_violations);
    out += ",\"engine_fallbacks\":" + std::to_string(t.engine_fallbacks);
  }
  out += ",\"points_per_s\":" + format_double(t.throughput_points_per_s);
  out += ",\"wall_p50_us\":" + format_double(t.wall_p50_us);
  out += ",\"wall_p95_us\":" + format_double(t.wall_p95_us);
  out += ",\"wall_p99_us\":" + format_double(t.wall_p99_us);
  out += ",\"wall_max_us\":" + format_double(t.wall_max_us);
  out += ",\"worker_skew\":" + format_double(t.worker_skew);
  out += ",\"workers\":[";
  for (std::size_t k = 0; k < t.workers.size(); ++k) {
    if (k != 0) {
      out += ',';
    }
    out += telemetry_worker_to_json(t.workers[k]);
  }
  out += "]}";
  return out;
}

}  // namespace

std::string sweep_bench_to_json(const SweepBenchReport& bench) {
  std::string out = "{";
  out += "\"trace\":\"" + obs::json_escape(bench.trace_name.c_str()) + "\"";
  out += ",\"points\":" + std::to_string(bench.points);
  out += ",\"jobs\":" + std::to_string(bench.jobs);
  out += ",\"wall_s\":" + format_double(bench.wall_seconds);
  out += ",\"points_per_s\":" + format_double(bench.points_per_second);
  out += ",\"serial_wall_s\":" + format_double(bench.serial_wall_seconds);
  out += ",\"speedup\":" + format_double(bench.speedup);
  out += ",\"bit_identical_to_serial\":" +
         std::to_string(bench.bit_identical_to_serial);
  if (bench.cap_enabled) {
    out += ",\"cap\":{\"capped_slots\":" + std::to_string(bench.capped_slots) +
           ",\"capped_points\":" + std::to_string(bench.capped_points) +
           ",\"violations\":" + std::to_string(bench.cap_violations) +
           ",\"deferred_j\":" + format_double(bench.cap_deferred_j) + "}";
  }
  if (bench.stacks_enabled) {
    out += ",\"stacks\":{\"points\":" + std::to_string(bench.stack_points) +
           ",\"startups\":" + std::to_string(bench.stack_startups) +
           ",\"max_wear\":" + format_exact(bench.stack_max_wear) + "}";
  }
  if (bench.batched_points > 0) {
    out += ",\"batch\":{\"points\":" + std::to_string(bench.batched_points) +
           ",\"merge_sets\":" + std::to_string(bench.batch_merge_sets) +
           ",\"merged_lane_slots\":" +
           std::to_string(bench.batch_merged_lane_slots) +
           ",\"splits\":" + std::to_string(bench.batch_splits) + "}";
  }
  if (bench.audit_enabled) {
    out += ",\"audit\":{\"mode\":\"" +
           obs::json_escape(bench.audit_mode.c_str()) + "\"" +
           ",\"audited_slots\":" + std::to_string(bench.audited_slots) +
           ",\"checks\":" + std::to_string(bench.audit_checks) +
           ",\"violations\":" + std::to_string(bench.audit_violations) +
           ",\"engine_fallbacks\":" + std::to_string(bench.engine_fallbacks) +
           ",\"fallback_points\":" + std::to_string(bench.fallback_points) +
           "}";
  }
  if (bench.resilience.enabled) {
    out += ",\"resilience\":" + resilience_to_json(bench.resilience);
  }
  if (bench.telemetry.enabled) {
    out += ",\"telemetry\":" + telemetry_to_json(bench.telemetry);
  }
  out += ",\"results\":[";
  for (std::size_t k = 0; k < bench.results.size(); ++k) {
    if (k != 0) {
      out += ',';
    }
    out += point_row_to_json(bench.results[k]);
  }
  out += "]}\n";
  return out;
}

void write_sweep_bench_file(const std::string& path,
                            const SweepBenchReport& bench) {
  write_file_atomic(path, sweep_bench_to_json(bench));
}

}  // namespace fcdpm::report
