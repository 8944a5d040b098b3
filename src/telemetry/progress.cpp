#include "telemetry/progress.hpp"

#include <cstdio>

#include "common/sweep_counters.hpp"
#include "common/text.hpp"

namespace fcdpm::telemetry {

namespace {

std::string fmt1(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.1f", value);
  return buffer;
}

}  // namespace

std::string snapshot_to_json(const SweepSnapshot& snap) {
  std::string out = "{\"schema\":\"fcdpm.sweep_progress.v1\"";
  out += ",\"seq\":" + std::to_string(snap.seq);
  out += ",\"elapsed_s\":" + format_general(snap.elapsed_seconds, 12);
  out += ",\"total_points\":" + std::to_string(snap.total_points);
  append_sweep_counters(out, snap);
  out += ",\"points_per_s\":" +
         format_general(snap.throughput_points_per_s, 12);
  out += ",\"eta_s\":" + format_general(snap.eta_seconds, 12);
  out += ",\"wall_p50_us\":" + format_general(snap.wall_p50_us, 12);
  out += ",\"wall_p95_us\":" + format_general(snap.wall_p95_us, 12);
  out += ",\"wall_p99_us\":" + format_general(snap.wall_p99_us, 12);
  out += ",\"wall_max_us\":" + format_general(snap.wall_max_us, 12);
  out += ",\"sim_p50_s\":" + format_general(snap.sim_p50_s, 12);
  out += ",\"sim_p95_s\":" + format_general(snap.sim_p95_s, 12);
  out += ",\"sim_p99_s\":" + format_general(snap.sim_p99_s, 12);
  out += ",\"sim_max_s\":" + format_general(snap.sim_max_s, 12);
  out += ",\"worker_skew\":" + format_general(snap.worker_skew, 12);
  out += ",\"workers\":[";
  for (std::size_t i = 0; i < snap.workers.size(); ++i) {
    const WorkerSnapshot& w = snap.workers[i];
    if (i != 0) {
      out += ',';
    }
    out += "{\"worker\":" + std::to_string(w.worker);
    append_sweep_counters(out, w);
    out += ",\"busy_s\":" + format_general(w.busy_seconds, 12) + "}";
  }
  out += "]}";
  return out;
}

std::string progress_line(const SweepSnapshot& snap) {
  const double pct =
      snap.total_points > 0
          ? 100.0 * static_cast<double>(snap.settled()) /
                static_cast<double>(snap.total_points)
          : 0.0;
  std::string out = "sweep " + std::to_string(snap.settled()) + "/" +
                    std::to_string(snap.total_points) + " (" + fmt1(pct) +
                    "%)  " + fmt1(snap.throughput_points_per_s) + " pt/s";
  if (snap.eta_seconds > 0.0) {
    out += "  eta " + fmt1(snap.eta_seconds) + "s";
  }
  out += "  p95 " + fmt1(snap.wall_p95_us) + "us";
  if (snap.capped_slots > 0) {
    out += "  capped " + std::to_string(snap.capped_slots);
  }
  if (snap.audit_violations > 0) {
    out += "  audit-violations " + std::to_string(snap.audit_violations);
  }
  if (snap.engine_fallbacks > 0) {
    out += "  fallbacks " + std::to_string(snap.engine_fallbacks);
  }
  if (snap.retried > 0) {
    out += "  retried " + std::to_string(snap.retried);
  }
  if (snap.quarantined > 0) {
    out += "  quarantined " + std::to_string(snap.quarantined);
  }
  return out;
}

}  // namespace fcdpm::telemetry
