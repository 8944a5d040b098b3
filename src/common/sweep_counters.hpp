// The JSON writer of the counters a sweep's telemetry keeps, per sweep
// and per worker: telemetry::SweepSnapshot / WorkerSnapshot and their
// plain copies report::TelemetryReport / TelemetryWorkerRow (the report
// layer stays independent of fcdpm::telemetry) share the member names.
#pragma once

#include <cstdint>
#include <string>

#include "common/text.hpp"

namespace fcdpm {

/// Appends ",\"done\":N,..." in stream order. capped_slots and the audit
/// counters are written only once capping / auditing is live, so cap-off
/// and audit-off output keeps its bytes.
template <typename Counters>
void append_sweep_counters(std::string& out, const Counters& c) {
  const auto field = [&out](const char* key, std::uint64_t value) {
    out += key;
    append_integer(out, value);
  };
  field(",\"done\":", c.done);
  field(",\"retried\":", c.retried);
  field(",\"quarantined\":", c.quarantined);
  field(",\"reference_dispatches\":", c.reference_dispatches);
  field(",\"batched_dispatches\":", c.batched_dispatches);
  field(",\"heartbeats\":", c.heartbeats);
  field(",\"slots\":", c.slots);
  if (c.capped_slots > 0) {
    field(",\"capped_slots\":", c.capped_slots);
  }
  if (c.audited_slots > 0) {
    field(",\"audited_slots\":", c.audited_slots);
    field(",\"audit_violations\":", c.audit_violations);
    field(",\"engine_fallbacks\":", c.engine_fallbacks);
  }
}

}  // namespace fcdpm
