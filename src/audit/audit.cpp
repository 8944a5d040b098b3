#include "audit/audit.hpp"

#include <algorithm>
#include <cmath>

namespace fcdpm::audit {

namespace {

/// Relative tolerance of the reconciliation checks. The audited sums
/// differ from the engine's own accumulators only by association order
/// (a handful of additions per slot), so 1e-9 is ~10^7 x the worst
/// rounding drift while still catching any real accounting defect.
constexpr double kRelTol = 1e-9;

[[nodiscard]] double tol(double scale) noexcept {
  const double magnitude = std::fabs(scale);
  return kRelTol * (magnitude > 1.0 ? magnitude : 1.0);
}

[[nodiscard]] std::string fmt(double value) {
  return std::to_string(value);
}

}  // namespace

const char* to_string(Mode mode) noexcept {
  switch (mode) {
    case Mode::Off:
      return "off";
    case Mode::Sample:
      return "sample";
    case Mode::Strict:
      return "strict";
  }
  return "?";
}

bool parse_mode(std::string_view text, Mode& out) noexcept {
  if (text == "off") {
    out = Mode::Off;
  } else if (text == "sample") {
    out = Mode::Sample;
  } else if (text == "strict") {
    out = Mode::Strict;
  } else {
    return false;
  }
  return true;
}

Auditor::Auditor(const AuditSpec& spec, bool fail_fast)
    : spec_(spec), fail_fast_(fail_fast) {
  if (spec_.sample_period == 0) {
    spec_.sample_period = 1;
  }
  sample_is_pow2_ =
      (spec_.sample_period & (spec_.sample_period - 1)) == 0;
  sample_mask_ = spec_.sample_period - 1;
  stats_.mode = static_cast<int>(spec_.mode);
}

bool Auditor::samples(std::size_t slot) const noexcept {
  if (spec_.mode == Mode::Strict) {
    return true;
  }
  if (spec_.mode == Mode::Sample) {
    return slot % spec_.sample_period == 0;
  }
  return false;
}

void Auditor::violation(std::uint64_t AuditStats::*counter, std::size_t slot,
                        const char* check, const std::string& detail) {
  ++(stats_.*counter);
  ++stats_.violations;
  if (stats_.first_violation.empty()) {
    stats_.first_violation = check;
    stats_.first_violation_slot = slot;
  }
  if (fail_fast_) {
    throw AuditError("audit violation [" + std::string(check) + "] at slot " +
                     std::to_string(slot) + ": " + detail);
  }
}

void Auditor::on_segment(const SegmentAudit& view) {
  // The fuel integral accumulates for *every* segment: the sampled
  // slot's reconciliation needs the full sum since the last boundary.
  slot_segment_fuel_ += view.segment->fuel.value();
  ++slot_segment_count_;
  saw_segments_ = true;

  if (!samples(view.slot)) {
    return;
  }
  ++stats_.segments_audited;
  const power::SegmentResult& s = *view.segment;
  const double fields[] = {s.setpoint.value(), s.actual_if.value(),
                           s.fuel.value(),     s.stored.value(),
                           s.drawn.value(),    s.bled.value(),
                           s.unserved.value(), s.pre_bled.value()};
  ++stats_.checks_run;
  for (const double f : fields) {
    if (!std::isfinite(f)) {
      violation(&AuditStats::fuel_violations, view.slot, "segment_finite",
                "non-finite SegmentResult field " + fmt(f));
      return;
    }
  }
  ++stats_.checks_run;
  // Flows are non-negative up to rounding: every one of them is an
  // exact-math difference of same-scale terms (stored goes a hair below
  // zero under fault storms, bled/unserved on any run), so each gets
  // the shared noise-floor tolerance at the segment's flow scale.
  const double flow_scale =
      std::max({s.fuel.value(), s.pre_bled.value(), s.drawn.value(),
                s.stored.value(), s.actual_if.value()});
  const double flow_eps = tol(flow_scale);
  if (s.fuel.value() < -flow_eps || s.stored.value() < -flow_eps ||
      s.drawn.value() < -flow_eps || s.pre_bled.value() < -flow_eps ||
      s.actual_if.value() < -flow_eps || s.bled.value() < -flow_eps ||
      s.unserved.value() < -flow_eps) {
    violation(&AuditStats::fuel_violations, view.slot, "segment_sign",
              "negative flow in SegmentResult (fuel=" + fmt(s.fuel.value()) +
                  " stored=" + fmt(s.stored.value()) +
                  " drawn=" + fmt(s.drawn.value()) +
                  " pre_bled=" + fmt(s.pre_bled.value()) +
                  " actual_if=" + fmt(s.actual_if.value()) +
                  " bled=" + fmt(s.bled.value()) +
                  " unserved=" + fmt(s.unserved.value()) + ")");
  }
}

void Auditor::on_slot(const SlotAudit& view) {
  const double segment_fuel = slot_segment_fuel_;
  const bool had_segments = saw_segments_;
  slot_segment_fuel_ = 0.0;
  slot_segment_count_ = 0;

  if (!samples(view.slot)) {
    return;
  }
  ++stats_.slots_audited;

  double if_dt = view.if_dt;
  if (view.slot == spec_.tamper_slot) {
    // Test hook: corrupt the observed delivered-charge integral so the
    // reconciliation below fires on a healthy run.
    if_dt *= 1.0 + 1.0 / 1024.0;
  }

  // Fuel burn is cumulative and monotone.
  const double fuel_delta = view.fuel_after - view.fuel_before;
  ++stats_.checks_run;
  if (!std::isfinite(fuel_delta) || fuel_delta < -tol(view.fuel_after)) {
    violation(&AuditStats::fuel_violations, view.slot, "fuel_monotone",
              "cumulative fuel went from " + fmt(view.fuel_before) + " to " +
                  fmt(view.fuel_after));
  }
  // Reference loop: the slot's fuel delta reconciles with the sum of
  // its SegmentResult fuel (startup-purge taxes are inside the segment
  // fuel, so they reconcile too).
  if (had_segments) {
    ++stats_.checks_run;
    if (std::fabs(fuel_delta - segment_fuel) > tol(view.fuel_after)) {
      violation(&AuditStats::fuel_violations, view.slot, "fuel_integral",
                "slot fuel delta " + fmt(fuel_delta) +
                    " != segment integral " + fmt(segment_fuel));
    }
  }
  // Delivered energy reconciles with the FC output integral:
  // d(delivered) == bus_v * integral(IF dt) over the slot.
  const double delivered_delta = view.delivered_after - view.delivered_before;
  ++stats_.checks_run;
  if (std::fabs(delivered_delta - view.bus_v * if_dt) >
      tol(view.delivered_after)) {
    violation(&AuditStats::fuel_violations, view.slot, "delivered_integral",
              "delivered-energy delta " + fmt(delivered_delta) +
                  " != bus_v * if_dt = " + fmt(view.bus_v * if_dt));
  }
  // Storage stays within [0, derated capacity] (the accumulation may
  // overshoot either bound by rounding only).
  ++stats_.checks_run;
  if (!std::isfinite(view.storage_charge) ||
      view.storage_charge < -tol(view.storage_capacity) ||
      view.storage_charge > view.storage_capacity +
                                tol(view.storage_capacity)) {
    violation(&AuditStats::storage_violations, view.slot, "storage_bounds",
              "charge " + fmt(view.storage_charge) + " outside [0, " +
                  fmt(view.storage_capacity) + "]");
  }
}

void Auditor::on_run_end(const EndAudit& view) {
  if (spec_.mode == Mode::Off) {
    return;
  }
  const std::size_t slot = view.slots;
  if (view.totals != nullptr) {
    const power::HybridTotals& t = *view.totals;
    ++stats_.checks_run;
    if (!std::isfinite(t.fuel.value()) ||
        !std::isfinite(t.delivered_energy.value()) ||
        !std::isfinite(t.load_energy.value()) ||
        !std::isfinite(t.bled.value()) || !std::isfinite(t.unserved.value()) ||
        !std::isfinite(t.duration.value()) || t.fuel.value() < 0.0 ||
        t.duration.value() < 0.0 || t.bled.value() < -tol(t.fuel.value()) ||
        t.unserved.value() < -tol(t.fuel.value())) {
      violation(&AuditStats::fuel_violations, slot, "totals_sane",
                "hybrid totals non-finite or negative (fuel=" +
                    fmt(t.fuel.value()) + ")");
    }
  }
  ++stats_.checks_run;
  if (!std::isfinite(view.storage_end) ||
      view.storage_end < -tol(view.storage_capacity) ||
      view.storage_end >
          view.storage_capacity + tol(view.storage_capacity)) {
    violation(&AuditStats::storage_violations, slot, "storage_end",
              "final charge " + fmt(view.storage_end) + " outside [0, " +
                  fmt(view.storage_capacity) + "]");
  }
  if (view.cap != nullptr) {
    ++stats_.checks_run;
    if (view.cap->budget_violations != 0) {
      violation(&AuditStats::cap_violations, slot, "cap_budget",
                std::to_string(view.cap->budget_violations) +
                    " slots over the governor budget");
    }
  }
  if (view.stacks != nullptr && view.totals != nullptr) {
    double fleet_fuel = 0.0;
    bool wear_ok = true;
    for (const stacks::StackTotals& s : view.stacks->stacks) {
      fleet_fuel += s.fuel_as;
      if (!std::isfinite(s.wear) || s.wear < 0.0 || s.wear > 1.0) {
        wear_ok = false;
      }
    }
    ++stats_.checks_run;
    if (!wear_ok) {
      violation(&AuditStats::stacks_violations, slot, "stacks_wear",
                "per-stack wear outside [0, 1]");
    }
    ++stats_.checks_run;
    if (std::fabs(fleet_fuel - view.totals->fuel.value()) >
        tol(view.totals->fuel.value())) {
      violation(&AuditStats::stacks_violations, slot, "stacks_fuel",
                "fleet fuel " + fmt(fleet_fuel) + " != hybrid totals " +
                    fmt(view.totals->fuel.value()));
    }
  }
}

void record_engine_fallback(AuditStats& into, const AuditStats& hot_run) {
  into.engine_fallbacks += 1 + hot_run.engine_fallbacks;
  into.violations += hot_run.violations;
  into.fuel_violations += hot_run.fuel_violations;
  into.storage_violations += hot_run.storage_violations;
  into.cap_violations += hot_run.cap_violations;
  into.stacks_violations += hot_run.stacks_violations;
  if (into.first_violation.empty() && !hot_run.first_violation.empty()) {
    into.first_violation = hot_run.first_violation;
    into.first_violation_slot = hot_run.first_violation_slot;
  }
}

}  // namespace fcdpm::audit
