#include "audit/audit.hpp"

#include <gtest/gtest.h>

#include <cstddef>

#include "cap/stats.hpp"
#include "power/hybrid.hpp"
#include "stacks/multi_stack.hpp"

namespace fcdpm::audit {
namespace {

/// A slot whose integrals reconcile exactly: fuel delta equals the
/// segment sum fed separately, delivered delta equals bus_v * if_dt.
SlotAudit clean_slot(std::size_t slot) {
  SlotAudit view;
  view.slot = slot;
  view.bus_v = 12.0;
  view.fuel_before = 10.0 * static_cast<double>(slot);
  view.fuel_after = view.fuel_before + 10.0;
  view.delivered_before = 120.0 * static_cast<double>(slot);
  view.delivered_after = view.delivered_before + 120.0;
  view.if_dt = 10.0;
  view.storage_charge = 3.0;
  view.storage_capacity = 6.0;
  return view;
}

TEST(AuditMode, ParseAndPrintRoundTrip) {
  Mode mode = Mode::Strict;
  EXPECT_TRUE(parse_mode("off", mode));
  EXPECT_EQ(mode, Mode::Off);
  EXPECT_TRUE(parse_mode("sample", mode));
  EXPECT_EQ(mode, Mode::Sample);
  EXPECT_TRUE(parse_mode("strict", mode));
  EXPECT_EQ(mode, Mode::Strict);
  EXPECT_STREQ(to_string(Mode::Off), "off");
  EXPECT_STREQ(to_string(Mode::Sample), "sample");
  EXPECT_STREQ(to_string(Mode::Strict), "strict");

  mode = Mode::Sample;
  EXPECT_FALSE(parse_mode("Strict", mode));  // case-sensitive, strict set
  EXPECT_FALSE(parse_mode("", mode));
  EXPECT_FALSE(parse_mode("on", mode));
  EXPECT_EQ(mode, Mode::Sample);  // untouched on failure
}

TEST(Auditor, CleanSlotsProduceChecksAndNoViolations) {
  AuditSpec spec;
  spec.mode = Mode::Strict;
  Auditor auditor(spec);
  for (std::size_t k = 0; k < 8; ++k) {
    auditor.on_slot(clean_slot(k));
  }
  EndAudit end;
  end.storage_end = 3.0;
  end.storage_capacity = 6.0;
  auditor.on_run_end(end);

  const AuditStats& stats = auditor.stats();
  EXPECT_TRUE(stats.clean());
  EXPECT_EQ(stats.mode, static_cast<int>(Mode::Strict));
  EXPECT_EQ(stats.slots_audited, 8u);
  EXPECT_GT(stats.checks_run, 8u);
  EXPECT_EQ(stats.first_violation_slot, npos);
  EXPECT_TRUE(stats.first_violation.empty());
}

TEST(Auditor, SampleModeAuditsEveryNthSlot) {
  AuditSpec spec;
  spec.mode = Mode::Sample;
  spec.sample_period = 4;
  Auditor auditor(spec);
  EXPECT_TRUE(auditor.samples(0));
  EXPECT_FALSE(auditor.samples(1));
  EXPECT_FALSE(auditor.samples(3));
  EXPECT_TRUE(auditor.samples(4));
  for (std::size_t k = 0; k < 9; ++k) {
    auditor.on_slot(clean_slot(k));
  }
  EXPECT_EQ(auditor.stats().slots_audited, 3u);  // slots 0, 4, 8
  EXPECT_TRUE(auditor.stats().clean());
}

TEST(Auditor, OffModeSamplesNothing) {
  Auditor auditor(AuditSpec{});
  EXPECT_FALSE(auditor.samples(0));
  auditor.on_slot(clean_slot(0));
  EXPECT_EQ(auditor.stats().slots_audited, 0u);
  EXPECT_EQ(auditor.stats().checks_run, 0u);
}

TEST(Auditor, FuelIntegralMismatchIsAFuelViolation) {
  AuditSpec spec;
  spec.mode = Mode::Strict;
  Auditor auditor(spec);

  // One segment burning 5 A-s against a slot whose delta claims 10.
  power::SegmentResult segment;
  segment.fuel = Coulomb(5.0);
  SegmentAudit seg_view;
  seg_view.slot = 0;
  seg_view.duration_s = 2.0;
  seg_view.segment = &segment;
  auditor.on_segment(seg_view);
  auditor.on_slot(clean_slot(0));

  const AuditStats& stats = auditor.stats();
  EXPECT_EQ(stats.violations, 1u);
  EXPECT_EQ(stats.fuel_violations, 1u);
  EXPECT_EQ(stats.first_violation, "fuel_integral");
  EXPECT_EQ(stats.first_violation_slot, 0u);
}

TEST(Auditor, DeliveredIntegralMismatchIsCaught) {
  AuditSpec spec;
  spec.mode = Mode::Strict;
  Auditor auditor(spec);
  SlotAudit view = clean_slot(2);
  view.if_dt = 9.0;  // delivered delta of 120 J claims bus_v * 9 = 108 J
  auditor.on_slot(view);
  EXPECT_EQ(auditor.stats().fuel_violations, 1u);
  EXPECT_EQ(auditor.stats().first_violation, "delivered_integral");
  EXPECT_EQ(auditor.stats().first_violation_slot, 2u);
}

TEST(Auditor, StorageOutsideDeratedCapacityIsAStorageViolation) {
  AuditSpec spec;
  spec.mode = Mode::Strict;
  Auditor auditor(spec);
  SlotAudit view = clean_slot(0);
  view.storage_charge = 6.5;  // capacity is 6.0
  auditor.on_slot(view);
  EXPECT_EQ(auditor.stats().storage_violations, 1u);
  EXPECT_EQ(auditor.stats().first_violation, "storage_bounds");

  EndAudit end;
  end.storage_end = -1.0;
  end.storage_capacity = 6.0;
  auditor.on_run_end(end);
  EXPECT_EQ(auditor.stats().storage_violations, 2u);
  // First violation sticks to the earliest check.
  EXPECT_EQ(auditor.stats().first_violation, "storage_bounds");
  EXPECT_EQ(auditor.stats().first_violation_slot, 0u);
}

TEST(Auditor, CapBudgetViolationsSurfaceAtRunEnd) {
  AuditSpec spec;
  spec.mode = Mode::Sample;
  Auditor auditor(spec);
  cap::CapStats cap;
  cap.budget_violations = 3;
  EndAudit end;
  end.storage_end = 0.0;
  end.storage_capacity = 6.0;
  end.cap = &cap;
  auditor.on_run_end(end);
  EXPECT_EQ(auditor.stats().cap_violations, 1u);
  EXPECT_EQ(auditor.stats().first_violation, "cap_budget");
}

TEST(Auditor, StacksWearAndFuelReconcileAgainstHybridTotals) {
  AuditSpec spec;
  spec.mode = Mode::Strict;
  power::HybridTotals totals;
  totals.fuel = Coulomb(30.0);
  totals.duration = Seconds(10.0);

  {  // Fleet fuel sums to the hybrid total, wear in range: clean.
    Auditor auditor(spec);
    stacks::StacksStats fleet;
    fleet.stacks.resize(2);
    fleet.stacks[0].fuel_as = 18.0;
    fleet.stacks[0].wear = 0.25;
    fleet.stacks[1].fuel_as = 12.0;
    fleet.stacks[1].wear = 0.0;
    EndAudit end;
    end.totals = &totals;
    end.storage_capacity = 6.0;
    end.stacks = &fleet;
    auditor.on_run_end(end);
    EXPECT_TRUE(auditor.stats().clean());
  }
  {  // Fuel that does not reconcile and wear outside [0, 1]: two hits.
    Auditor auditor(spec);
    stacks::StacksStats fleet;
    fleet.stacks.resize(2);
    fleet.stacks[0].fuel_as = 18.0;
    fleet.stacks[0].wear = 1.5;
    fleet.stacks[1].fuel_as = 11.0;
    fleet.stacks[1].wear = 0.0;
    EndAudit end;
    end.totals = &totals;
    end.storage_capacity = 6.0;
    end.stacks = &fleet;
    auditor.on_run_end(end);
    EXPECT_EQ(auditor.stats().stacks_violations, 2u);
    EXPECT_EQ(auditor.stats().first_violation, "stacks_wear");
  }
}

TEST(Auditor, FailFastThrowsAuditErrorAfterRecording) {
  AuditSpec spec;
  spec.mode = Mode::Strict;
  Auditor auditor(spec, /*fail_fast=*/true);
  SlotAudit view = clean_slot(5);
  view.if_dt = 1.0;
  EXPECT_THROW(auditor.on_slot(view), AuditError);
  // The violation is recorded before the throw, so the dispatcher can
  // carry the stats into the self-heal replay.
  EXPECT_EQ(auditor.stats().violations, 1u);
  EXPECT_EQ(auditor.stats().first_violation_slot, 5u);
}

TEST(Auditor, TamperHookCorruptsOnlyTheObservedIntegral) {
  AuditSpec spec;
  spec.mode = Mode::Strict;
  spec.tamper_slot = 3;
  Auditor auditor(spec);
  for (std::size_t k = 0; k < 6; ++k) {
    auditor.on_slot(clean_slot(k));
  }
  EXPECT_EQ(auditor.stats().violations, 1u);
  EXPECT_EQ(auditor.stats().first_violation, "delivered_integral");
  EXPECT_EQ(auditor.stats().first_violation_slot, 3u);
}

TEST(Auditor, RecordEngineFallbackCarriesHotCountersOver) {
  AuditStats failed;
  failed.violations = 2;
  failed.fuel_violations = 1;
  failed.storage_violations = 1;
  failed.first_violation = "delivered_integral";
  failed.first_violation_slot = 40;

  AuditStats healed;  // the clean reference replay
  healed.mode = static_cast<int>(Mode::Strict);
  record_engine_fallback(healed, failed);
  EXPECT_EQ(healed.engine_fallbacks, 1u);
  EXPECT_EQ(healed.violations, 2u);
  EXPECT_EQ(healed.fuel_violations, 1u);
  EXPECT_EQ(healed.storage_violations, 1u);
  EXPECT_EQ(healed.first_violation, "delivered_integral");
  EXPECT_EQ(healed.first_violation_slot, 40u);

  // A replay that itself fell back compounds, not overwrites.
  AuditStats again;
  again.first_violation = "storage_bounds";
  again.first_violation_slot = 7;
  record_engine_fallback(again, healed);
  EXPECT_EQ(again.engine_fallbacks, 2u);  // 1 + healed's 1
  EXPECT_EQ(again.first_violation, "storage_bounds");  // earlier one sticks
}

}  // namespace
}  // namespace fcdpm::audit
