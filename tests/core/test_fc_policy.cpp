#include "core/fc_policy.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/contracts.hpp"
#include "dpm/power_states.hpp"

namespace fcdpm::core {
namespace {

power::LinearEfficiencyModel paper_model() {
  return power::LinearEfficiencyModel::paper_default();
}

dpm::DevicePowerModel camcorder() {
  return dpm::DevicePowerModel::dvd_camcorder();
}

SegmentContext segment(Phase phase, double device_current,
                       double storage_charge, double capacity) {
  SegmentContext context;
  context.phase = phase;
  context.state =
      phase == Phase::Active ? dpm::PowerState::Run : dpm::PowerState::Sleep;
  context.device_current = Ampere(device_current);
  context.storage_charge = Coulomb(storage_charge);
  context.storage_capacity = Coulomb(capacity);
  return context;
}

// --- Conv-DPM -------------------------------------------------------------------

TEST(ConvPolicy, AlwaysPinnedAtMaxOutput) {
  ConvFcPolicy policy(paper_model());
  EXPECT_DOUBLE_EQ(
      policy.segment_setpoint(segment(Phase::Idle, 0.2, 3.0, 6.0))
          .setpoint.value(),
      1.2);
  EXPECT_DOUBLE_EQ(
      policy.segment_setpoint(segment(Phase::Active, 1.22, 0.0, 6.0))
          .setpoint.value(),
      1.2);
  EXPECT_EQ(policy.name(), "Conv-DPM");
}

// --- ASAP-DPM -------------------------------------------------------------------

TEST(AsapPolicy, FollowsTheLoadWithinRange) {
  AsapFcPolicy policy(paper_model());
  const SegmentSetpoint sp =
      policy.segment_setpoint(segment(Phase::Idle, 0.2, 6.0, 6.0));
  EXPECT_DOUBLE_EQ(sp.setpoint.value(), 0.2);
  EXPECT_FALSE(sp.stop_charging_when_full);
}

TEST(AsapPolicy, ClampsLoadToRange) {
  AsapFcPolicy policy(paper_model());
  EXPECT_DOUBLE_EQ(
      policy.segment_setpoint(segment(Phase::Active, 1.4, 6.0, 6.0))
          .setpoint.value(),
      1.2);
  EXPECT_DOUBLE_EQ(
      policy.segment_setpoint(segment(Phase::Idle, 0.02, 6.0, 6.0))
          .setpoint.value(),
      0.1);
}

TEST(AsapPolicy, RechargesBelowHalfCapacity) {
  AsapFcPolicy policy(paper_model());
  const SegmentSetpoint sp =
      policy.segment_setpoint(segment(Phase::Idle, 0.2, 2.9, 6.0));
  EXPECT_DOUBLE_EQ(sp.setpoint.value(), 1.2);
  EXPECT_TRUE(sp.stop_charging_when_full);
}

TEST(AsapPolicy, KeepsRechargingUntilFull) {
  AsapFcPolicy policy(paper_model());
  (void)policy.segment_setpoint(segment(Phase::Idle, 0.2, 2.9, 6.0));
  // Above half but not full: still recharging (hysteresis to full).
  const SegmentSetpoint sp =
      policy.segment_setpoint(segment(Phase::Idle, 0.2, 4.5, 6.0));
  EXPECT_DOUBLE_EQ(sp.setpoint.value(), 1.2);
  // Full: back to load following.
  const SegmentSetpoint done =
      policy.segment_setpoint(segment(Phase::Idle, 0.2, 6.0, 6.0));
  EXPECT_DOUBLE_EQ(done.setpoint.value(), 0.2);
}

TEST(AsapPolicy, ResetClearsRechargeState) {
  AsapFcPolicy policy(paper_model());
  (void)policy.segment_setpoint(segment(Phase::Idle, 0.2, 1.0, 6.0));
  policy.reset();
  const SegmentSetpoint sp =
      policy.segment_setpoint(segment(Phase::Idle, 0.2, 4.5, 6.0));
  EXPECT_DOUBLE_EQ(sp.setpoint.value(), 0.2);
}

// --- FC-DPM ---------------------------------------------------------------------

FcDpmPolicy make_fcdpm() {
  return FcDpmPolicy::paper_policy(paper_model(), camcorder(),
                                   /*sigma=*/0.5,
                                   /*initial_active=*/Seconds(5.0),
                                   /*current_estimate=*/Ampere(1.2));
}

IdleContext idle_context(double predicted_idle, bool will_sleep,
                         double storage, double capacity) {
  IdleContext context;
  context.slot_index = 0;
  context.will_sleep = will_sleep;
  context.predicted_idle = Seconds(predicted_idle);
  context.idle_current = will_sleep
                             ? camcorder().sleep_current()
                             : camcorder().standby_current();
  context.storage_charge = Coulomb(storage);
  context.storage_capacity = Coulomb(capacity);
  return context;
}

TEST(FcDpmPolicy, FlatSettingAcrossIdleAndActivePlan) {
  FcDpmPolicy policy = make_fcdpm();
  policy.on_idle_start(idle_context(14.0, true, 3.0, 200.0));
  const Ampere idle_if =
      policy.segment_setpoint(segment(Phase::Idle, 0.2, 3.0, 200.0))
          .setpoint;
  const Ampere active_if =
      policy.segment_setpoint(segment(Phase::Active, 1.22, 3.0, 200.0))
          .setpoint;
  // Unconstrained plan: the optimum is flat.
  EXPECT_NEAR(idle_if.value(), active_if.value(), 1e-9);
  EXPECT_GT(idle_if.value(), 0.1);
  EXPECT_LT(idle_if.value(), 1.2);
}

TEST(FcDpmPolicy, SetpointIsChargeWeightedAverageOfPlan) {
  FcDpmPolicy policy = make_fcdpm();
  policy.on_idle_start(idle_context(14.0, true, 3.0, 200.0));
  const double if_idle =
      policy.segment_setpoint(segment(Phase::Idle, 0.2, 3.0, 200.0))
          .setpoint.value();
  // Plan: idle 14 s laid out as sleep (0.5s@0.403 + 13s@0.2 + 0.5s@0.403),
  // active 5 s (predictor seed) at the 1.2 A estimate, Cend = Cini. The
  // sleep transitions live inside the idle layout (no extra overhead
  // term; see the note in FcDpmPolicy::on_idle_start).
  const double idle_charge = 2 * 0.5 * (4.84 / 12.0) + 13.0 * 0.2;
  const double active_charge = 5.0 * 1.2;
  const double expected = (idle_charge + active_charge) / (14.0 + 5.0);
  EXPECT_NEAR(if_idle, expected, 1e-9);
}

TEST(FcDpmPolicy, ActiveResolveUsesActuals) {
  FcDpmPolicy policy = make_fcdpm();
  policy.on_idle_start(idle_context(14.0, true, 3.0, 200.0));
  const double planned =
      policy.segment_setpoint(segment(Phase::Active, 1.22, 3.0, 200.0))
          .setpoint.value();

  ActiveContext active;
  active.slot_index = 0;
  active.active_duration = Seconds(9.0);  // much longer than predicted
  active.active_current = Ampere(1.22);
  active.storage_charge = Coulomb(6.0);
  active.storage_capacity = Coulomb(200.0);
  policy.on_active_start(active);

  const double resolved =
      policy.segment_setpoint(segment(Phase::Active, 1.22, 6.0, 200.0))
          .setpoint.value();
  EXPECT_NE(planned, resolved);
  // Hand value: charge = 1.22*9 over 9 s, target back to Cini(1) = 3
  // from the current 6: IF,a = (10.98 + 3 - 6)/9.
  const double expected = (1.22 * 9.0 + (3.0 - 6.0)) / 9.0;
  EXPECT_NEAR(resolved, expected, 1e-9);
}

TEST(FcDpmPolicy, TargetEndPinnedToFirstCini) {
  FcDpmPolicy policy = make_fcdpm();
  policy.on_idle_start(idle_context(14.0, true, 4.0, 200.0));  // Cini(1)=4

  // Later slot starting below the target must plan a refill (higher IF
  // than the same slot starting exactly at the target).
  FcDpmPolicy fresh = make_fcdpm();
  fresh.on_idle_start(idle_context(14.0, true, 4.0, 200.0));
  (void)fresh.segment_setpoint(segment(Phase::Idle, 0.2, 4.0, 200.0));

  policy.on_idle_start(idle_context(14.0, true, 1.0, 200.0));
  const double refill =
      policy.segment_setpoint(segment(Phase::Idle, 0.2, 1.0, 200.0))
          .setpoint.value();
  const double neutral =
      fresh.segment_setpoint(segment(Phase::Idle, 0.2, 4.0, 200.0))
          .setpoint.value();
  EXPECT_GT(refill, neutral);
}

TEST(FcDpmPolicy, LearnsActiveDurationThroughObservations) {
  FcDpmPolicy policy = make_fcdpm();
  SlotObservation obs;
  obs.actual_active = Seconds(9.0);
  obs.actual_active_current = Ampere(1.0);
  policy.on_slot_end(obs);
  policy.on_slot_end(obs);

  // After two observations of 9 s the exp-average (seed 5, sigma 0.5)
  // predicts 8 s; the planned flat setting must reflect the longer
  // active phase relative to a fresh policy.
  FcDpmPolicy fresh = make_fcdpm();
  policy.on_idle_start(idle_context(14.0, true, 3.0, 200.0));
  fresh.on_idle_start(idle_context(14.0, true, 3.0, 200.0));
  const double learned =
      policy.segment_setpoint(segment(Phase::Idle, 0.2, 3.0, 200.0))
          .setpoint.value();
  const double naive =
      fresh.segment_setpoint(segment(Phase::Idle, 0.2, 3.0, 200.0))
          .setpoint.value();
  EXPECT_NE(learned, naive);
}

TEST(FcDpmPolicy, StandbyIdleUsesStandbyCurrent) {
  FcDpmPolicy sleepy = make_fcdpm();
  FcDpmPolicy awake = make_fcdpm();
  sleepy.on_idle_start(idle_context(14.0, true, 3.0, 200.0));
  awake.on_idle_start(idle_context(14.0, false, 3.0, 200.0));
  const double if_sleep =
      sleepy.segment_setpoint(segment(Phase::Idle, 0.2, 3.0, 200.0))
          .setpoint.value();
  const double if_standby =
      awake.segment_setpoint(segment(Phase::Idle, 0.4, 3.0, 200.0))
          .setpoint.value();
  // Standby burns more during idle -> higher flat setting.
  EXPECT_GT(if_standby, if_sleep);
}

TEST(FcDpmPolicy, ResetRestoresSeeds) {
  FcDpmPolicy policy = make_fcdpm();
  SlotObservation obs;
  obs.actual_active = Seconds(9.0);
  obs.actual_active_current = Ampere(0.9);
  policy.on_slot_end(obs);
  policy.on_idle_start(idle_context(14.0, true, 3.0, 200.0));
  policy.reset();

  FcDpmPolicy fresh = make_fcdpm();
  policy.on_idle_start(idle_context(14.0, true, 3.0, 200.0));
  fresh.on_idle_start(idle_context(14.0, true, 3.0, 200.0));
  EXPECT_DOUBLE_EQ(
      policy.segment_setpoint(segment(Phase::Idle, 0.2, 3.0, 200.0))
          .setpoint.value(),
      fresh.segment_setpoint(segment(Phase::Idle, 0.2, 3.0, 200.0))
          .setpoint.value());
}

TEST(FcDpmPolicy, CloneReproducesBehaviour) {
  FcDpmPolicy policy = make_fcdpm();
  SlotObservation obs;
  obs.actual_active = Seconds(7.0);
  obs.actual_active_current = Ampere(1.1);
  policy.on_slot_end(obs);

  const std::unique_ptr<FcOutputPolicy> copy = policy.clone();
  policy.on_idle_start(idle_context(12.0, true, 2.0, 200.0));
  copy->on_idle_start(idle_context(12.0, true, 2.0, 200.0));
  EXPECT_DOUBLE_EQ(
      policy.segment_setpoint(segment(Phase::Idle, 0.2, 2.0, 200.0))
          .setpoint.value(),
      copy->segment_setpoint(segment(Phase::Idle, 0.2, 2.0, 200.0))
          .setpoint.value());
}

TEST(FcDpmPolicy, LevelRestrictionSnapsSetpoints) {
  FcDpmPolicy policy = make_fcdpm();
  policy.restrict_to_levels({Ampere(0.3), Ampere(0.6), Ampere(0.9)});
  policy.on_idle_start(idle_context(14.0, true, 3.0, 200.0));
  const double if_idle =
      policy.segment_setpoint(segment(Phase::Idle, 0.2, 3.0, 200.0))
          .setpoint.value();
  EXPECT_TRUE(if_idle == 0.3 || if_idle == 0.6 || if_idle == 0.9)
      << if_idle;

  ActiveContext active;
  active.active_duration = Seconds(5.0);
  active.active_current = Ampere(1.22);
  active.storage_charge = Coulomb(4.0);
  active.storage_capacity = Coulomb(200.0);
  policy.on_active_start(active);
  const double if_active =
      policy.segment_setpoint(segment(Phase::Active, 1.22, 4.0, 200.0))
          .setpoint.value();
  EXPECT_TRUE(if_active == 0.3 || if_active == 0.6 || if_active == 0.9)
      << if_active;
}

TEST(FcDpmPolicy, LevelRestrictionSurvivesClone) {
  FcDpmPolicy policy = make_fcdpm();
  policy.restrict_to_levels({Ampere(0.3), Ampere(0.9)});
  const std::unique_ptr<FcOutputPolicy> copy = policy.clone();
  copy->on_idle_start(idle_context(14.0, true, 3.0, 200.0));
  const double if_idle =
      copy->segment_setpoint(segment(Phase::Idle, 0.2, 3.0, 200.0))
          .setpoint.value();
  EXPECT_TRUE(if_idle == 0.3 || if_idle == 0.9) << if_idle;
}

TEST(FcDpmPolicy, ShutdownIdlesTheFcWhenBufferSuffices) {
  FcDpmPolicy policy = make_fcdpm();
  policy.enable_fc_shutdown(Seconds(10.0), 1.3);
  // Sleeping idle of 14 s at ~0.21 A needs ~3 A-s; a 5 A-s buffer
  // covers it with margin.
  policy.on_idle_start(idle_context(14.0, true, 5.0, 200.0));
  EXPECT_DOUBLE_EQ(
      policy.segment_setpoint(segment(Phase::Idle, 0.2, 5.0, 200.0))
          .setpoint.value(),
      0.0);
  // The active phase still gets a positive, refill-aware setting.
  ActiveContext active;
  active.active_duration = Seconds(5.0);
  active.active_current = Ampere(1.22);
  active.storage_charge = Coulomb(2.0);
  active.storage_capacity = Coulomb(200.0);
  policy.on_active_start(active);
  EXPECT_GT(policy.segment_setpoint(segment(Phase::Active, 1.22, 2.0,
                                            200.0))
                .setpoint.value(),
            0.5);
}

TEST(FcDpmPolicy, ShutdownSkippedWithoutMarginOrSleep) {
  FcDpmPolicy low_buffer = make_fcdpm();
  low_buffer.enable_fc_shutdown(Seconds(10.0), 1.3);
  low_buffer.on_idle_start(idle_context(14.0, true, 1.0, 200.0));
  EXPECT_GT(low_buffer
                .segment_setpoint(segment(Phase::Idle, 0.2, 1.0, 200.0))
                .setpoint.value(),
            0.0);

  FcDpmPolicy standby = make_fcdpm();
  standby.enable_fc_shutdown(Seconds(10.0), 1.3);
  standby.on_idle_start(idle_context(14.0, false, 5.0, 200.0));
  EXPECT_GT(
      standby.segment_setpoint(segment(Phase::Idle, 0.4, 5.0, 200.0))
          .setpoint.value(),
      0.0);

  FcDpmPolicy short_idle = make_fcdpm();
  short_idle.enable_fc_shutdown(Seconds(20.0), 1.3);
  short_idle.on_idle_start(idle_context(14.0, true, 5.0, 200.0));
  EXPECT_GT(short_idle
                .segment_setpoint(segment(Phase::Idle, 0.2, 5.0, 200.0))
                .setpoint.value(),
            0.0);
}

TEST(FcDpmPolicy, ShutdownRejectsBadParameters) {
  FcDpmPolicy policy = make_fcdpm();
  EXPECT_THROW(policy.enable_fc_shutdown(Seconds(-1.0), 1.3),
               PreconditionError);
  EXPECT_THROW(policy.enable_fc_shutdown(Seconds(1.0), 0.9),
               PreconditionError);
}

// --- Oracle ---------------------------------------------------------------------

TEST(OraclePolicy, UsesActualsFromContext) {
  OracleFcPolicy oracle(paper_model(), camcorder());
  IdleContext context = idle_context(3.0, true, 3.0, 200.0);
  context.actual_idle = Seconds(14.0);  // prediction (3 s) is way off
  context.actual_active = Seconds(5.0);
  context.actual_active_current = Ampere(1.22);
  oracle.on_idle_start(context);

  FcDpmPolicy predictive = make_fcdpm();
  predictive.on_idle_start(context);

  const double oracle_if =
      oracle.segment_setpoint(segment(Phase::Idle, 0.2, 3.0, 200.0))
          .setpoint.value();
  // The oracle planned for a 14 s idle; the predictive policy planned
  // for 3 s; their flat settings must differ markedly.
  const double predictive_if =
      predictive.segment_setpoint(segment(Phase::Idle, 0.2, 3.0, 200.0))
          .setpoint.value();
  EXPECT_LT(oracle_if, predictive_if);
}

TEST(OraclePolicy, FlatPlanWithinRange) {
  OracleFcPolicy oracle(paper_model(), camcorder());
  IdleContext context = idle_context(10.0, false, 0.0, 6.0);
  context.actual_idle = Seconds(10.0);
  context.actual_active = Seconds(5.0);
  context.actual_active_current = Ampere(1.22);
  oracle.on_idle_start(context);
  const Ampere i_f =
      oracle.segment_setpoint(segment(Phase::Idle, 0.4, 0.0, 6.0)).setpoint;
  EXPECT_GE(i_f.value(), 0.1);
  EXPECT_LE(i_f.value(), 1.2);
}

// --- Solve clamp flag (batch-engine plan hand-off) -----------------------------

template <typename Policy>
Policy make_solving_policy();

template <>
FcDpmPolicy make_solving_policy<FcDpmPolicy>() {
  return make_fcdpm();
}

template <>
OracleFcPolicy make_solving_policy<OracleFcPolicy>() {
  return OracleFcPolicy(paper_model(), camcorder());
}

/// A sleeping 14 s idle then 5 s at 1.2 A, predicted and actual alike,
/// so FC-DPM and the oracle plan the same slot.
IdleContext plan_context(double storage, double capacity) {
  IdleContext context = idle_context(14.0, true, storage, capacity);
  context.actual_idle = Seconds(14.0);
  context.actual_active = Seconds(5.0);
  context.actual_active_current = Ampere(1.2);
  return context;
}

template <typename Policy>
class SolveClampFlag : public testing::Test {};

using SolvingPolicies = testing::Types<FcDpmPolicy, OracleFcPolicy>;
TYPED_TEST_SUITE(SolveClampFlag, SolvingPolicies);

TYPED_TEST(SolveClampFlag, CapacityClampedSolveRaisesIt) {
  // A full 3 A-s buffer cannot absorb the flat optimum's idle surplus.
  TypeParam idle_policy = make_solving_policy<TypeParam>();
  idle_policy.on_idle_start(plan_context(3.0, 3.0));
  EXPECT_TRUE(idle_policy.take_solve_clamped());

  // The active re-solve: a 0.05 A burst below the 0.1 A output floor
  // overfills the full buffer.
  TypeParam active_policy = make_solving_policy<TypeParam>();
  active_policy.on_idle_start(plan_context(3.0, 200.0));
  ASSERT_FALSE(active_policy.take_solve_clamped());
  ActiveContext active;
  active.active_duration = Seconds(9.0);
  active.active_current = Ampere(0.05);
  active.storage_charge = Coulomb(3.0);
  active.storage_capacity = Coulomb(3.0);
  active_policy.on_active_start(active);
  EXPECT_TRUE(active_policy.take_solve_clamped());
}

TYPED_TEST(SolveClampFlag, FailedSolveRaisesIt) {
  // A zero-capacity buffer is invalid solver input: the policy falls
  // back to max output and the answer is flagged.
  TypeParam policy = make_solving_policy<TypeParam>();
  policy.on_idle_start(plan_context(0.0, 0.0));
  EXPECT_DOUBLE_EQ(
      policy.segment_setpoint(segment(Phase::Idle, 0.2, 0.0, 0.0))
          .setpoint.value(),
      paper_model().max_output().value());
  EXPECT_TRUE(policy.take_solve_clamped());
}

TYPED_TEST(SolveClampFlag, CleanSolveLeavesItDown) {
  TypeParam policy = make_solving_policy<TypeParam>();
  policy.on_idle_start(plan_context(3.0, 200.0));
  EXPECT_FALSE(policy.take_solve_clamped());
}

TYPED_TEST(SolveClampFlag, TakingItResetsIt) {
  TypeParam policy = make_solving_policy<TypeParam>();
  policy.on_idle_start(plan_context(3.0, 3.0));
  EXPECT_TRUE(policy.take_solve_clamped());
  EXPECT_FALSE(policy.take_solve_clamped());
  // The flag is sticky across solves until taken.
  policy.on_idle_start(plan_context(3.0, 3.0));
  policy.on_idle_start(plan_context(3.0, 200.0));
  EXPECT_TRUE(policy.take_solve_clamped());
}

}  // namespace
}  // namespace fcdpm::core
