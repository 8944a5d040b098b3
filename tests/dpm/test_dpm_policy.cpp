#include "dpm/dpm_policy.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/contracts.hpp"

namespace fcdpm::dpm {
namespace {

DevicePowerModel camcorder() { return DevicePowerModel::dvd_camcorder(); }

IdlePlan standby_layout(const DevicePowerModel& device, Seconds idle) {
  IdlePlan plan;
  plan_standby(device, idle, plan);
  return plan;
}

IdlePlan sleep_layout(const DevicePowerModel& device, Seconds idle) {
  IdlePlan plan;
  plan_sleep(device, idle, plan);
  return plan;
}

IdlePlan plan_of(DpmPolicy& policy, Seconds idle) {
  IdlePlan plan;
  policy.plan_idle(idle, plan);
  return plan;
}

TEST(PlanStandby, SingleSegmentAtStandbyCurrent) {
  const IdlePlan plan = standby_layout(camcorder(), Seconds(12.0));
  EXPECT_FALSE(plan.slept);
  ASSERT_EQ(plan.count, 1u);
  EXPECT_DOUBLE_EQ(plan.segments[0].duration.value(), 12.0);
  EXPECT_EQ(plan.segments[0].state, PowerState::Standby);
  EXPECT_NEAR(plan.segments[0].current.value(), 4.84 / 12.0, 1e-12);
  EXPECT_DOUBLE_EQ(plan.latency_spill.value(), 0.0);
  EXPECT_DOUBLE_EQ(plan.total_duration().value(), 12.0);
}

TEST(PlanStandby, ZeroIdleHasNoSegments) {
  const IdlePlan plan = standby_layout(camcorder(), Seconds(0.0));
  EXPECT_EQ(plan.count, 0u);
  EXPECT_DOUBLE_EQ(plan.total_charge().value(), 0.0);
}

TEST(PlanSleep, ThreeSegmentLayout) {
  const IdlePlan plan = sleep_layout(camcorder(), Seconds(12.0));
  EXPECT_TRUE(plan.slept);
  ASSERT_EQ(plan.count, 3u);
  EXPECT_DOUBLE_EQ(plan.segments[0].duration.value(), 0.5);  // power down
  EXPECT_DOUBLE_EQ(plan.segments[1].duration.value(), 11.0);  // sleep
  EXPECT_DOUBLE_EQ(plan.segments[2].duration.value(), 0.5);  // wake up
  EXPECT_NEAR(plan.segments[1].current.value(), 0.2, 1e-12);
  EXPECT_DOUBLE_EQ(plan.total_duration().value(), 12.0);
  EXPECT_DOUBLE_EQ(plan.latency_spill.value(), 0.0);
}

TEST(PlanSleep, ChargeAccounting) {
  const IdlePlan plan = sleep_layout(camcorder(), Seconds(12.0));
  const double expected = 2 * 0.5 * (4.84 / 12.0) + 11.0 * 0.2;
  EXPECT_NEAR(plan.total_charge().value(), expected, 1e-9);
}

TEST(PlanSleep, TooShortIdleSpillsAsLatency) {
  // Idle of 0.6 s cannot hold 1.0 s of transitions: wake completes late.
  const IdlePlan plan = sleep_layout(camcorder(), Seconds(0.6));
  EXPECT_TRUE(plan.slept);
  EXPECT_NEAR(plan.latency_spill.value(), 0.4, 1e-12);
  // Only the two transition segments; no actual sleep time.
  ASSERT_EQ(plan.count, 2u);
  EXPECT_NEAR(plan.total_duration().value(), 1.0, 1e-12);
}

TEST(PredictivePolicy, SleepsWhenPredictionAboveBreakEven) {
  PredictiveDpmPolicy policy(
      camcorder(), std::make_unique<FixedPredictor>(Seconds(5.0)));
  const IdlePlan plan = plan_of(policy, Seconds(10.0));
  EXPECT_TRUE(plan.slept);
  EXPECT_DOUBLE_EQ(plan.predicted_idle.value(), 5.0);
}

TEST(PredictivePolicy, StaysInStandbyWhenPredictionBelowBreakEven) {
  PredictiveDpmPolicy policy(
      camcorder(), std::make_unique<FixedPredictor>(Seconds(0.5)));
  const IdlePlan plan = plan_of(policy, Seconds(10.0));
  EXPECT_FALSE(plan.slept);
}

TEST(PredictivePolicy, DecisionUsesPredictionNotActual) {
  // Prediction below Tbe, actual huge: must still stay in standby — the
  // policy cannot peek at the future.
  PredictiveDpmPolicy policy(
      camcorder(), std::make_unique<FixedPredictor>(Seconds(0.2)));
  const IdlePlan plan = plan_of(policy, Seconds(1000.0));
  EXPECT_FALSE(plan.slept);
}

TEST(PredictivePolicy, PaperPolicyUsesEquation14) {
  PredictiveDpmPolicy policy = PredictiveDpmPolicy::paper_policy(
      camcorder(), /*rho=*/0.5, /*initial=*/Seconds(10.0));
  EXPECT_DOUBLE_EQ(policy.predicted_idle().value(), 10.0);
  policy.observe_idle(Seconds(20.0));
  EXPECT_DOUBLE_EQ(policy.predicted_idle().value(), 15.0);
}

TEST(PredictivePolicy, BreakEvenMatchesDevice) {
  const PredictiveDpmPolicy policy = PredictiveDpmPolicy::paper_policy(
      camcorder(), 0.5, Seconds(10.0));
  EXPECT_NEAR(policy.break_even().value(), 1.0, 1e-9);
}

TEST(PredictivePolicy, AccuracyTallyGrows) {
  PredictiveDpmPolicy policy(
      camcorder(), std::make_unique<FixedPredictor>(Seconds(5.0)));
  (void)plan_of(policy, Seconds(10.0));  // correct sleep
  (void)plan_of(policy, Seconds(0.2));   // false sleep
  EXPECT_EQ(policy.accuracy().total(), 2u);
  EXPECT_EQ(policy.accuracy().false_sleeps(), 1u);
}

TEST(PredictivePolicy, CloneAndResetBehave) {
  PredictiveDpmPolicy policy = PredictiveDpmPolicy::paper_policy(
      camcorder(), 0.5, Seconds(10.0));
  policy.observe_idle(Seconds(30.0));
  const std::unique_ptr<DpmPolicy> copy = policy.clone();
  EXPECT_DOUBLE_EQ(copy->predicted_idle().value(), 20.0);
  policy.reset();
  EXPECT_DOUBLE_EQ(policy.predicted_idle().value(), 10.0);
  EXPECT_DOUBLE_EQ(copy->predicted_idle().value(), 20.0);
}

TEST(TimeoutPolicy, ShortIdleNeverSleeps) {
  TimeoutDpmPolicy policy(camcorder(), Seconds(5.0));
  const IdlePlan plan = plan_of(policy, Seconds(4.0));
  EXPECT_FALSE(plan.slept);
  ASSERT_EQ(plan.count, 1u);
  EXPECT_EQ(plan.segments[0].state, PowerState::Standby);
}

TEST(TimeoutPolicy, LongIdleWaitsThenSleeps) {
  TimeoutDpmPolicy policy(camcorder(), Seconds(5.0));
  const IdlePlan plan = plan_of(policy, Seconds(12.0));
  EXPECT_TRUE(plan.slept);
  ASSERT_EQ(plan.count, 4u);
  EXPECT_EQ(plan.segments[0].state, PowerState::Standby);
  EXPECT_DOUBLE_EQ(plan.segments[0].duration.value(), 5.0);
  // Remaining 7 s: 0.5 PD + 6 sleep + 0.5 WU.
  EXPECT_DOUBLE_EQ(plan.segments[2].duration.value(), 6.0);
  EXPECT_DOUBLE_EQ(plan.total_duration().value(), 12.0);
}

TEST(IdlePlan, FourSegmentsCoverTheDeepestLayout) {
  // Timeout shutdown is the deepest layout: standby wait + power-down +
  // sleep + wake-up.
  TimeoutDpmPolicy policy(camcorder(), Seconds(2.0));
  policy.observe_idle(Seconds(30.0));
  const IdlePlan plan = plan_of(policy, Seconds(30.0));
  EXPECT_EQ(plan.count, plan.segments.size());
  EXPECT_TRUE(plan.slept);
}

// Every simulator holds one IdlePlan per run and refills it in place each
// slot, so plan_idle must overwrite everything a previous layout left in
// the inline storage. Drive a policy (refilling one reused, pre-soiled
// plan) and its clone (a fresh plan each step) through the same idle
// sequence; every step must agree exactly.
const double kIdleSequence[] = {0.4, 5.0,  0.9, 12.0, 1.0, 0.05,
                                7.5, 2.0, 30.0, 0.0,  0.3, 30.0};

void expect_plans_equal(const IdlePlan& fresh, const IdlePlan& reused) {
  EXPECT_EQ(fresh.slept, reused.slept);
  EXPECT_EQ(fresh.predicted_idle.value(), reused.predicted_idle.value());
  EXPECT_EQ(fresh.latency_spill.value(), reused.latency_spill.value());
  ASSERT_EQ(fresh.count, reused.count);
  for (std::size_t k = 0; k < fresh.count; ++k) {
    EXPECT_EQ(fresh.segments[k].duration.value(),
              reused.segments[k].duration.value());
    EXPECT_EQ(fresh.segments[k].current.value(),
              reused.segments[k].current.value());
    EXPECT_EQ(fresh.segments[k].state, reused.segments[k].state);
  }
  EXPECT_EQ(fresh.total_duration().value(), reused.total_duration().value());
  EXPECT_EQ(fresh.total_charge().value(), reused.total_charge().value());
}

void expect_reused_plan_matches_fresh(DpmPolicy& policy) {
  const std::unique_ptr<DpmPolicy> twin = policy.clone();
  IdlePlan reused;
  reused.slept = true;
  reused.predicted_idle = Seconds(99.0);
  reused.latency_spill = Seconds(99.0);
  reused.segments.fill({Seconds(99.0), Ampere(99.0), PowerState::Sleep});
  reused.count = reused.segments.size();
  for (const double idle : kIdleSequence) {
    const Seconds actual(idle);
    const IdlePlan fresh = plan_of(policy, actual);
    twin->plan_idle(actual, reused);
    expect_plans_equal(fresh, reused);
    policy.observe_idle(actual);
    twin->observe_idle(actual);
    EXPECT_EQ(policy.predicted_idle().value(),
              twin->predicted_idle().value());
  }
}

TEST(InlineIdlePlan, PredictivePolicyPlansIdentically) {
  PredictiveDpmPolicy policy =
      PredictiveDpmPolicy::paper_policy(camcorder(), 0.5, Seconds(5.0));
  expect_reused_plan_matches_fresh(policy);
}

TEST(InlineIdlePlan, PredictivePolicyOnSlowDevicePlansIdentically) {
  PredictiveDpmPolicy policy = PredictiveDpmPolicy::paper_policy(
      DevicePowerModel::experiment2_device(), 0.5, Seconds(5.0));
  expect_reused_plan_matches_fresh(policy);
}

TEST(InlineIdlePlan, TimeoutPolicyPlansIdentically) {
  TimeoutDpmPolicy policy(camcorder(), Seconds(2.0));
  expect_reused_plan_matches_fresh(policy);
}

TEST(InlineIdlePlan, AlwaysStandbyPolicyPlansIdentically) {
  AlwaysStandbyDpmPolicy policy(camcorder());
  expect_reused_plan_matches_fresh(policy);
}

TEST(TimeoutPolicy, ZeroTimeoutIsSleepAsap) {
  TimeoutDpmPolicy policy(camcorder(), Seconds(0.0));
  const IdlePlan plan = plan_of(policy, Seconds(10.0));
  EXPECT_TRUE(plan.slept);
  ASSERT_EQ(plan.count, 3u);
}

TEST(AlwaysStandbyPolicy, NeverSleeps) {
  AlwaysStandbyDpmPolicy policy(camcorder());
  const IdlePlan plan = plan_of(policy, Seconds(1000.0));
  EXPECT_FALSE(plan.slept);
  EXPECT_EQ(policy.name(), "always-standby");
}

TEST(Policies, RejectNegativeIdle) {
  PredictiveDpmPolicy policy = PredictiveDpmPolicy::paper_policy(
      camcorder(), 0.5, Seconds(10.0));
  EXPECT_THROW((void)plan_of(policy, Seconds(-1.0)), PreconditionError);
}

class BreakEvenDecisionSweep : public ::testing::TestWithParam<double> {};

TEST_P(BreakEvenDecisionSweep, DecisionFlipsExactlyAtThreshold) {
  const double predicted = GetParam();
  PredictiveDpmPolicy policy(
      camcorder(),
      std::make_unique<FixedPredictor>(Seconds(predicted)));
  const IdlePlan plan = plan_of(policy, Seconds(10.0));
  EXPECT_EQ(plan.slept, predicted >= policy.break_even().value());
}

INSTANTIATE_TEST_SUITE_P(Predictions, BreakEvenDecisionSweep,
                         ::testing::Values(0.0, 0.5, 0.99, 1.0, 1.01, 5.0,
                                           20.0));

}  // namespace
}  // namespace fcdpm::dpm
