#include "dpm/stochastic_policy.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"

namespace fcdpm::dpm {
namespace {

DevicePowerModel camcorder() { return DevicePowerModel::dvd_camcorder(); }

StochasticDpmPolicy make_policy(Seconds initial = Seconds(10.0)) {
  return StochasticDpmPolicy(camcorder(), /*window=*/16, /*warmup=*/4,
                             initial);
}

TEST(StochasticPolicy, WarmupUsesBreakEvenRule) {
  StochasticDpmPolicy optimist = make_policy(Seconds(10.0));
  EXPECT_TRUE(optimist.would_sleep());  // 10 s >= Tbe = 1 s

  StochasticDpmPolicy pessimist = make_policy(Seconds(0.2));
  EXPECT_FALSE(pessimist.would_sleep());
}

TEST(StochasticPolicy, LongIdlesLeadToSleeping) {
  StochasticDpmPolicy policy = make_policy(Seconds(0.2));
  for (int k = 0; k < 8; ++k) {
    policy.observe_idle(Seconds(15.0));
  }
  EXPECT_TRUE(policy.would_sleep());
  IdlePlan plan;
  policy.plan_idle(Seconds(15.0), plan);
  EXPECT_TRUE(plan.slept);
}

TEST(StochasticPolicy, ShortIdlesLeadToStandby) {
  StochasticDpmPolicy policy = make_policy(Seconds(10.0));
  for (int k = 0; k < 8; ++k) {
    policy.observe_idle(Seconds(0.3));
  }
  EXPECT_FALSE(policy.would_sleep());
}

TEST(StochasticPolicy, ExpectedEnergiesMatchHandComputation) {
  StochasticDpmPolicy policy = make_policy();
  for (int k = 0; k < 4; ++k) {
    policy.observe_idle(Seconds(10.0));
  }
  // standby: 4.84 W * 10 s; sleep: 4.84 (transitions) + 2.4 * 9.
  EXPECT_NEAR(policy.expected_standby_energy().value(), 48.4, 1e-9);
  EXPECT_NEAR(policy.expected_sleep_energy().value(),
              4.84 + 2.4 * 9.0, 1e-9);
}

TEST(StochasticPolicy, MixedDistributionDecidesByExpectation) {
  // Half the idles are 0.4 s (sleeping loses), half are 30 s (sleeping
  // wins big): expectation favors sleeping even though a point
  // predictor around the mean of logs might waffle.
  StochasticDpmPolicy policy = make_policy();
  for (int k = 0; k < 8; ++k) {
    policy.observe_idle(Seconds(k % 2 == 0 ? 0.4 : 30.0));
  }
  // E[standby] = 4.84 * 15.2 = 73.6; E[sleep] ~ 4.84 + 2.4 * E[max(T-1,0)]
  // = 4.84 + 2.4 * 14.5 = 39.6.
  EXPECT_TRUE(policy.would_sleep());
}

TEST(StochasticPolicy, BorderlineDistributionPrefersStandby) {
  // All idles exactly at the break-even time: sleeping and standby tie
  // in theory; the strict '<' keeps the device in standby.
  StochasticDpmPolicy policy = make_policy();
  for (int k = 0; k < 8; ++k) {
    policy.observe_idle(camcorder().break_even_time());
  }
  EXPECT_FALSE(policy.would_sleep());
}

TEST(StochasticPolicy, PredictedIdleIsWindowMean) {
  StochasticDpmPolicy policy = make_policy(Seconds(7.0));
  EXPECT_DOUBLE_EQ(policy.predicted_idle().value(), 7.0);
  policy.observe_idle(Seconds(10.0));
  policy.observe_idle(Seconds(20.0));
  EXPECT_DOUBLE_EQ(policy.predicted_idle().value(), 15.0);
}

TEST(StochasticPolicy, WindowSlides) {
  StochasticDpmPolicy policy(camcorder(), 4, 2, Seconds(10.0));
  for (int k = 0; k < 10; ++k) {
    policy.observe_idle(Seconds(100.0));
  }
  for (int k = 0; k < 4; ++k) {
    policy.observe_idle(Seconds(0.2));
  }
  // Old regime fully evicted.
  EXPECT_DOUBLE_EQ(policy.predicted_idle().value(), 0.2);
  EXPECT_FALSE(policy.would_sleep());
}

TEST(StochasticPolicy, ResetForgetsHistory) {
  StochasticDpmPolicy policy = make_policy(Seconds(10.0));
  for (int k = 0; k < 8; ++k) {
    policy.observe_idle(Seconds(0.2));
  }
  policy.reset();
  EXPECT_DOUBLE_EQ(policy.predicted_idle().value(), 10.0);
  EXPECT_TRUE(policy.would_sleep());
}

TEST(StochasticPolicy, CloneIsIndependent) {
  StochasticDpmPolicy policy = make_policy();
  policy.observe_idle(Seconds(5.0));
  const std::unique_ptr<DpmPolicy> copy = policy.clone();
  copy->observe_idle(Seconds(50.0));
  EXPECT_DOUBLE_EQ(policy.predicted_idle().value(), 5.0);
  EXPECT_DOUBLE_EQ(copy->predicted_idle().value(), 27.5);
}

TEST(StochasticPolicy, RejectsBadConstruction) {
  EXPECT_THROW(StochasticDpmPolicy(camcorder(), 2, 1, Seconds(1.0)),
               PreconditionError);
  EXPECT_THROW(StochasticDpmPolicy(camcorder(), 8, 0, Seconds(1.0)),
               PreconditionError);
  EXPECT_THROW(StochasticDpmPolicy(camcorder(), 8, 9, Seconds(1.0)),
               PreconditionError);
  EXPECT_THROW(StochasticDpmPolicy(camcorder(), 8, 4, Seconds(-1.0)),
               PreconditionError);
}

}  // namespace
}  // namespace fcdpm::dpm
