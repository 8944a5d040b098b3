#include "resilience/retry.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/slot_optimizer.hpp"
#include "par/sweep.hpp"
#include "sim/experiments.hpp"

namespace fcdpm::resilience {
namespace {

sim::ExperimentConfig small_base() {
  sim::ExperimentConfig config = sim::experiment1_config();
  config.trace = config.trace.truncated(Seconds(60.0));
  return config;
}

par::SweepPoint fcdpm_point(const sim::ExperimentConfig& base) {
  return {sim::PolicyKind::FcDpm, base.rho, base.storage_capacity, 0};
}

TEST(BackoffTest, IsDeterministicBoundedAndExponentiallyWindowed) {
  const std::uint64_t seed = 0x1234ull;
  for (std::size_t point = 0; point < 8; ++point) {
    for (std::size_t attempt = 1; attempt <= 10; ++attempt) {
      const std::size_t delay =
          backoff_delay_rounds(seed, point, attempt, 6);
      EXPECT_EQ(delay, backoff_delay_rounds(seed, point, attempt, 6));
      EXPECT_GE(delay, 1u);
      const std::size_t exponent = attempt < 6 ? attempt : 6;
      EXPECT_LE(delay, std::size_t{1} << exponent);
    }
  }
}

TEST(BackoffTest, DistinctPointsDeschedulesDifferently) {
  // With a growing window, points must not thunder back in lockstep:
  // across 32 points at attempt 4 (window 16) we expect several
  // distinct delays.
  std::set<std::size_t> delays;
  for (std::size_t point = 0; point < 32; ++point) {
    delays.insert(backoff_delay_rounds(99, point, 4, 6));
  }
  EXPECT_GT(delays.size(), 4u);
}

TEST(BackoffTest, SeedChangesTheOrdering) {
  bool any_differs = false;
  for (std::size_t point = 0; point < 16 && !any_differs; ++point) {
    any_differs = backoff_delay_rounds(1, point, 3, 6) !=
                  backoff_delay_rounds(2, point, 3, 6);
  }
  EXPECT_TRUE(any_differs);
}

TEST(PointErrorKindTest, NamesAreStableJournalTokens) {
  EXPECT_STREQ(to_string(PointErrorKind::solver_diverged),
               "solver_diverged");
  EXPECT_STREQ(to_string(PointErrorKind::non_finite_result),
               "non_finite_result");
  EXPECT_STREQ(to_string(PointErrorKind::deadline_exceeded),
               "deadline_exceeded");
  EXPECT_STREQ(to_string(PointErrorKind::contract_violation),
               "contract_violation");
  EXPECT_STREQ(to_string(PointErrorKind::io_error), "io_error");
  EXPECT_STREQ(to_string(PointErrorKind::power_undeliverable),
               "power_undeliverable");
}

TEST(SolveFailureKindTest, ClassifiesTheSolveStatusTaxonomy) {
  EXPECT_EQ(core::classify(core::SolveStatus::Ok),
            core::SolveFailureKind::None);
  EXPECT_EQ(core::classify(core::SolveStatus::InvalidInput),
            core::SolveFailureKind::Contract);
  EXPECT_EQ(core::classify(core::SolveStatus::NonFinite),
            core::SolveFailureKind::Numeric);
  EXPECT_STREQ(core::to_string(core::SolveFailureKind::None), "none");
  EXPECT_STREQ(core::to_string(core::SolveFailureKind::Contract),
               "contract");
  EXPECT_STREQ(core::to_string(core::SolveFailureKind::Numeric),
               "numeric");
}

TEST(ExecutePointTest, CleanPointMatchesPlainRunPointBitwise) {
  const sim::ExperimentConfig base = small_base();
  const par::SweepPoint point = fcdpm_point(base);
  const par::SweepPointResult outcome =
      par::execute_point(base, point, 0, 12, ExecutionContract{},
                    nullptr);
  ASSERT_TRUE(outcome.ok);

  const par::SweepPointResult direct =
      par::run_point(base, point, 12);
  EXPECT_EQ(outcome.result.totals.fuel.value(),
            direct.result.totals.fuel.value());
  EXPECT_EQ(outcome.result.storage_end.value(),
            direct.result.storage_end.value());
  EXPECT_EQ(outcome.result.sleeps, direct.result.sleeps);
}

TEST(ExecutePointTest, InjectedFailureMapsToSolverDivergedWithoutThrow) {
  const sim::ExperimentConfig base = small_base();
  ExecutionContract contract;
  contract.inject_fail_index = 3;
  const par::SweepPointResult outcome = par::execute_point(
      base, fcdpm_point(base), 3, 12, contract, nullptr);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error.kind, PointErrorKind::solver_diverged);
  EXPECT_FALSE(outcome.error.detail.empty());

  // Another index under the same contract is unaffected.
  const par::SweepPointResult clean = par::execute_point(
      base, fcdpm_point(base), 4, 12, contract, nullptr);
  EXPECT_TRUE(clean.ok);
}

TEST(ExecutePointTest, SlotBudgetDeadlineMapsToDeadlineExceeded) {
  const sim::ExperimentConfig base = small_base();
  ExecutionContract contract;
  contract.point_deadline_slots = 2;  // trace has more slots than this
  const par::SweepPointResult outcome = par::execute_point(
      base, fcdpm_point(base), 0, 12, contract, nullptr);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error.kind, PointErrorKind::deadline_exceeded);
  EXPECT_NE(outcome.error.detail.find("slot budget"), std::string::npos);
}

TEST(ExecutePointTest, PreCancelledTokenFailsTheAttemptOnly) {
  const sim::ExperimentConfig base = small_base();
  sim::CancellationToken token;
  token.cancel();
  const par::SweepPointResult outcome = par::execute_point(
      base, fcdpm_point(base), 0, 12, ExecutionContract{},
      &token);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error.kind, PointErrorKind::deadline_exceeded);

  // After reset the same token lets the point run to completion.
  token.reset();
  const par::SweepPointResult retried = par::execute_point(
      base, fcdpm_point(base), 0, 12, ExecutionContract{},
      &token);
  EXPECT_TRUE(retried.ok);
  EXPECT_GT(token.heartbeat(), 0u);
}

TEST(ExecutePointTest, UnservedBudgetQuarantinesABrownedOutPoint) {
  // Storm 11 over experiment 1 at 3 F leaves ~30 A-s unserved; a 25 A-s
  // contract declares the point power_undeliverable. The same storm
  // with the cap governor attached throttles through and stays ok.
  sim::ExperimentConfig base = sim::experiment1_config();
  const par::SweepPoint stormy{sim::PolicyKind::FcDpm, base.rho,
                               Coulomb(3.0), 11};
  ExecutionContract contract;
  contract.unserved_budget_as = 25.0;

  const par::SweepPointResult uncapped =
      par::execute_point(base, stormy, 0, 14, contract, nullptr);
  ASSERT_FALSE(uncapped.ok);
  EXPECT_EQ(uncapped.error.kind, PointErrorKind::power_undeliverable);
  EXPECT_NE(uncapped.error.detail.find("unserved"), std::string::npos);

  base.cap.enabled = true;
  const par::SweepPointResult capped =
      par::execute_point(base, stormy, 0, 14, contract, nullptr);
  ASSERT_TRUE(capped.ok);
  ASSERT_TRUE(capped.result.cap.has_value());
  EXPECT_GT(capped.result.cap->slots_capped, 0u);
  EXPECT_EQ(capped.result.cap->budget_violations, 0u);
}

TEST(ExecutePointTest, SolverFailureBudgetZeroQuarantinesAStormPoint) {
  // A fault storm drives solver fallbacks; with a zero-failure budget
  // the point is declared diverged instead of degrading gracefully.
  const sim::ExperimentConfig base = small_base();
  const par::SweepPoint stormy{sim::PolicyKind::FcDpm, base.rho,
                               base.storage_capacity, 1234};
  ExecutionContract strict;
  strict.solver_failure_budget = 0;
  const par::SweepPointResult outcome =
      par::execute_point(base, stormy, 0, 64, strict, nullptr);
  if (!outcome.ok) {
    EXPECT_EQ(outcome.error.kind, PointErrorKind::solver_diverged);
    EXPECT_NE(outcome.error.detail.find("budget"), std::string::npos);
  } else {
    // The storm may legitimately produce zero solver failures; the
    // default (unlimited) contract must then agree.
    const par::SweepPointResult lax = par::execute_point(
        base, stormy, 0, 64, ExecutionContract{}, nullptr);
    EXPECT_TRUE(lax.ok);
  }
}

}  // namespace
}  // namespace fcdpm::resilience
