#include "resilience/retry.hpp"

#include <cmath>
#include <string>

#include "audit/audit.hpp"
#include "common/contracts.hpp"
#include "common/csv.hpp"
#include "core/slot_optimizer.hpp"

namespace fcdpm::resilience {

namespace {

/// splitmix64 finalizer: the standard cheap bijective mixer.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool finite_result(const sim::SimulationResult& r) noexcept {
  return std::isfinite(r.totals.fuel.value()) &&
         std::isfinite(r.totals.duration.value()) &&
         std::isfinite(r.totals.bled.value()) &&
         std::isfinite(r.totals.unserved.value()) &&
         std::isfinite(r.storage_end.value()) &&
         std::isfinite(r.latency_added.value());
}

}  // namespace

const char* to_string(PointErrorKind kind) noexcept {
  switch (kind) {
    case PointErrorKind::solver_diverged:
      return "solver_diverged";
    case PointErrorKind::non_finite_result:
      return "non_finite_result";
    case PointErrorKind::deadline_exceeded:
      return "deadline_exceeded";
    case PointErrorKind::contract_violation:
      return "contract_violation";
    case PointErrorKind::io_error:
      return "io_error";
    case PointErrorKind::power_undeliverable:
      return "power_undeliverable";
  }
  return "?";
}

std::size_t backoff_delay_rounds(std::uint64_t seed,
                                 std::size_t point_index,
                                 std::size_t attempt,
                                 std::size_t max_exponent) noexcept {
  const std::size_t exponent =
      attempt < max_exponent ? attempt : max_exponent;
  const std::size_t window = std::size_t{1} << exponent;
  const std::uint64_t draw =
      mix64(seed ^ mix64(static_cast<std::uint64_t>(point_index) * 2654435761u
                         + attempt));
  return 1 + static_cast<std::size_t>(draw % window);
}

PointOutcome execute_point(const sim::ExperimentConfig& base,
                           const par::SweepPoint& point,
                           std::size_t point_index,
                           std::size_t storm_faults,
                           const ExecutionContract& contract,
                           sim::CancellationToken* cancel) {
  PointOutcome out;
  if (point_index == contract.inject_fail_index) {
    out.error = {PointErrorKind::solver_diverged,
                 "injected permanent failure (test hook)"};
    return out;
  }
  try {
    out.result = par::run_point(base, point, storm_faults, cancel,
                                contract.point_deadline_slots);
  } catch (const sim::DeadlineExceededError& error) {
    out.error = {PointErrorKind::deadline_exceeded, error.what()};
    return out;
  } catch (const sim::CancelledError& error) {
    // Cancellation reaches a point only through the watchdog declaring
    // it hung — same taxonomy bucket as a blown deadline.
    out.error = {PointErrorKind::deadline_exceeded, error.what()};
    return out;
  } catch (const CsvError& error) {
    out.error = {PointErrorKind::io_error, error.what()};
    return out;
  } catch (const PreconditionError& error) {
    out.error = {PointErrorKind::contract_violation, error.what()};
    return out;
  } catch (const InvariantError& error) {
    out.error = {PointErrorKind::contract_violation, error.what()};
    return out;
  } catch (const audit::AuditError& error) {
    // Only reference-engine strict violations escape run_point (batched
    // lane violations self-heal onto the reference engine inside it); there
    // is no healthier engine to heal onto, so the point quarantines
    // under the contract taxonomy.
    out.error = {PointErrorKind::contract_violation,
                 std::string("audit: ") + error.what()};
    return out;
  } catch (const std::exception& error) {
    out.error = {PointErrorKind::contract_violation, error.what()};
    return out;
  }

  if (!finite_result(out.result.result)) {
    out.error = {PointErrorKind::non_finite_result,
                 "non-finite value in observable result"};
    return out;
  }
  if (out.result.result.robustness.has_value() &&
      out.result.result.robustness->solver_failures >
          contract.solver_failure_budget) {
    // core::classify(SolveStatus) buckets these as Numeric failures;
    // past the contract's budget the point counts as diverged.
    out.error = {
        PointErrorKind::solver_diverged,
        std::to_string(out.result.result.robustness->solver_failures) +
            " solver failures exceed budget of " +
            std::to_string(contract.solver_failure_budget) + " (" +
            core::to_string(core::SolveFailureKind::Numeric) + ")"};
    return out;
  }
  if (out.result.result.totals.unserved.value() >
      contract.unserved_budget_as) {
    out.error = {
        PointErrorKind::power_undeliverable,
        "unserved charge " +
            std::to_string(out.result.result.totals.unserved.value()) +
            " A-s exceeds budget of " +
            std::to_string(contract.unserved_budget_as) + " A-s"};
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace fcdpm::resilience
