#include "core/numerical_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/solvers.hpp"

namespace fcdpm::core {

NumericalSlotSolver::NumericalSlotSolver(power::LinearEfficiencyModel model)
    : model_(model) {}

NumericalSlotResult NumericalSlotSolver::solve(
    const SlotLoad& load, const StorageBounds& storage) const {
  NumericalSlotResult result;

  const double ti = load.idle.value();
  const double ta = load.active.value();
  const double ild_i = load.idle_current.value();
  const double qa = (load.active_current * load.active).value();
  const double cini = storage.initial.value();
  const double cend = storage.target_end.value();
  const double cmax = storage.capacity.value();
  const double lo = model_.min_output().value();
  const double hi = model_.max_output().value();

  // Hardened input contract: instead of throwing out of the hot loop,
  // degenerate phases and non-finite inputs come back as a status.
  if (!(ti > 0.0) || !(ta > 0.0)) {
    result.status = SolveStatus::InvalidInput;
    return result;
  }
  for (const double v : {ti, ta, ild_i, qa, cini, cend, cmax}) {
    if (!std::isfinite(v)) {
      result.status = SolveStatus::InvalidInput;
      return result;
    }
  }

  const auto active_of_idle = [&](double x) {
    // Charge balance (Eq. (13)) pins IF,a once IF,i is chosen.
    return (qa + cend - cini - (x - ild_i) * ti) / ta;
  };

  const auto g = [this](double i_f) {
    return model_.stack_current(Ampere(i_f)).value();
  };

  constexpr double kPenalty = 1e6;
  constexpr int kMaxIterations = 400;
  bool saw_non_finite = false;
  const auto objective = [&](double x) {
    const double xa = active_of_idle(x);
    double value = ti * g(x);
    // Penalize (convexly) any violated box constraint so the search is
    // well-defined even when started infeasible.
    if (xa < lo) {
      value += ta * g(lo) + kPenalty * (lo - xa);
    } else if (xa > hi) {
      value += ta * g(hi) + kPenalty * (xa - hi);
    } else {
      value += ta * g(xa);
    }
    const double after_idle = cini + (x - ild_i) * ti;
    if (after_idle > cmax) {
      value += kPenalty * (after_idle - cmax);
    }
    if (after_idle < 0.0) {
      value += kPenalty * (-after_idle);
    }
    if (!std::isfinite(value)) {
      // Flag it and hand the search a huge-but-finite value so the
      // bracketing arithmetic stays defined.
      saw_non_finite = true;
      return std::numeric_limits<double>::max() / 4.0;
    }
    return value;
  };

  const ScalarMinimum best =
      golden_section_minimize(objective, lo, hi, 1e-12, kMaxIterations);
  if (obs_ != nullptr) {
    obs_->observe("core.golden_iterations",
                  static_cast<double>(best.iterations));
  }

  result.iterations = best.iterations;
  result.converged = best.iterations < kMaxIterations;

  const double xa = active_of_idle(best.x);
  const double after_idle = cini + (best.x - ild_i) * ti;
  const double fuel = ti * g(best.x) + ta * g(std::clamp(xa, lo, hi));
  if (saw_non_finite || !std::isfinite(best.x) || !std::isfinite(xa) ||
      !std::isfinite(fuel)) {
    result.status = SolveStatus::NonFinite;
    return result;
  }

  result.if_idle = Ampere(best.x);
  result.if_active = Ampere(std::clamp(xa, lo, hi));
  result.feasible = (xa >= lo - 1e-9 && xa <= hi + 1e-9 &&
                     after_idle >= -1e-9 && after_idle <= cmax + 1e-9);
  result.fuel = Coulomb(fuel);
  return result;
}

}  // namespace fcdpm::core
