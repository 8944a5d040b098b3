#include "dpm/stochastic_policy.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace fcdpm::dpm {

StochasticDpmPolicy::StochasticDpmPolicy(DevicePowerModel device,
                                         std::size_t window,
                                         std::size_t warmup,
                                         Seconds initial_estimate)
    : device_(device),
      window_(window),
      warmup_(warmup),
      initial_estimate_(initial_estimate),
      break_even_(device.break_even_time()) {
  FCDPM_EXPECTS(window >= 4, "window must hold at least 4 samples");
  FCDPM_EXPECTS(warmup >= 1 && warmup <= window,
                "warmup must lie in [1, window]");
  FCDPM_EXPECTS(initial_estimate.value() >= 0.0,
                "initial estimate must be non-negative");
}

Joule StochasticDpmPolicy::expected_standby_energy() const {
  double sum = 0.0;
  for (const double t : history_) {
    sum += t;
  }
  const double mean_idle =
      history_.empty() ? initial_estimate_.value()
                       : sum / static_cast<double>(history_.size());
  return device_.standby_power * Seconds(mean_idle);
}

Joule StochasticDpmPolicy::expected_sleep_energy() const {
  const double t_tr = device_.sleep_transition_delay().value();
  const double e_tr =
      (device_.power_down_power * device_.power_down_delay).value() +
      (device_.wake_up_power * device_.wake_up_delay).value();

  const auto sleep_energy_for = [&](double t) {
    // Transitions always happen; sleep only in the remainder. A too-
    // short idle still pays the full transition energy (and spills
    // latency, which the simulator accounts separately).
    const double sleep_time = std::max(t - t_tr, 0.0);
    return e_tr + device_.sleep_power.value() * sleep_time;
  };

  if (history_.empty()) {
    return Joule(sleep_energy_for(initial_estimate_.value()));
  }
  double sum = 0.0;
  for (const double t : history_) {
    sum += sleep_energy_for(t);
  }
  return Joule(sum / static_cast<double>(history_.size()));
}

bool StochasticDpmPolicy::would_sleep() const {
  if (history_.size() < warmup_) {
    return initial_estimate_ >= break_even_;
  }
  return expected_sleep_energy() < expected_standby_energy();
}

void StochasticDpmPolicy::plan_idle(Seconds actual_idle, IdlePlan& out) {
  if (would_sleep()) {
    plan_sleep(device_, actual_idle, out);
  } else {
    plan_standby(device_, actual_idle, out);
  }
  out.predicted_idle = predicted_idle();
}

void StochasticDpmPolicy::observe_idle(Seconds actual_idle) {
  FCDPM_EXPECTS(actual_idle.value() >= 0.0, "idle must be non-negative");
  history_.push_back(actual_idle.value());
  while (history_.size() > window_) {
    history_.pop_front();
  }
}

Seconds StochasticDpmPolicy::predicted_idle() const {
  if (history_.empty()) {
    return initial_estimate_;
  }
  double sum = 0.0;
  for (const double t : history_) {
    sum += t;
  }
  return Seconds(sum / static_cast<double>(history_.size()));
}

std::unique_ptr<DpmPolicy> StochasticDpmPolicy::clone() const {
  return std::make_unique<StochasticDpmPolicy>(*this);
}

void StochasticDpmPolicy::reset() { history_.clear(); }

}  // namespace fcdpm::dpm
