#include "dpm/dpm_policy.hpp"

#include <utility>

#include "common/contracts.hpp"

namespace fcdpm::dpm {

void plan_standby(const DevicePowerModel& device, Seconds actual_idle,
                  IdlePlan& plan) {
  FCDPM_EXPECTS(actual_idle.value() >= 0.0, "idle length must be >= 0");
  plan.slept = false;
  plan.predicted_idle = Seconds(0.0);
  plan.latency_spill = Seconds(0.0);
  plan.count = 0;
  if (actual_idle.value() > 0.0) {
    plan.segments[plan.count++] =
        {actual_idle, device.standby_current(), PowerState::Standby};
  }
}

void plan_sleep(const DevicePowerModel& device, Seconds actual_idle,
                IdlePlan& plan) {
  FCDPM_EXPECTS(actual_idle.value() >= 0.0, "idle length must be >= 0");
  plan.slept = true;
  plan.predicted_idle = Seconds(0.0);
  plan.count = 0;

  const Seconds transitions = device.sleep_transition_delay();
  const Seconds sleep_time =
      max(actual_idle - transitions, Seconds(0.0));
  plan.latency_spill = max(transitions - actual_idle, Seconds(0.0));

  if (device.power_down_delay.value() > 0.0) {
    plan.segments[plan.count++] = {device.power_down_delay,
                                   device.power_down_current(),
                                   PowerState::Sleep};
  }
  if (sleep_time.value() > 0.0) {
    plan.segments[plan.count++] =
        {sleep_time, device.sleep_current(), PowerState::Sleep};
  }
  if (device.wake_up_delay.value() > 0.0) {
    plan.segments[plan.count++] =
        {device.wake_up_delay, device.wake_up_current(), PowerState::Sleep};
  }
}

// --- PredictiveDpmPolicy -----------------------------------------------------

PredictiveDpmPolicy::PredictiveDpmPolicy(
    DevicePowerModel device, std::unique_ptr<DurationPredictor> predictor)
    : device_(device),
      predictor_(std::move(predictor)),
      break_even_(device.break_even_time()) {
  FCDPM_EXPECTS(predictor_ != nullptr, "predictor must be provided");
}

PredictiveDpmPolicy PredictiveDpmPolicy::paper_policy(
    DevicePowerModel device, double rho, Seconds initial) {
  return PredictiveDpmPolicy(
      device, std::make_unique<ExponentialAveragePredictor>(rho, initial));
}

void PredictiveDpmPolicy::plan_idle(Seconds actual_idle, IdlePlan& out) {
  const Seconds predicted = predictor_->predict();
  accuracy_.record(predicted, actual_idle, break_even_);

  if (predicted >= break_even_) {
    plan_sleep(device_, actual_idle, out);
  } else {
    plan_standby(device_, actual_idle, out);
  }
  out.predicted_idle = predicted;

  emit_decision(out.slept, out.latency_spill, predicted, actual_idle);
}

void PredictiveDpmPolicy::emit_decision(bool slept, Seconds latency_spill,
                                        Seconds predicted,
                                        Seconds actual_idle) {
  if (obs_ == nullptr) {
    return;
  }
  if (obs_->metering()) {
    obs_->count(slept ? "dpm.decision.sleep" : "dpm.decision.standby");
    obs_->observe("dpm.predictor_abs_error_s",
                  fcdpm::abs(predicted - actual_idle).value());
    if (latency_spill.value() > 0.0) {
      obs_->count("dpm.latency_spills");
      obs_->observe("dpm.latency_spill_s", latency_spill.value());
    }
  }
  if (obs_->tracing()) {
    obs_->instant("dpm", slept ? "dpm.sleep" : "dpm.standby",
                  {{"predicted_idle_s", predicted.value()},
                   {"actual_idle_s", actual_idle.value()},
                   {"break_even_s", break_even_.value()},
                   {"latency_spill_s", latency_spill.value()}});
  }
}

void PredictiveDpmPolicy::observe_idle(Seconds actual_idle) {
  predictor_->observe(actual_idle);
}

Seconds PredictiveDpmPolicy::predicted_idle() const {
  return predictor_->predict();
}

std::string PredictiveDpmPolicy::name() const {
  return "predictive(" + predictor_->name() + ")";
}

std::unique_ptr<DpmPolicy> PredictiveDpmPolicy::clone() const {
  auto copy =
      std::make_unique<PredictiveDpmPolicy>(device_, predictor_->clone());
  copy->accuracy_ = accuracy_;
  return copy;
}

void PredictiveDpmPolicy::reset() {
  predictor_->reset();
  accuracy_ = PredictionAccuracy{};
}

// --- TimeoutDpmPolicy --------------------------------------------------------

TimeoutDpmPolicy::TimeoutDpmPolicy(DevicePowerModel device, Seconds timeout)
    : device_(device), timeout_(timeout) {
  FCDPM_EXPECTS(timeout.value() >= 0.0, "timeout must be non-negative");
}

void TimeoutDpmPolicy::plan_idle(Seconds actual_idle, IdlePlan& out) {
  FCDPM_EXPECTS(actual_idle.value() >= 0.0, "idle length must be >= 0");

  // A timeout policy has no real prediction; the last observed idle is
  // the best signal it can hand to prediction consumers (the FC-DPM
  // output controller plans against this value).
  const Seconds estimate =
      (last_idle_.value() > 0.0) ? last_idle_ : timeout_;

  if (actual_idle <= timeout_) {
    plan_standby(device_, actual_idle, out);
    out.predicted_idle = estimate;
    return;
  }

  // STANDBY for the timeout, then a sleep episode in the remainder.
  plan_sleep(device_, actual_idle - timeout_, out);
  if (timeout_.value() > 0.0) {
    FCDPM_ENSURES(out.count < out.segments.size(),
                  "idle plan exceeds inline segment storage");
    for (std::size_t k = out.count; k > 0; --k) {
      out.segments[k] = out.segments[k - 1];
    }
    out.segments[0] =
        {timeout_, device_.standby_current(), PowerState::Standby};
    ++out.count;
  }
  out.predicted_idle = estimate;
}

std::unique_ptr<DpmPolicy> TimeoutDpmPolicy::clone() const {
  return std::make_unique<TimeoutDpmPolicy>(*this);
}

// --- AlwaysStandbyDpmPolicy --------------------------------------------------

AlwaysStandbyDpmPolicy::AlwaysStandbyDpmPolicy(DevicePowerModel device)
    : device_(device) {}

void AlwaysStandbyDpmPolicy::plan_idle(Seconds actual_idle,
                                       IdlePlan& out) {
  plan_standby(device_, actual_idle, out);
}

std::unique_ptr<DpmPolicy> AlwaysStandbyDpmPolicy::clone() const {
  return std::make_unique<AlwaysStandbyDpmPolicy>(*this);
}

}  // namespace fcdpm::dpm
