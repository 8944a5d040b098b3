#include "core/fc_policy.hpp"

#include <bit>
#include <cstdint>
#include <utility>

#include "common/contracts.hpp"
#include "fault/fault.hpp"

namespace fcdpm::core {

namespace {

/// Average device current over an idle period of length `idle` laid out
/// per the sleep decision (physical layout: power-down, sleep, wake-up).
Ampere planned_idle_current(const dpm::DevicePowerModel& device,
                            bool will_sleep, Seconds idle) {
  if (!will_sleep) {
    return device.standby_current();
  }
  const Seconds transitions = device.sleep_transition_delay();
  const Seconds sleep_time = max(idle - transitions, Seconds(0.0));
  const Coulomb charge = device.sleep_transition_charge() +
                         device.sleep_current() * sleep_time;
  const Seconds span = max(idle, transitions);
  return charge / span;
}

/// Record which Lagrange projections shaped a solved setting, and the
/// plan itself, into the attached observability context (Section 3.3.1's
/// range / Cmax / empty-floor clamps plus the bleeder extreme case).
void note_projection(obs::Context* obs, const char* event,
                     const SlotSetting& setting) {
  if (obs == nullptr) {
    return;
  }
  obs->count("core.solves");
  if (setting.range_clamped) {
    obs->count("core.clamp.range");
  }
  if (setting.capacity_clamped) {
    obs->count("core.clamp.capacity");
  }
  if (setting.floor_clamped) {
    obs->count("core.clamp.floor");
  }
  if (setting.bleed_expected) {
    obs->count("core.clamp.bleed_expected");
  }
  obs->observe("core.setpoint_A", setting.if_active.value());
  if (!obs->tracing()) {
    return;
  }
  obs->instant("core", event,
               {{"if_idle_A", setting.if_idle.value()},
                {"if_active_A", setting.if_active.value()},
                {"unconstrained_A", setting.unconstrained.value()},
                {"clamped",
                 (setting.range_clamped || setting.capacity_clamped ||
                  setting.floor_clamped)
                     ? 1.0
                     : 0.0}});
}

/// Project possibly-infeasible storage bounds back into [0, capacity]
/// (a faded buffer can leave the pinned Cend — or even Cini — above the
/// usable ceiling). Returns whether anything moved.
bool reproject_bounds(StorageBounds& s) {
  if (s.capacity.value() <= 0.0) {
    return false;  // nothing sensible to project onto; solver reports it
  }
  const StorageBounds before = s;
  s.initial = clamp(s.initial, Coulomb(0.0), s.capacity);
  s.target_end = clamp(s.target_end, Coulomb(0.0), s.capacity);
  return s.initial != before.initial || s.target_end != before.target_end;
}

void note_reprojection(obs::Context* obs, fault::RobustnessStats* stats) {
  if (stats != nullptr) {
    ++stats->reprojections;
  }
  if (obs != nullptr) {
    obs->count("fault.reprojections");
  }
}

/// A checked solve failed: record it and report the safe fallback (the
/// Conv-DPM flat setting — always feasible for the hardware).
void note_fallback(obs::Context* obs, fault::RobustnessStats* stats,
                   const char* event, SolveStatus status) {
  if (stats != nullptr) {
    ++stats->solver_failures;
    ++stats->fallbacks;
  }
  if (obs != nullptr) {
    obs->count("fault.solver_failures");
    obs->count("fault.fallbacks");
    if (obs->tracing()) {
      obs->instant("core", event,
                   {{"status", static_cast<double>(static_cast<int>(status))}});
    }
  }
}

/// Top of the load-following range under an output derate (never below
/// the bottom of the range — the FC cannot run below min_output).
Ampere derated_max(const power::LinearEfficiencyModel& model,
                   double derate) {
  return max(model.min_output(), model.max_output() * derate);
}

// merge_equivalent compares doubles bitwise: consumers need
// bit-identical futures, and == would conflate -0.0 with 0.0 (whose
// downstream arithmetic can differ in the last bit).
[[nodiscard]] bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

[[nodiscard]] bool same_model(const power::LinearEfficiencyModel& a,
                              const power::LinearEfficiencyModel& b) noexcept {
  return same_bits(a.bus_voltage().value(), b.bus_voltage().value()) &&
         same_bits(a.zeta(), b.zeta()) && same_bits(a.alpha(), b.alpha()) &&
         same_bits(a.beta(), b.beta()) &&
         same_bits(a.min_output().value(), b.min_output().value()) &&
         same_bits(a.max_output().value(), b.max_output().value());
}

[[nodiscard]] bool same_device(const dpm::DevicePowerModel& a,
                               const dpm::DevicePowerModel& b) noexcept {
  return same_bits(a.bus_voltage.value(), b.bus_voltage.value()) &&
         same_bits(a.run_power.value(), b.run_power.value()) &&
         same_bits(a.standby_power.value(), b.standby_power.value()) &&
         same_bits(a.sleep_power.value(), b.sleep_power.value()) &&
         same_bits(a.power_down_delay.value(), b.power_down_delay.value()) &&
         same_bits(a.power_down_power.value(), b.power_down_power.value()) &&
         same_bits(a.wake_up_delay.value(), b.wake_up_delay.value()) &&
         same_bits(a.wake_up_power.value(), b.wake_up_power.value()) &&
         same_bits(a.standby_to_run_delay.value(),
                   b.standby_to_run_delay.value()) &&
         same_bits(a.run_to_standby_delay.value(),
                   b.run_to_standby_delay.value());
}

}  // namespace

// --- ConvFcPolicy ------------------------------------------------------------

ConvFcPolicy::ConvFcPolicy(power::LinearEfficiencyModel model)
    : model_(model) {}

SegmentSetpoint ConvFcPolicy::segment_setpoint(const SegmentContext&) {
  return {model_.max_output(), false};
}

std::unique_ptr<FcOutputPolicy> ConvFcPolicy::clone() const {
  return std::make_unique<ConvFcPolicy>(*this);
}

bool ConvFcPolicy::merge_equivalent(
    const FcOutputPolicy& other) const noexcept {
  const auto* o = dynamic_cast<const ConvFcPolicy*>(&other);
  return o != nullptr && same_model(model_, o->model_);
}

// --- AsapFcPolicy ------------------------------------------------------------

AsapFcPolicy::AsapFcPolicy(power::LinearEfficiencyModel model)
    : model_(model) {}

SegmentSetpoint AsapFcPolicy::segment_setpoint(
    const SegmentContext& context) {
  const double fraction =
      context.storage_capacity.value() > 0.0
          ? context.storage_charge / context.storage_capacity
          : 1.0;

  if (recharging_ && fraction >= 1.0 - 1e-9) {
    recharging_ = false;
    if (obs_ != nullptr && obs_->tracing()) {
      obs_->instant("core", "asap.recharge_done",
                    {{"storage_fraction", fraction}});
    }
  }
  if (!recharging_ && fraction < 0.5) {
    recharging_ = true;
    if (obs_ != nullptr) {
      obs_->count("core.asap.recharges");
      if (obs_->tracing()) {
        obs_->instant("core", "asap.recharge_start",
                      {{"storage_fraction", fraction}});
      }
    }
  }

  if (recharging_) {
    // Recharge to full as soon as possible: maximum output, and let the
    // simulator cut back to load following the moment the buffer fills.
    return {model_.max_output(), true};
  }
  return {model_.clamp_to_range(context.device_current), false};
}

std::unique_ptr<FcOutputPolicy> AsapFcPolicy::clone() const {
  return std::make_unique<AsapFcPolicy>(*this);
}

// --- FcDpmPolicy -------------------------------------------------------------

FcDpmPolicy::FcDpmPolicy(
    power::LinearEfficiencyModel model, dpm::DevicePowerModel device,
    std::unique_ptr<dpm::DurationPredictor> active_predictor,
    Ampere initial_current_estimate)
    : optimizer_(model),
      device_(device),
      active_predictor_(std::move(active_predictor)),
      current_estimator_(initial_current_estimate) {
  FCDPM_EXPECTS(active_predictor_ != nullptr,
                "active-period predictor must be provided");
}

FcDpmPolicy FcDpmPolicy::paper_policy(power::LinearEfficiencyModel model,
                                      dpm::DevicePowerModel device,
                                      double sigma, Seconds initial_active,
                                      Ampere initial_current_estimate) {
  return FcDpmPolicy(model, device,
                     std::make_unique<dpm::ExponentialAveragePredictor>(
                         sigma, initial_active),
                     initial_current_estimate);
}

void FcDpmPolicy::restrict_to_levels(std::vector<Ampere> levels) {
  quantizer_.emplace(optimizer_.model(), std::move(levels));
}

void FcDpmPolicy::enable_adaptation(double forgetting) {
  estimator_.emplace(optimizer_.model(), forgetting);
}

void FcDpmPolicy::enable_fc_shutdown(Seconds min_idle, double margin) {
  FCDPM_EXPECTS(min_idle.value() >= 0.0,
                "shutdown threshold must be non-negative");
  FCDPM_EXPECTS(margin >= 1.0, "margin must be at least 1");
  shutdown_enabled_ = true;
  shutdown_min_idle_ = min_idle;
  shutdown_margin_ = margin;
}

void FcDpmPolicy::on_idle_start(const IdleContext& context) {
  if (!have_target_) {
    // The paper pins the desired end-of-slot charge to Cini of the first
    // slot (Section 3.3.1, "Cend != Cini" discussion).
    target_end_ = context.storage_charge;
    have_target_ = true;
  }

  // Predictions: T'i comes from the DPM side, T'a and I'ld,a from this
  // policy's own estimators (Eq. (15) and Section 4.2).
  const Seconds predicted_idle =
      max(context.predicted_idle, Seconds(0.1));
  const Seconds predicted_active =
      max(active_predictor_->predict(), Seconds(0.1));
  const Ampere predicted_current = current_estimator_.estimate();

  SlotLoad load;
  load.idle = predicted_idle;
  load.idle_current =
      planned_idle_current(device_, context.will_sleep, predicted_idle);
  load.active = predicted_active;
  load.active_current = predicted_current;

  StorageBounds storage{context.storage_charge, target_end_,
                        context.storage_capacity};
  // Under storage fade the pinned Cend (or even the measured Cini) can
  // sit above the usable ceiling: re-project instead of erroring.
  if (reproject_bounds(storage)) {
    note_reprojection(obs_, fault_stats_);
  }

  // Note on Section 3.3.2: the paper folds the sleep transitions into an
  // extended active phase because its slot accounting keeps the idle
  // period at Islp throughout. Our physical idle layout already carries
  // both transitions (planned_idle_current above), so adding the
  // overhead term again would double-count it — and bias the active
  // re-solve into the storage floor.
  if (quantizer_.has_value()) {
    try {
      const QuantizedSetting setting = quantizer_->solve(load, storage);
      if_idle_ = setting.if_idle;
      if_active_ = setting.if_active;
      if (obs_ != nullptr) {
        obs_->count("core.solves");
        obs_->observe("core.setpoint_A", setting.if_active.value());
        if (obs_->tracing()) {
          obs_->instant("core", "fc.plan_quantized",
                        {{"if_idle_A", setting.if_idle.value()},
                         {"if_active_A", setting.if_active.value()}});
        }
      }
    } catch (...) {
      if_idle_ = if_active_ = optimizer_.model().max_output();
      note_fallback(obs_, fault_stats_, "fc.plan_fallback",
                    SolveStatus::InvalidInput);
    }
  } else {
    const CheckedSetting checked = solve_checked(optimizer_, load, storage);
    if (checked.ok()) {
      if_idle_ = checked.setting.if_idle;
      if_active_ = checked.setting.if_active;
      note_projection(obs_, "fc.plan", checked.setting);
    } else {
      // Safe flat fallback: the Conv-DPM setting is always feasible for
      // the hardware, just not fuel-optimal.
      if_idle_ = if_active_ = optimizer_.model().max_output();
      note_fallback(obs_, fault_stats_, "fc.plan_fallback", checked.status);
    }
  }

  // A derated source cannot honor a full-range plan: shrink [.., Imax].
  if (context.fc_output_derate < 1.0) {
    const Ampere ceiling =
        derated_max(optimizer_.model(), context.fc_output_derate);
    if (if_idle_ > ceiling || if_active_ > ceiling) {
      if_idle_ = min(if_idle_, ceiling);
      if_active_ = min(if_active_, ceiling);
      note_reprojection(obs_, fault_stats_);
    }
  }

  // Deep idle: if the whole idle period can run off the buffer (with
  // margin), switch the FC off and let the active re-solve refill.
  if (shutdown_enabled_ && context.will_sleep &&
      predicted_idle >= shutdown_min_idle_) {
    const Coulomb idle_need = load.idle_current * predicted_idle;
    if (context.storage_charge >= idle_need * shutdown_margin_) {
      if_idle_ = Ampere(0.0);
      if (obs_ != nullptr) {
        obs_->count("core.fc_shutdowns");
        if (obs_->tracing()) {
          obs_->instant("core", "fc.deep_idle",
                        {{"predicted_idle_s", predicted_idle.value()},
                         {"idle_need_As", idle_need.value()},
                         {"storage_As", context.storage_charge.value()}});
        }
      }
    }
  }
}

void FcDpmPolicy::on_active_start(const ActiveContext& context) {
  // Re-solve the active phase with the actual Ta and Ild,a (Section 4.2).
  const Coulomb charge =
      context.active_current * context.active_duration;

  StorageBounds storage{context.storage_charge, target_end_,
                        context.storage_capacity};
  if (reproject_bounds(storage)) {
    note_reprojection(obs_, fault_stats_);
  }
  if (quantizer_.has_value()) {
    try {
      SlotLoad active_only;
      active_only.active = context.active_duration;
      active_only.active_current = context.active_current;
      const QuantizedSetting setting =
          quantizer_->solve(active_only, storage);
      if_active_ = setting.if_active;
    } catch (...) {
      if_active_ = optimizer_.model().max_output();
      note_fallback(obs_, fault_stats_, "fc.replan_fallback",
                    SolveStatus::InvalidInput);
    }
  } else {
    const CheckedSetting checked = solve_active_only_checked(
        optimizer_, context.active_duration, charge, storage);
    if (checked.ok()) {
      if_active_ = checked.setting.if_active;
      note_projection(obs_, "fc.replan", checked.setting);
    } else {
      if_active_ = optimizer_.model().max_output();
      note_fallback(obs_, fault_stats_, "fc.replan_fallback",
                    checked.status);
    }
  }
  if (context.fc_output_derate < 1.0) {
    const Ampere ceiling =
        derated_max(optimizer_.model(), context.fc_output_derate);
    if (if_active_ > ceiling) {
      if_active_ = ceiling;
      note_reprojection(obs_, fault_stats_);
    }
  }
}

SegmentSetpoint FcDpmPolicy::segment_setpoint(
    const SegmentContext& context) {
  return {context.phase == Phase::Idle ? if_idle_ : if_active_, false};
}

void FcDpmPolicy::on_slot_end(const SlotObservation& observation) {
  if (obs_ != nullptr && obs_->metering()) {
    // predict() still returns the value on_idle_start planned with (no
    // observe happened in between), so this is the realized error.
    obs_->observe(
        "core.active_predictor_abs_error_s",
        fcdpm::abs(active_predictor_->predict() - observation.actual_active)
            .value());
  }
  active_predictor_->observe(observation.actual_active);
  current_estimator_.observe(observation.actual_active_current);

  if (estimator_.has_value()) {
    const Seconds span =
        observation.actual_idle + observation.actual_active;
    if (span.value() > 0.0) {
      estimator_->observe_charges(optimizer_.model(),
                                  observation.delivered_charge,
                                  observation.fuel_used, span);
      // Re-plan against the refreshed curve (the load-following range,
      // bus and zeta are hardware constants and stay).
      optimizer_ =
          SlotOptimizer(estimator_->apply_to(optimizer_.model()));
      if (quantizer_.has_value()) {
        quantizer_.emplace(optimizer_.model(), quantizer_->levels());
      }
      if (obs_ != nullptr) {
        obs_->count("core.model_adaptations");
        if (obs_->tracing()) {
          obs_->instant("core", "fc.model_adapted",
                        {{"alpha", optimizer_.model().alpha()},
                         {"beta", optimizer_.model().beta()}});
        }
      }
    }
  }
}

bool FcDpmPolicy::merge_equivalent(
    const FcOutputPolicy& other) const noexcept {
  const auto* o = dynamic_cast<const FcDpmPolicy*>(&other);
  if (o == nullptr) {
    return false;
  }
  // A quantized policy solves through the level search, which reads the
  // capacity without reporting capacity_clamped — the clamp flag
  // cannot certify its answers. An adaptive policy re-fits its model
  // from telemetry; the states stay equal in lock-step, but comparing
  // the RLS internals is not worth the coupling. Both stay solo.
  if (quantizer_.has_value() || o->quantizer_.has_value() ||
      estimator_.has_value() || o->estimator_.has_value()) {
    return false;
  }
  return same_model(optimizer_.model(), o->optimizer_.model()) &&
         same_device(device_, o->device_) &&
         active_predictor_->equivalent(*o->active_predictor_) &&
         current_estimator_.equivalent(o->current_estimator_) &&
         shutdown_enabled_ == o->shutdown_enabled_ &&
         same_bits(shutdown_min_idle_.value(),
                   o->shutdown_min_idle_.value()) &&
         same_bits(shutdown_margin_, o->shutdown_margin_) &&
         have_target_ == o->have_target_ &&
         same_bits(target_end_.value(), o->target_end_.value()) &&
         same_bits(if_idle_.value(), o->if_idle_.value()) &&
         same_bits(if_active_.value(), o->if_active_.value());
}

std::unique_ptr<FcOutputPolicy> FcDpmPolicy::clone() const {
  auto copy = std::make_unique<FcDpmPolicy>(
      optimizer_.model(), device_, active_predictor_->clone(),
      current_estimator_.estimate());
  copy->quantizer_ = quantizer_;
  copy->estimator_ = estimator_;
  copy->shutdown_enabled_ = shutdown_enabled_;
  copy->shutdown_min_idle_ = shutdown_min_idle_;
  copy->shutdown_margin_ = shutdown_margin_;
  copy->current_estimator_ = current_estimator_;
  copy->have_target_ = have_target_;
  copy->target_end_ = target_end_;
  copy->if_idle_ = if_idle_;
  copy->if_active_ = if_active_;
  return copy;
}

void FcDpmPolicy::reset() {
  active_predictor_->reset();
  current_estimator_.reset();
  if (estimator_.has_value()) {
    estimator_.emplace(optimizer_.model(), 0.98);
  }
  have_target_ = false;
  target_end_ = Coulomb(0.0);
  if_idle_ = Ampere(0.0);
  if_active_ = Ampere(0.0);
}

// --- OracleFcPolicy ----------------------------------------------------------

OracleFcPolicy::OracleFcPolicy(power::LinearEfficiencyModel model,
                               dpm::DevicePowerModel device)
    : optimizer_(model), device_(device) {}

void OracleFcPolicy::on_idle_start(const IdleContext& context) {
  if (!have_target_) {
    target_end_ = context.storage_charge;
    have_target_ = true;
  }

  const Seconds idle = max(context.actual_idle, Seconds(0.1));

  SlotLoad load;
  load.idle = idle;
  load.idle_current =
      planned_idle_current(device_, context.will_sleep, idle);
  load.active = max(context.actual_active, Seconds(0.1));
  load.active_current = context.actual_active_current;

  StorageBounds storage{context.storage_charge, target_end_,
                        context.storage_capacity};
  if (reproject_bounds(storage)) {
    note_reprojection(obs_, fault_stats_);
  }

  const CheckedSetting checked = solve_checked(optimizer_, load, storage);
  if (checked.ok()) {
    if_idle_ = checked.setting.if_idle;
    if_active_ = checked.setting.if_active;
    note_projection(obs_, "fc.plan", checked.setting);
  } else {
    if_idle_ = if_active_ = optimizer_.model().max_output();
    note_fallback(obs_, fault_stats_, "fc.plan_fallback", checked.status);
  }
  if (context.fc_output_derate < 1.0) {
    const Ampere ceiling =
        derated_max(optimizer_.model(), context.fc_output_derate);
    if (if_idle_ > ceiling || if_active_ > ceiling) {
      if_idle_ = min(if_idle_, ceiling);
      if_active_ = min(if_active_, ceiling);
      note_reprojection(obs_, fault_stats_);
    }
  }
}

void OracleFcPolicy::on_active_start(const ActiveContext& context) {
  const Coulomb charge =
      context.active_current * context.active_duration;

  StorageBounds storage{context.storage_charge, target_end_,
                        context.storage_capacity};
  if (reproject_bounds(storage)) {
    note_reprojection(obs_, fault_stats_);
  }
  const CheckedSetting checked = solve_active_only_checked(
      optimizer_, context.active_duration, charge, storage);
  if (checked.ok()) {
    if_active_ = checked.setting.if_active;
    note_projection(obs_, "fc.replan", checked.setting);
  } else {
    if_active_ = optimizer_.model().max_output();
    note_fallback(obs_, fault_stats_, "fc.replan_fallback", checked.status);
  }
  if (context.fc_output_derate < 1.0) {
    const Ampere ceiling =
        derated_max(optimizer_.model(), context.fc_output_derate);
    if (if_active_ > ceiling) {
      if_active_ = ceiling;
      note_reprojection(obs_, fault_stats_);
    }
  }
}

SegmentSetpoint OracleFcPolicy::segment_setpoint(
    const SegmentContext& context) {
  return {context.phase == Phase::Idle ? if_idle_ : if_active_, false};
}

std::unique_ptr<FcOutputPolicy> OracleFcPolicy::clone() const {
  return std::make_unique<OracleFcPolicy>(*this);
}

bool OracleFcPolicy::merge_equivalent(
    const FcOutputPolicy& other) const noexcept {
  const auto* o = dynamic_cast<const OracleFcPolicy*>(&other);
  return o != nullptr && same_model(optimizer_.model(), o->optimizer_.model()) &&
         same_device(device_, o->device_) && have_target_ == o->have_target_ &&
         same_bits(target_end_.value(), o->target_end_.value()) &&
         same_bits(if_idle_.value(), o->if_idle_.value()) &&
         same_bits(if_active_.value(), o->if_active_.value());
}

void OracleFcPolicy::reset() {
  have_target_ = false;
  target_end_ = Coulomb(0.0);
  if_idle_ = Ampere(0.0);
  if_active_ = Ampere(0.0);
}

}  // namespace fcdpm::core
