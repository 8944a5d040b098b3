#include "sim/timed_simulator.hpp"

#include "common/contracts.hpp"
#include "fault/injector.hpp"
#include "sim/fault_guard.hpp"
#include "sim/observer_guard.hpp"

namespace fcdpm::sim {

namespace {

/// Step through `duration` in dt increments, querying the policy each
/// step (so stateful rules like ASAP's recharge react at dt resolution).
/// The observability clock advances per step (policies stamp instants
/// mid-segment); counter samples are emitted once per segment to keep
/// traces of fine-dt runs tractable.
void run_stepped(power::HybridPowerSource& hybrid,
                 core::FcOutputPolicy& fc_policy,
                 core::SegmentContext context, Seconds duration,
                 Seconds dt, obs::Context* trace_obs) {
  Seconds remaining = duration;
  while (remaining.value() > 0.0) {
    const Seconds step = min(dt, remaining);
    context.storage_charge = hybrid.storage().charge();
    const core::SegmentSetpoint sp = fc_policy.segment_setpoint(context);
    // stop_charging_when_full is naturally approximated at dt
    // granularity: the policy sees the filled buffer next step.
    hybrid.run_segment(step, context.device_current, sp.setpoint);
    if (trace_obs != nullptr) {
      trace_obs->advance(step);
    }
    remaining -= step;
  }
  if (trace_obs != nullptr) {
    trace_obs->counter("load_A", context.device_current.value());
    trace_obs->counter("storage_As", hybrid.storage().charge().value());
  }
}

}  // namespace

SimulationResult simulate_timed(const wl::Trace& trace,
                                dpm::DpmPolicy& dpm_policy,
                                core::FcOutputPolicy& fc_policy,
                                power::HybridPowerSource& hybrid,
                                const TimedOptions& options) {
  FCDPM_EXPECTS(options.timestep.value() > 0.0, "timestep must be > 0");
  trace.validate();
  const dpm::DevicePowerModel& device = dpm_policy.device();
  device.validate();

  const Coulomb capacity = hybrid.storage().capacity();
  const Coulomb initial = (options.initial_storage.value() < 0.0)
                              ? capacity
                              : min(options.initial_storage, capacity);
  hybrid.reset(initial);

  SimulationResult result;
  result.trace_name = trace.name();
  result.dpm_policy = dpm_policy.name();
  result.fc_policy = fc_policy.name();
  result.storage_initial = initial;
  result.slots = trace.size();

  const Seconds dt = options.timestep;

  // An inactive context (e.g. only a NullTraceSink attached) is
  // treated exactly like no observer at all.
  obs::Context* obs = (options.observer != nullptr &&
                       options.observer->active())
                          ? options.observer
                          : nullptr;
  obs::Context* trace_obs =
      (obs != nullptr && obs->tracing()) ? obs : nullptr;
  const ObserverGuard observer_guard(obs, dpm_policy, fc_policy, hybrid);

  fault::FaultInjector* faults = options.faults;
  if (faults != nullptr) {
    faults->reset();
  }
  const FaultGuard fault_guard(faults, fc_policy, hybrid);

  // Held across slots and refilled by the policy, so the loop does not
  // allocate per slot.
  dpm::IdlePlan plan;
  if (trace_obs != nullptr) {
    trace_obs->span_begin("sim", "simulate_timed",
                          {{"slots", static_cast<double>(trace.size())},
                           {"dt_s", dt.value()}});
  }

  for (std::size_t k = 0; k < trace.size(); ++k) {
    const wl::TaskSlot& slot = trace[k];
    Ampere run_current = slot.active_power / device.bus_voltage;
    const Seconds active_eff = device.standby_to_run_delay + slot.active +
                               device.run_to_standby_delay;

    const Coulomb fuel_before = hybrid.totals().fuel;
    const Joule delivered_before = hybrid.totals().delivered_energy;

    Coulomb usable_capacity = capacity;
    if (faults != nullptr) {
      const fault::ActiveFaults& af =
          faults->advance_to(hybrid.totals().duration);
      if (af.load_scale != 1.0) {
        run_current = run_current * af.load_scale;
      }
      if (af.storage_derate < 1.0) {
        usable_capacity = capacity * af.storage_derate;
      }
    }

    dpm_policy.plan_idle(slot.idle, plan);
    if (plan.slept) {
      ++result.sleeps;
    }
    result.latency_added += plan.latency_spill;

    core::IdleContext idle_context;
    idle_context.slot_index = k;
    idle_context.will_sleep = plan.slept;
    idle_context.predicted_idle = plan.predicted_idle;
    idle_context.idle_current = plan.slept ? device.sleep_current()
                                           : device.standby_current();
    idle_context.storage_charge = hybrid.storage().charge();
    idle_context.storage_capacity = usable_capacity;
    idle_context.actual_idle = slot.idle;
    idle_context.actual_active = active_eff;
    idle_context.actual_active_current = run_current;
    if (faults != nullptr) {
      const fault::ActiveFaults& af = faults->active();
      if (af.sensor_noise_sigma > 0.0) {
        idle_context.predicted_idle =
            max(Seconds(0.01),
                idle_context.predicted_idle *
                    (1.0 + faults->noise(af.sensor_noise_sigma)));
      }
      idle_context.fc_output_derate = af.fc_output_derate;
      idle_context.fc_available = !af.fc_dropout;
    }
    fc_policy.on_idle_start(idle_context);

    if (obs != nullptr) {
      if (trace_obs != nullptr) {
        trace_obs->span_begin("sim", "idle",
                              {{"actual_s", slot.idle.value()},
                               {"slept", plan.slept ? 1.0 : 0.0}});
      }
      obs->count("sim.slots");
    }
    for (std::size_t s = 0; s < plan.count; ++s) {
      const dpm::IdleSegment& segment = plan.segments[s];
      core::SegmentContext context;
      context.phase = core::Phase::Idle;
      context.state = segment.state;
      context.device_current = segment.current;
      context.storage_capacity = usable_capacity;
      run_stepped(hybrid, fc_policy, context, segment.duration, dt,
                  trace_obs);
    }
    if (trace_obs != nullptr) {
      trace_obs->span_end("sim", "idle");
    }

    core::ActiveContext active_context;
    active_context.slot_index = k;
    active_context.active_duration = active_eff;
    active_context.active_current = run_current;
    active_context.storage_charge = hybrid.storage().charge();
    active_context.storage_capacity = usable_capacity;
    if (faults != nullptr) {
      const fault::ActiveFaults& af =
          faults->advance_to(hybrid.totals().duration);
      active_context.fc_output_derate = af.fc_output_derate;
      active_context.fc_available = !af.fc_dropout;
      if (af.storage_derate < 1.0) {
        active_context.storage_capacity = capacity * af.storage_derate;
      }
    }
    fc_policy.on_active_start(active_context);

    core::SegmentContext context;
    context.phase = core::Phase::Active;
    context.state = dpm::PowerState::Run;
    context.device_current = run_current;
    context.storage_capacity = usable_capacity;
    if (trace_obs != nullptr) {
      trace_obs->span_begin("sim", "active",
                            {{"duration_s", active_eff.value()},
                             {"current_A", run_current.value()}});
    }
    run_stepped(hybrid, fc_policy, context, active_eff, dt, trace_obs);
    if (trace_obs != nullptr) {
      trace_obs->span_end("sim", "active");
    }

    dpm_policy.observe_idle(slot.idle);

    core::SlotObservation observation;
    observation.slot_index = k;
    observation.actual_idle = slot.idle;
    observation.actual_active = active_eff;
    observation.actual_active_current = run_current;
    observation.storage_charge = hybrid.storage().charge();
    observation.fuel_used = hybrid.totals().fuel - fuel_before;
    observation.delivered_charge =
        (hybrid.totals().delivered_energy - delivered_before) /
        device.bus_voltage;
    fc_policy.on_slot_end(observation);
  }

  if (trace_obs != nullptr) {
    trace_obs->span_end("sim", "simulate_timed");
  }

  result.totals = hybrid.totals();
  result.storage_end = hybrid.storage().charge();
  result.storage_min = hybrid.min_storage_seen();
  result.storage_max = hybrid.max_storage_seen();

  if (faults != nullptr) {
    (void)faults->advance_to(hybrid.totals().duration);
    result.robustness = faults->stats();
    if (obs != nullptr && obs->metering()) {
      obs->gauge("fault.degraded_s",
                 result.robustness->degraded_time.value());
      obs->gauge("fault.recovery_s",
                 result.robustness->recovery_time.value());
    }
  }
  return result;
}

}  // namespace fcdpm::sim
