// FC output-setting policies (Sections 4 and 5).
//
//  * ConvFcPolicy  — no fuel-flow control: the FC is pinned at the top of
//                    its load-following range (the paper's Conv-DPM).
//  * AsapFcPolicy  — load following: IF tracks the instantaneous device
//                    current, with the paper's recharge rule (below half
//                    capacity, deliver maximum current until full).
//  * FcDpmPolicy   — the paper's contribution: predict the coming idle /
//                    active periods and the active current, then set the
//                    fuel-optimal flat output via the slot optimizer;
//                    re-solve on active start with actual values
//                    (Figure 5).
//  * OracleFcPolicy— FC-DPM with exact knowledge of the coming slot;
//                    the no-misprediction bound for ablations.
//
// The simulator drives policies segment by segment: a *segment* is a
// stretch of constant device current (standby, power-down, sleep,
// wake-up, or the active burst).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/efficiency_estimator.hpp"
#include "core/quantized_optimizer.hpp"
#include "core/slot_optimizer.hpp"
#include "dpm/power_states.hpp"
#include "dpm/predictors.hpp"
#include "obs/context.hpp"

namespace fcdpm::fault {
struct RobustnessStats;
}

namespace fcdpm::core {

/// Which phase of a slot a segment belongs to.
enum class Phase { Idle, Active };

/// Context handed to the policy at the start of each idle period.
struct IdleContext {
  std::size_t slot_index = 0;
  bool will_sleep = false;      ///< DPM decision (delta) for this idle
  Seconds predicted_idle{0.0};  ///< from the DPM predictor
  Ampere idle_current{0.0};     ///< Isdb or Islp per the decision
  Coulomb storage_charge{0.0};
  Coulomb storage_capacity{0.0};

  // Fault state the governor can see (a real controller reads the FC's
  // health flags). Defaults describe a healthy source, so fault-unaware
  // callers are unaffected.
  double fc_output_derate = 1.0;  ///< usable fraction of max output
  bool fc_available = true;       ///< false while the converter is out

  // Ground truth for the *coming* slot. Honest policies must not read
  // these; OracleFcPolicy does (it is the point of the oracle).
  Seconds actual_idle{0.0};
  Seconds actual_active{0.0};
  Ampere actual_active_current{0.0};
};

/// Context handed to the policy when the active period starts. Per the
/// paper, Ta and Ild,a of the running slot are known at this point.
struct ActiveContext {
  std::size_t slot_index = 0;
  Seconds active_duration{0.0};  ///< effective (incl. RUN transitions)
  Ampere active_current{0.0};
  Coulomb storage_charge{0.0};
  Coulomb storage_capacity{0.0};
  double fc_output_derate = 1.0;  ///< usable fraction of max output
  bool fc_available = true;       ///< false while the converter is out
};

/// Per-segment query: what should the FC deliver now?
struct SegmentContext {
  Phase phase = Phase::Idle;
  dpm::PowerState state = dpm::PowerState::Standby;
  Ampere device_current{0.0};
  Coulomb storage_charge{0.0};
  Coulomb storage_capacity{0.0};
};

/// The policy's answer for a segment. When `stop_charging_when_full` is
/// set the simulator splits the segment at the moment the buffer fills
/// and falls back to load following for the remainder (ASAP's "recharge
/// as soon as possible, then stop").
struct SegmentSetpoint {
  Ampere setpoint{0.0};
  bool stop_charging_when_full = false;
};

/// What actually happened in the completed slot (feeds predictors and
/// run-time model estimation).
struct SlotObservation {
  std::size_t slot_index = 0;
  Seconds actual_idle{0.0};
  Seconds actual_active{0.0};  ///< effective active duration
  Ampere actual_active_current{0.0};
  Coulomb storage_charge{0.0};  ///< at slot end

  // Fuel-side telemetry over the slot (what a real governor reads from
  // the FC controller): bus charge the FC delivered and stack charge it
  // burned.
  Coulomb delivered_charge{0.0};
  Coulomb fuel_used{0.0};
};

/// FC output policy interface.
class FcOutputPolicy {
 public:
  virtual ~FcOutputPolicy() = default;

  virtual void on_idle_start(const IdleContext& context) = 0;
  virtual void on_active_start(const ActiveContext& context) = 0;
  [[nodiscard]] virtual SegmentSetpoint segment_setpoint(
      const SegmentContext& context) = 0;
  virtual void on_slot_end(const SlotObservation& observation) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::unique_ptr<FcOutputPolicy> clone() const = 0;
  virtual void reset() = 0;

  /// True when segment_setpoint() is a pure function of the segment's
  /// phase for the duration of one slot: it mutates no policy state and
  /// every idle (resp. active) segment of a slot gets the same answer
  /// regardless of the context's charge/current fields. The batch
  /// engine (`fcdpm::batch`) merges lanes only for pure policies — it
  /// probes the setpoint once per phase and reuses it across segments
  /// and lanes. Conservative default: impure.
  [[nodiscard]] virtual bool segment_setpoint_is_pure() const noexcept {
    return false;
  }

  /// True when `other` is an interchangeable copy of this policy: same
  /// dynamic type, same configuration, and bitwise-identical mutable
  /// state, so the two emit bit-identical decisions forever given
  /// identical observation streams, and capacity influences those
  /// decisions only through solves whose capacity-shaping the solver
  /// reports (CheckedSetting::capacity_clamped). The batch engine
  /// merges lanes only under this contract — a merged follower's policy
  /// is frozen and the leader's plans stand in for it — so an
  /// implementation must compare every behavior-bearing member and must
  /// refuse variants that solve through unreported capacity-dependent
  /// paths (e.g. quantized level search). Conservative default: not
  /// equivalent.
  [[nodiscard]] virtual bool merge_equivalent(
      const FcOutputPolicy& /*other*/) const noexcept {
    return false;
  }

  /// Attach (or detach with nullptr) an observability context; the
  /// simulator does this for the duration of a run and restores the
  /// previous value when it returns. Policies emit plan/replan
  /// instants and projection-clamp metrics through it. Not owned.
  void set_observer(obs::Context* observer) noexcept { obs_ = observer; }
  [[nodiscard]] obs::Context* observer() const noexcept { return obs_; }

  /// Attach (or detach with nullptr) the robustness accounting of a
  /// faulted run; policies increment reprojection / fallback / solver-
  /// failure counters through it. Not owned.
  void set_fault_stats(fault::RobustnessStats* stats) noexcept {
    fault_stats_ = stats;
  }
  [[nodiscard]] fault::RobustnessStats* fault_stats() const noexcept {
    return fault_stats_;
  }

  /// True when a checked solve since the last call returned a
  /// capacity-clamped or failed answer — one the buffer capacity may
  /// have shaped. The batch engine clears the flag before a merge-set
  /// leader plans and reads it after, to hand the plan off instead of
  /// sharing it with larger-capacity followers. Resets the flag.
  [[nodiscard]] bool take_solve_clamped() noexcept {
    const bool clamped = solve_clamped_;
    solve_clamped_ = false;
    return clamped;
  }

 protected:
  /// Full-slot solve (the idle-start plan); raises the clamp flag.
  [[nodiscard]] CheckedSetting solve_checked(const SlotOptimizer& optimizer,
                                             const SlotLoad& load,
                                             const StorageBounds& storage) {
    return note_clamp(optimizer.solve_checked(load, storage));
  }
  /// Active-phase-only re-solve (the active-start replan); raises the
  /// clamp flag.
  [[nodiscard]] CheckedSetting solve_active_only_checked(
      const SlotOptimizer& optimizer, Seconds duration, Coulomb charge,
      const StorageBounds& storage) {
    return note_clamp(
        optimizer.solve_active_only_checked(duration, charge, storage));
  }

  obs::Context* obs_ = nullptr;
  fault::RobustnessStats* fault_stats_ = nullptr;

 private:
  CheckedSetting note_clamp(const CheckedSetting& answer) noexcept {
    if (!answer.ok() || answer.setting.capacity_clamped) {
      solve_clamped_ = true;
    }
    return answer;
  }

  bool solve_clamped_ = false;
};

/// Conv-DPM: IF pinned at max_output; no control at all.
class ConvFcPolicy final : public FcOutputPolicy {
 public:
  explicit ConvFcPolicy(power::LinearEfficiencyModel model);

  void on_idle_start(const IdleContext&) override {}
  void on_active_start(const ActiveContext&) override {}
  [[nodiscard]] SegmentSetpoint segment_setpoint(
      const SegmentContext&) override;
  void on_slot_end(const SlotObservation&) override {}
  [[nodiscard]] std::string name() const override { return "Conv-DPM"; }
  [[nodiscard]] std::unique_ptr<FcOutputPolicy> clone() const override;
  void reset() override {}
  [[nodiscard]] bool segment_setpoint_is_pure() const noexcept override {
    return true;  // constant max-output setpoint, no state
  }
  [[nodiscard]] bool merge_equivalent(
      const FcOutputPolicy& other) const noexcept override;

 private:
  power::LinearEfficiencyModel model_;
};

/// ASAP-DPM: follow the load; recharge at full tilt when the buffer
/// drops below half capacity.
class AsapFcPolicy final : public FcOutputPolicy {
 public:
  explicit AsapFcPolicy(power::LinearEfficiencyModel model);

  void on_idle_start(const IdleContext&) override {}
  void on_active_start(const ActiveContext&) override {}
  [[nodiscard]] SegmentSetpoint segment_setpoint(
      const SegmentContext& context) override;
  void on_slot_end(const SlotObservation&) override {}
  [[nodiscard]] std::string name() const override { return "ASAP-DPM"; }
  [[nodiscard]] std::unique_ptr<FcOutputPolicy> clone() const override;
  void reset() override { recharging_ = false; }

 private:
  power::LinearEfficiencyModel model_;
  bool recharging_ = false;
};

/// FC-DPM (Figure 5): predictive fuel-optimal flat setting.
class FcDpmPolicy final : public FcOutputPolicy {
 public:
  /// `active_predictor` predicts the effective active duration (Eq. (15),
  /// sigma); `current_estimate` seeds I'ld,a. The device model supplies
  /// the SLEEP transition overheads for Section 3.3.2.
  FcDpmPolicy(power::LinearEfficiencyModel model,
              dpm::DevicePowerModel device,
              std::unique_ptr<dpm::DurationPredictor> active_predictor,
              Ampere initial_current_estimate);

  /// The paper's configuration: exponential average with factor sigma.
  [[nodiscard]] static FcDpmPolicy paper_policy(
      power::LinearEfficiencyModel model, dpm::DevicePowerModel device,
      double sigma, Seconds initial_active,
      Ampere initial_current_estimate);

  /// Restrict the FC to discrete output levels (the multi-level FC of
  /// the authors' ISLPED'06 work): every computed setting is re-solved
  /// through a QuantizedSlotOptimizer over these levels.
  void restrict_to_levels(std::vector<Ampere> levels);

  /// Run-time model adaptation (beyond the paper): re-estimate
  /// (alpha, beta) from each slot's fuel telemetry by recursive least
  /// squares and re-plan with the updated model. Recovers from stack
  /// drift/mismatch (bench abl_model_mismatch).
  void enable_adaptation(double forgetting = 0.98);

  /// The model the policy currently plans with (adapted or static).
  [[nodiscard]] const power::LinearEfficiencyModel& planning_model()
      const noexcept {
    return optimizer_.model();
  }

  /// Deep-idle extension (beyond the paper): idle the FC entirely
  /// (IF = 0) during a sleeping idle period when the prediction is at
  /// least `min_idle` and the buffer holds `margin` times the charge the
  /// idle period needs. The active-phase re-solve then refills the
  /// buffer. Pair with HybridPowerSource::set_startup_fuel to study the
  /// restart-cost trade-off (bench abl_fc_shutdown).
  void enable_fc_shutdown(Seconds min_idle, double margin = 1.3);

  void on_idle_start(const IdleContext& context) override;
  void on_active_start(const ActiveContext& context) override;
  [[nodiscard]] SegmentSetpoint segment_setpoint(
      const SegmentContext& context) override;
  void on_slot_end(const SlotObservation& observation) override;
  [[nodiscard]] std::string name() const override { return "FC-DPM"; }
  [[nodiscard]] std::unique_ptr<FcOutputPolicy> clone() const override;
  void reset() override;
  [[nodiscard]] bool segment_setpoint_is_pure() const noexcept override {
    return true;  // reads only the phase (if_idle_/if_active_)
  }
  [[nodiscard]] bool merge_equivalent(
      const FcOutputPolicy& other) const noexcept override;

  [[nodiscard]] const SlotOptimizer& optimizer() const noexcept {
    return optimizer_;
  }

 private:
  SlotOptimizer optimizer_;
  std::optional<QuantizedSlotOptimizer> quantizer_;
  dpm::DevicePowerModel device_;
  std::unique_ptr<dpm::DurationPredictor> active_predictor_;
  dpm::CurrentEstimator current_estimator_;

  bool shutdown_enabled_ = false;
  Seconds shutdown_min_idle_{0.0};
  double shutdown_margin_ = 1.3;

  std::optional<EfficiencyEstimator> estimator_;

  /// Cend is pinned to the first observed Cini (paper: "Cend ... is set
  /// to Cini(1)").
  bool have_target_ = false;
  Coulomb target_end_{0.0};

  Ampere if_idle_{0.0};
  Ampere if_active_{0.0};
};

/// FC-DPM with oracle knowledge of the coming slot.
class OracleFcPolicy final : public FcOutputPolicy {
 public:
  OracleFcPolicy(power::LinearEfficiencyModel model,
                 dpm::DevicePowerModel device);

  void on_idle_start(const IdleContext& context) override;
  void on_active_start(const ActiveContext& context) override;
  [[nodiscard]] SegmentSetpoint segment_setpoint(
      const SegmentContext& context) override;
  void on_slot_end(const SlotObservation&) override {}
  [[nodiscard]] std::string name() const override { return "Oracle-FC-DPM"; }
  [[nodiscard]] std::unique_ptr<FcOutputPolicy> clone() const override;
  void reset() override;
  [[nodiscard]] bool segment_setpoint_is_pure() const noexcept override {
    return true;  // reads only the phase (if_idle_/if_active_)
  }
  [[nodiscard]] bool merge_equivalent(
      const FcOutputPolicy& other) const noexcept override;

 private:
  SlotOptimizer optimizer_;
  dpm::DevicePowerModel device_;
  bool have_target_ = false;
  Coulomb target_end_{0.0};
  Ampere if_idle_{0.0};
  Ampere if_active_{0.0};
};

}  // namespace fcdpm::core
