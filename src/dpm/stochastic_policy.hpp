// Distribution-based DPM (the paper's related-work family [4]/[5]:
// stochastic control built on the probabilities of idle behaviour).
//
// Instead of a point prediction, the policy learns the empirical
// distribution of idle durations and sleeps iff the *expected* energy of
// sleeping beats the expected energy of staying in STANDBY:
//
//   E[standby] = P_sdb * E[T]
//   E[sleep]   = E_tr + P_slp * E[max(T - t_tr, 0)]
//                     + P_sdb * E[latency spill]     (T below t_tr)
//
// computed over the learned histogram. With a deterministic workload it
// converges to the break-even rule; with a heavy-tailed one it can beat
// point-prediction policies that mispredict around Tbe.
#pragma once

#include <deque>
#include <memory>

#include "dpm/dpm_policy.hpp"

namespace fcdpm::dpm {

class StochasticDpmPolicy final : public DpmPolicy {
 public:
  /// Learns over a sliding window of `window` observed idles (>= 4);
  /// until `warmup` observations arrive it falls back to the
  /// break-even rule on `initial_estimate`.
  StochasticDpmPolicy(DevicePowerModel device, std::size_t window,
                      std::size_t warmup, Seconds initial_estimate);

  void plan_idle(Seconds actual_idle, IdlePlan& out) override;
  void observe_idle(Seconds actual_idle) override;
  [[nodiscard]] Seconds predicted_idle() const override;
  [[nodiscard]] const DevicePowerModel& device() const override {
    return device_;
  }
  [[nodiscard]] std::string name() const override { return "stochastic"; }
  [[nodiscard]] std::unique_ptr<DpmPolicy> clone() const override;
  void reset() override;

  /// Expected energy of each choice under the current history (exposed
  /// for tests).
  [[nodiscard]] Joule expected_standby_energy() const;
  [[nodiscard]] Joule expected_sleep_energy() const;

  /// The decision the next plan_idle() would take.
  [[nodiscard]] bool would_sleep() const;

 private:
  DevicePowerModel device_;
  std::size_t window_;
  std::size_t warmup_;
  Seconds initial_estimate_;
  Seconds break_even_;
  std::deque<double> history_;
};

}  // namespace fcdpm::dpm
