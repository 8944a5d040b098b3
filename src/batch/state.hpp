// Point-major SoA mirror of HybridPowerSource + SuperCapacitor state
// for the batch engine: one column set, B lanes.
//
// Each lane holds every field the segment integration touches — charge,
// capacity, efficiency, the linear fuel model's constants and the
// running totals — as contiguous arrays indexed by lane, so the
// per-slot segment integration over a batch walks flat memory and
// autovectorizes. run_segment() is HybridPowerSource::run_segment()
// with the LinearFuelSource and SuperCapacitor arithmetic inlined, the
// same expressions in the same order as the reference loop, so
// per-lane results are bit-identical to it.
//
// Beyond the integration itself, run_segment() reports whether the segment's
// outcome *depended on this lane's capacity* (the surplus path clamped
// strictly: landable > headroom). That is the capacity-slack signal the
// merge logic keys on: a leader segment that never clamps produces
// charge/total deltas that are bitwise valid for every merged lane with
// capacity >= the leader's (see docs/ARCHITECTURE.md, "Batched
// execution & incremental sweeps").
//
// write_back() restores a lane's mirrored state into its hybrid/cap
// through the friendship both classes grant — on every exit path (the
// engine holds a guard), so batch-ineligible continuations and audits
// always see a consistent hybrid.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "power/hybrid.hpp"
#include "power/storage.hpp"

namespace fcdpm::batch {

class BatchState {
 public:
  BatchState() = default;
  BatchState(const BatchState&) = delete;
  BatchState& operator=(const BatchState&) = delete;

  /// Everything run_segment() mutates, for prefix checkpoints: a merged
  /// lane that diverges mid-slot restores the shared-prefix state and
  /// replays only the divergent suffix.
  struct Snapshot {
    double q = 0.0;
    power::HybridTotals totals;
    double q_min = 0.0;
    double q_max = 0.0;
    std::size_t startups = 0;
    bool fc_running = true;
  };

  /// Mirror one hybrid into a new lane; returns its index. The hybrid
  /// must outlive this object (write_back targets it).
  std::size_t add_lane(power::HybridPowerSource& hybrid,
                       const power::LinearFuelSource& source,
                       power::SuperCapacitor& cap) {
    const power::LinearEfficiencyModel& model = source.model();
    hybrid_.push_back(&hybrid);
    cap_.push_back(&cap);
    capacity_.push_back(cap.capacity().value());
    q_.push_back(cap.charge().value());
    eff_.push_back(cap.one_way_efficiency());
    k_.push_back(model.k());
    alpha_.push_back(model.alpha());
    beta_.push_back(model.beta());
    if_min_.push_back(model.min_output().value());
    if_max_.push_back(model.max_output().value());
    bus_.push_back(model.bus_voltage().value());
    totals_.push_back(hybrid.totals_);
    q_min_.push_back(hybrid.min_storage_seen_.value());
    q_max_.push_back(hybrid.max_storage_seen_.value());
    startup_fuel_.push_back(hybrid.startup_fuel_.value());
    startups_.push_back(hybrid.startups_);
    fc_running_.push_back(hybrid.fc_running_ ? 1 : 0);
    return hybrid_.size() - 1;
  }

  [[nodiscard]] std::size_t lanes() const noexcept { return hybrid_.size(); }

  /// Reset a lane's mirrored run state after HybridPowerSource::reset()
  /// (the engine resets the real hybrid first, then re-mirrors).
  void reload(std::size_t lane) noexcept {
    const power::HybridPowerSource& hybrid = *hybrid_[lane];
    q_[lane] = cap_[lane]->charge().value();
    totals_[lane] = hybrid.totals_;
    q_min_[lane] = hybrid.min_storage_seen_.value();
    q_max_[lane] = hybrid.max_storage_seen_.value();
    startups_[lane] = hybrid.startups_;
    fc_running_[lane] = hybrid.fc_running_ ? 1 : 0;
  }

  /// HybridPowerSource::run_segment() inlined, fault-free path: the
  /// reference expressions, per lane. Returns the actual IF and sets
  /// `capacity_sensitive` iff the outcome depended on this lane's
  /// capacity (strict store clamp). `landable == headroom` is NOT
  /// sensitive: the landed charge is bit-equal either way.
  double run_segment(std::size_t lane, double duration, double load,
                     double setpoint, bool& capacity_sensitive) {
    FCDPM_EXPECTS(duration >= 0.0, "duration must be non-negative");
    FCDPM_EXPECTS(load >= 0.0, "load current must be non-negative");
    FCDPM_EXPECTS(setpoint >= 0.0, "FC setpoint must be non-negative");

    const double if_min = if_min_[lane];
    const double if_max = if_max_[lane];
    const double i_f =
        (setpoint == 0.0)
            ? 0.0
            : (setpoint < if_min ? if_min
                                 : (setpoint > if_max ? if_max : setpoint));
    if (duration == 0.0) {
      return i_f;
    }

    // LinearFuelSource::fuel_current: Ifc = k * IF / (alpha - beta*IF).
    double fuel =
        (i_f == 0.0 ? 0.0
                    : k_[lane] * i_f / (alpha_[lane] - beta_[lane] * i_f)) *
        duration;
    const bool fc_on = i_f > 0.0;
    if (fc_on && fc_running_[lane] == 0) {
      fuel += startup_fuel_[lane];
      ++startups_[lane];
    }
    fc_running_[lane] = fc_on ? 1 : 0;

    double bled = 0.0;
    double unserved = 0.0;
    double q = q_[lane];
    const double eff = eff_[lane];
    if (i_f >= load) {
      const double surplus = (i_f - load) * duration;
      // SuperCapacitor::store, inlined.
      const double headroom = capacity_[lane] - q;
      const double landable = surplus * eff;
      const double landed = landable < headroom ? landable : headroom;
      if (landable > headroom) {
        capacity_sensitive = true;
      }
      q += landed;
      bled = surplus - landed / eff;
    } else {
      const double deficit = (load - i_f) * duration;
      // SuperCapacitor::draw, inlined — never reads capacity.
      const double needed = deficit / eff;
      const double taken = needed < q ? needed : q;
      q -= taken;
      unserved = deficit - taken * eff;
    }
    q_[lane] = q;

    power::HybridTotals& totals = totals_[lane];
    totals.fuel += Coulomb(fuel);
    totals.delivered_energy += Joule(bus_[lane] * i_f * duration);
    totals.load_energy += Joule(bus_[lane] * load * duration);
    totals.bled += Coulomb(bled);
    totals.unserved += Coulomb(unserved);
    totals.duration += Seconds(duration);

    if (q < q_min_[lane]) {
      q_min_[lane] = q;
    }
    if (q > q_max_[lane]) {
      q_max_[lane] = q;
    }
    return i_f;
  }

  [[nodiscard]] Snapshot snapshot(std::size_t lane) const {
    Snapshot s;
    s.q = q_[lane];
    s.totals = totals_[lane];
    s.q_min = q_min_[lane];
    s.q_max = q_max_[lane];
    s.startups = startups_[lane];
    s.fc_running = fc_running_[lane] != 0;
    return s;
  }

  void restore(std::size_t lane, const Snapshot& s) noexcept {
    q_[lane] = s.q;
    totals_[lane] = s.totals;
    q_min_[lane] = s.q_min;
    q_max_[lane] = s.q_max;
    startups_[lane] = s.startups;
    fc_running_[lane] = s.fc_running ? 1 : 0;
  }

  /// Copy lane `from`'s run state into lane `to` (capacity, model and
  /// hybrid binding stay `to`'s own). Used when a merged follower's
  /// columns were served by its leader: at split/eject time the
  /// leader's state IS the follower's state, bit for bit.
  void adopt(std::size_t to, std::size_t from) noexcept {
    q_[to] = q_[from];
    totals_[to] = totals_[from];
    q_min_[to] = q_min_[from];
    q_max_[to] = q_max_[from];
    startups_[to] = startups_[from];
    fc_running_[to] = fc_running_[from];
  }

  /// True when lanes `a` and `b` are bitwise identical in every field
  /// the segment integration reads or writes *except capacity* — the
  /// merge precondition. Capacity is exempt by design: the merge logic
  /// handles capacity differences through the slack property and the
  /// sensitivity signal.
  [[nodiscard]] bool physically_identical(std::size_t a,
                                          std::size_t b) const noexcept {
    const power::HybridTotals& ta = totals_[a];
    const power::HybridTotals& tb = totals_[b];
    return same(q_[a], q_[b]) && same(eff_[a], eff_[b]) &&
           same(k_[a], k_[b]) && same(alpha_[a], alpha_[b]) &&
           same(beta_[a], beta_[b]) && same(if_min_[a], if_min_[b]) &&
           same(if_max_[a], if_max_[b]) && same(bus_[a], bus_[b]) &&
           same(q_min_[a], q_min_[b]) && same(q_max_[a], q_max_[b]) &&
           same(startup_fuel_[a], startup_fuel_[b]) &&
           startups_[a] == startups_[b] && fc_running_[a] == fc_running_[b] &&
           same(ta.fuel.value(), tb.fuel.value()) &&
           same(ta.delivered_energy.value(), tb.delivered_energy.value()) &&
           same(ta.load_energy.value(), tb.load_energy.value()) &&
           same(ta.bled.value(), tb.bled.value()) &&
           same(ta.unserved.value(), tb.unserved.value()) &&
           same(ta.duration.value(), tb.duration.value());
  }

  [[nodiscard]] double q(std::size_t lane) const noexcept { return q_[lane]; }
  [[nodiscard]] Coulomb charge(std::size_t lane) const noexcept {
    return Coulomb(q_[lane]);
  }
  [[nodiscard]] double capacity(std::size_t lane) const noexcept {
    return capacity_[lane];
  }
  [[nodiscard]] double if_min(std::size_t lane) const noexcept {
    return if_min_[lane];
  }
  [[nodiscard]] double if_max(std::size_t lane) const noexcept {
    return if_max_[lane];
  }
  [[nodiscard]] double bus_charge_to_full(std::size_t lane) const noexcept {
    return (capacity_[lane] - q_[lane]) / eff_[lane];
  }
  [[nodiscard]] const power::HybridTotals& totals(
      std::size_t lane) const noexcept {
    return totals_[lane];
  }
  [[nodiscard]] Coulomb min_charge(std::size_t lane) const noexcept {
    return Coulomb(q_min_[lane]);
  }
  [[nodiscard]] Coulomb max_charge(std::size_t lane) const noexcept {
    return Coulomb(q_max_[lane]);
  }

  /// Restore the mirrored state into the lane's hybrid + cap. Direct
  /// charge_ assignment, not set_charge(): the accumulation can
  /// overshoot capacity by 1 ulp exactly like the reference's own
  /// `charge_ += landed`, and set_charge's range contract would reject
  /// (or a clamp would alter) that legitimate value.
  void write_back(std::size_t lane) noexcept {
    cap_[lane]->charge_ = Coulomb(q_[lane]);
    power::HybridPowerSource& hybrid = *hybrid_[lane];
    hybrid.totals_ = totals_[lane];
    hybrid.min_storage_seen_ = Coulomb(q_min_[lane]);
    hybrid.max_storage_seen_ = Coulomb(q_max_[lane]);
    hybrid.startups_ = startups_[lane];
    hybrid.fc_running_ = fc_running_[lane] != 0;
  }

  void write_back_all() noexcept {
    for (std::size_t lane = 0; lane < hybrid_.size(); ++lane) {
      write_back(lane);
    }
  }

 private:
  [[nodiscard]] static bool same(double a, double b) noexcept {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  }

  // Point-major columns: index = lane.
  std::vector<double> capacity_;
  std::vector<double> q_;
  std::vector<double> eff_;
  std::vector<double> k_;
  std::vector<double> alpha_;
  std::vector<double> beta_;
  std::vector<double> if_min_;
  std::vector<double> if_max_;
  std::vector<double> bus_;
  std::vector<power::HybridTotals> totals_;
  std::vector<double> q_min_;
  std::vector<double> q_max_;
  std::vector<double> startup_fuel_;
  std::vector<std::size_t> startups_;
  std::vector<std::uint8_t> fc_running_;
  std::vector<power::HybridPowerSource*> hybrid_;
  std::vector<power::SuperCapacitor*> cap_;
};

}  // namespace fcdpm::batch
