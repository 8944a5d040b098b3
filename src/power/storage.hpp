// Charge-storage element of the hybrid source (Figure 1).
//
// The buffer between the FC output IF and the load Ild: charged by
// Ichg = IF - Ild when the FC over-delivers, discharged by Idis = Ild - IF
// when the load peaks above the FC output. The paper's Experiment 1 uses a
// 1 F supercapacitor ("equivalent to 100 mA-min capacity when voltage is
// 12 V"); a Li-ion model with rate-dependent losses is provided as the
// alternative implementation the paper mentions.
//
// Charge is tracked in A-s on the 12 V bus (the paper's bookkeeping).
#pragma once

#include <memory>
#include <string>

#include "common/units.hpp"

namespace fcdpm::batch {
class BatchState;
}

namespace fcdpm::power {

/// Abstract storage element. Implementations may lose charge on the way
/// in/out (round-trip efficiency) but never create it.
class ChargeStorage {
 public:
  virtual ~ChargeStorage() = default;

  /// Usable capacity in bus A-s.
  [[nodiscard]] virtual Coulomb capacity() const = 0;

  /// Current stored charge in [0, capacity()].
  [[nodiscard]] virtual Coulomb charge() const = 0;

  /// Stored fraction in [0, 1].
  [[nodiscard]] double fraction() const;

  /// Bus charge that would have to be offered to fill the element
  /// completely (accounts for the element's charging losses). Used by the
  /// simulator to cut a charging segment at the moment of fullness.
  [[nodiscard]] virtual Coulomb bus_charge_to_full() const = 0;

  /// Let `dt` of wall time pass with no net current. Elements with
  /// internal dynamics (the kinetic battery's recovery effect) relax
  /// here; default is a no-op. The hybrid source calls this once per
  /// integrated segment.
  virtual void advance(Seconds dt);

  /// Offer `amount` of bus charge for storage; returns the part that did
  /// NOT fit (overflow, to be bled off). Losses are applied internally.
  [[nodiscard]] virtual Coulomb store(Coulomb amount) = 0;

  /// Request `amount` of bus charge; returns the part actually delivered
  /// (may be less when the element runs empty).
  [[nodiscard]] virtual Coulomb draw(Coulomb amount) = 0;

  /// Force the stored charge (testing / initial conditions).
  virtual void set_charge(Coulomb charge) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual std::unique_ptr<ChargeStorage> clone() const = 0;
};

/// Supercapacitor: near-lossless, usable window set by its voltage swing.
///
/// The paper's 1 F element is quoted as "100 mA-min capacity when voltage
/// is 12 V": 100 mA-min = 6 A-s, which is exactly a 1 F capacitor swinging
/// between 12 V and 6 V (C * dV = 6 A-s). `from_capacitance` computes the
/// window generally; `paper_1f` pins the published 6 A-s.
class SuperCapacitor final : public ChargeStorage {
 public:
  /// Usable window given directly.
  SuperCapacitor(Coulomb usable_capacity, double round_trip_efficiency);

  /// Paper's Experiment-1 element: 100 mA-min = 6 A-s usable, lossless
  /// (Section 3.3 assumption: "there is no charging/discharging loss in
  /// the charge storage element").
  [[nodiscard]] static SuperCapacitor paper_1f();

  /// Same element with a realistic ~98 % round trip, for studying how
  /// much the paper's lossless assumption matters.
  [[nodiscard]] static SuperCapacitor realistic_1f();

  /// From physical capacitance and the voltage window [v_lo, v_hi].
  [[nodiscard]] static SuperCapacitor from_capacitance(
      Farad capacitance, Volt v_lo, Volt v_hi,
      double round_trip_efficiency = 0.98);

  [[nodiscard]] Coulomb capacity() const override { return capacity_; }
  [[nodiscard]] Coulomb charge() const override { return charge_; }
  /// Per-leg efficiency (sqrt of the round trip), applied once on store
  /// and once on draw. The batch engine mirrors the store/draw arithmetic
  /// inline and needs this factor.
  [[nodiscard]] double one_way_efficiency() const noexcept {
    return one_way_efficiency_;
  }
  [[nodiscard]] Coulomb store(Coulomb amount) override;
  [[nodiscard]] Coulomb draw(Coulomb amount) override;
  void set_charge(Coulomb charge) override;
  [[nodiscard]] Coulomb bus_charge_to_full() const override;
  [[nodiscard]] std::string name() const override { return "supercap"; }
  [[nodiscard]] std::unique_ptr<ChargeStorage> clone() const override;

 private:
  // The batch engine accumulates `charge_ += landed` on a local mirror
  // and writes the final value back directly: `set_charge`'s range
  // contract would reject the 1-ulp overshoot the reference's own
  // accumulation legitimately produces, and clamping would break
  // bit-identity.
  friend class fcdpm::batch::BatchState;

  Coulomb capacity_;
  Coulomb charge_{0.0};
  double one_way_efficiency_;  // sqrt(round trip), applied on each leg
};

/// Li-ion cell bank as bus-referred charge storage: high energy density,
/// slightly lossy charging (coulombic efficiency), and an effective
/// capacity derated at high discharge rates (Peukert-style).
class LiIonBattery final : public ChargeStorage {
 public:
  struct Params {
    Coulomb nominal_capacity{360.0};  // 0.1 Ah @ 12 V bus
    double coulombic_efficiency = 0.99;
    /// Rated (1C) discharge current used as the Peukert reference.
    Ampere rated_current{0.1};
    double peukert_exponent = 1.05;
  };

  explicit LiIonBattery(Params params);

  [[nodiscard]] Coulomb capacity() const override {
    return params_.nominal_capacity;
  }
  [[nodiscard]] Coulomb charge() const override { return charge_; }
  [[nodiscard]] Coulomb store(Coulomb amount) override;
  [[nodiscard]] Coulomb draw(Coulomb amount) override;
  void set_charge(Coulomb charge) override;
  [[nodiscard]] Coulomb bus_charge_to_full() const override;

  /// Derated deliverable charge when discharging at `rate`: the Peukert
  /// effect makes fast discharges waste capacity. Exposed for tests and
  /// for rate-aware policies.
  [[nodiscard]] double discharge_efficiency(Ampere rate) const;

  /// Draw with an explicit discharge rate (slot simulators know it).
  [[nodiscard]] Coulomb draw_at_rate(Coulomb amount, Ampere rate);

  [[nodiscard]] std::string name() const override { return "li-ion"; }
  [[nodiscard]] std::unique_ptr<ChargeStorage> clone() const override;

 private:
  Params params_;
  Coulomb charge_{0.0};
};

/// Kinetic Battery Model (KiBaM, Manwell & McGowan): the stored charge
/// splits into an *available* well (directly drawable) and a *bound*
/// well that refills the available one at a finite rate. Resting lets
/// the wells equalize — the battery "recovers" — which is exactly the
/// non-linearity battery-aware DPM exploits and fuel cells lack
/// (Section 1 of the paper). Charge is bus-referred A-s.
class KineticBattery final : public ChargeStorage {
 public:
  struct Params {
    Coulomb total_capacity{60.0};
    /// Fraction of capacity in the available well, in (0, 1).
    double available_fraction = 0.4;
    /// Well-equalization rate constant (1/s): height difference decays
    /// as exp(-rate * t).
    double recovery_rate_per_s = 0.05;
    double charge_efficiency = 0.99;
  };

  explicit KineticBattery(Params params);

  [[nodiscard]] Coulomb capacity() const override {
    return params_.total_capacity;
  }
  /// Total stored charge (available + bound).
  [[nodiscard]] Coulomb charge() const override;
  /// Charge drawable right now without further recovery.
  [[nodiscard]] Coulomb available_charge() const noexcept {
    return available_;
  }
  [[nodiscard]] Coulomb bound_charge() const noexcept { return bound_; }

  [[nodiscard]] Coulomb store(Coulomb amount) override;
  [[nodiscard]] Coulomb draw(Coulomb amount) override;
  void set_charge(Coulomb charge) override;
  [[nodiscard]] Coulomb bus_charge_to_full() const override;
  void advance(Seconds dt) override;
  [[nodiscard]] std::string name() const override { return "kibam"; }
  [[nodiscard]] std::unique_ptr<ChargeStorage> clone() const override;

 private:
  Params params_;
  Coulomb available_{0.0};
  Coulomb bound_{0.0};

  [[nodiscard]] Coulomb available_well_size() const;
  [[nodiscard]] Coulomb bound_well_size() const;
};

}  // namespace fcdpm::power
