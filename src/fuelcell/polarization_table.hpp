// Table-interpolated fuel-current curve: FuelSource::fuel_current
// sampled once over the load-following range on a uniform grid, then
// answered by one clamp + one linear interpolation — branch-light and
// iteration-free. For the physical FC system, whose operating point is
// found iteratively per query, this trades a documented, bounded
// interpolation error for a flat lookup cost.
//
// NOT bit-identical to the model it samples: no engine substitutes it
// silently. It is an opt-in surrogate for sweeps over the physical
// model, with its accuracy bound pinned by
// tests/fuelcell/test_polarization_table.cpp and its cost by
// bench/perf_solvers. Only FuelSource's pure virtuals are called, so
// the fuelcell library needs no link dependency on power.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "power/hybrid.hpp"

namespace fcdpm::fc {

class PolarizationTable {
 public:
  /// Sample `source.fuel_current` at `samples` uniformly spaced points
  /// over [source.min_output(), source.max_output()]. Requires
  /// samples >= 2. The source is only used during construction.
  explicit PolarizationTable(const power::FuelSource& source,
                             std::size_t samples = 256);

  /// Interpolated fuel current at output `i_f`: exactly 0 at IF == 0
  /// (FC idled, same convention as the sources), clamped into the
  /// sampled range otherwise.
  [[nodiscard]] Ampere fuel_current(Ampere i_f) const noexcept {
    const double x = i_f.value();
    if (x == 0.0) {
      return Ampere(0.0);
    }
    const double clamped = x < min_ ? min_ : (x > max_ ? max_ : x);
    const double u = (clamped - min_) * inv_step_;
    std::size_t idx = static_cast<std::size_t>(u);
    const std::size_t last = table_.size() - 2;
    if (idx > last) {
      idx = last;
    }
    const double t = u - static_cast<double>(idx);
    return Ampere(table_[idx] + t * (table_[idx + 1] - table_[idx]));
  }

  [[nodiscard]] Ampere min_output() const noexcept { return Ampere(min_); }
  [[nodiscard]] Ampere max_output() const noexcept { return Ampere(max_); }
  [[nodiscard]] std::size_t samples() const noexcept { return table_.size(); }

 private:
  std::vector<double> table_;
  double min_ = 0.0;
  double max_ = 0.0;
  double inv_step_ = 0.0;
};

}  // namespace fcdpm::fc
