#include "fuelcell/polarization_table.hpp"

#include "common/contracts.hpp"

namespace fcdpm::fc {

PolarizationTable::PolarizationTable(const power::FuelSource& source,
                                     std::size_t samples) {
  FCDPM_EXPECTS(samples >= 2, "polarization table needs at least 2 samples");
  min_ = source.min_output().value();
  max_ = source.max_output().value();
  FCDPM_EXPECTS(min_ < max_, "fuel source range is degenerate");

  const double step = (max_ - min_) / static_cast<double>(samples - 1);
  inv_step_ = 1.0 / step;
  table_.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    // Pin the last sample to max_ exactly so the clamp never reads past
    // the sampled range.
    const double x = (i + 1 == samples) ? max_
                                        : min_ + static_cast<double>(i) * step;
    table_.push_back(source.fuel_current(Ampere(x)).value());
  }
}

}  // namespace fcdpm::fc
