#include "fuelcell/polarization_table.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "power/efficiency_model.hpp"
#include "power/fc_system.hpp"
#include "power/hybrid.hpp"

namespace {

using namespace fcdpm;

power::LinearFuelSource linear_source() {
  return power::LinearFuelSource(
      power::LinearEfficiencyModel::paper_default());
}

TEST(PolarizationTable, ZeroMeansFcIdled) {
  const power::LinearFuelSource source = linear_source();
  const fc::PolarizationTable table(source);
  EXPECT_EQ(table.fuel_current(Ampere(0.0)).value(), 0.0);
}

TEST(PolarizationTable, EndpointsAreExactSamples) {
  const power::LinearFuelSource source = linear_source();
  const fc::PolarizationTable table(source);
  EXPECT_EQ(table.fuel_current(source.min_output()).value(),
            source.fuel_current(source.min_output()).value());
  EXPECT_EQ(table.fuel_current(source.max_output()).value(),
            source.fuel_current(source.max_output()).value());
}

TEST(PolarizationTable, ClampsIntoTheSampledRange) {
  const power::LinearFuelSource source = linear_source();
  const fc::PolarizationTable table(source);
  EXPECT_EQ(table.fuel_current(source.min_output() * 0.5).value(),
            table.fuel_current(source.min_output()).value());
  EXPECT_EQ(table.fuel_current(source.max_output() * 2.0).value(),
            table.fuel_current(source.max_output()).value());
}

TEST(PolarizationTable, InterpolationErrorIsBoundedLinearModel) {
  const power::LinearFuelSource source = linear_source();
  const fc::PolarizationTable table(source, 256);
  const double lo = source.min_output().value();
  const double hi = source.max_output().value();
  double worst = 0.0;
  for (int k = 0; k <= 5000; ++k) {
    const double x = lo + (hi - lo) * static_cast<double>(k) / 5000.0;
    const double exact = source.fuel_current(Ampere(x)).value();
    const double approx = table.fuel_current(Ampere(x)).value();
    worst = std::max(worst, std::abs(approx - exact) / exact);
  }
  // k*i/(alpha - beta*i) is smooth and mildly convex over the range;
  // 256 uniform samples hold the relative error well under 0.01 %.
  EXPECT_LT(worst, 1e-4);
}

TEST(PolarizationTable, SurrogatesThePhysicalSourceWithinTolerance) {
  const power::PhysicalFuelSource source(power::FcSystem::paper_system(),
                                         Ampere(0.1));
  // The physical curve turns near-vertical at the maximum power point,
  // so coarse grids (512 samples: ~5e-3 worst) leave their error at the
  // knee; 2048 samples resolve it (~2e-5 worst, asserted at 1e-3).
  const fc::PolarizationTable table(source, 2048);
  const double lo = source.min_output().value();
  const double hi = source.max_output().value();
  double worst = 0.0;
  for (int k = 0; k <= 1000; ++k) {
    const double x = lo + (hi - lo) * static_cast<double>(k) / 1000.0;
    const double exact = source.fuel_current(Ampere(x)).value();
    const double approx = table.fuel_current(Ampere(x)).value();
    worst = std::max(worst, std::abs(approx - exact) / exact);
  }
  EXPECT_LT(worst, 1e-3);
}

TEST(PolarizationTable, MoreSamplesTightenTheBound) {
  const power::LinearFuelSource source = linear_source();
  const fc::PolarizationTable coarse(source, 8);
  const fc::PolarizationTable fine(source, 1024);
  const double lo = source.min_output().value();
  const double hi = source.max_output().value();
  double worst_coarse = 0.0;
  double worst_fine = 0.0;
  for (int k = 0; k <= 2000; ++k) {
    const double x = lo + (hi - lo) * static_cast<double>(k) / 2000.0;
    const double exact = source.fuel_current(Ampere(x)).value();
    worst_coarse =
        std::max(worst_coarse,
                 std::abs(coarse.fuel_current(Ampere(x)).value() - exact));
    worst_fine =
        std::max(worst_fine,
                 std::abs(fine.fuel_current(Ampere(x)).value() - exact));
  }
  EXPECT_LT(worst_fine, worst_coarse);
}

TEST(PolarizationTable, RequiresAtLeastTwoSamples) {
  const power::LinearFuelSource source = linear_source();
  EXPECT_THROW(fc::PolarizationTable(source, 1), PreconditionError);
  EXPECT_THROW(fc::PolarizationTable(source, 0), PreconditionError);
}

TEST(PolarizationTable, ReportsItsGrid) {
  const power::LinearFuelSource source = linear_source();
  const fc::PolarizationTable table(source, 64);
  EXPECT_EQ(table.samples(), 64u);
  EXPECT_EQ(table.min_output().value(), source.min_output().value());
  EXPECT_EQ(table.max_output().value(), source.max_output().value());
}

}  // namespace
