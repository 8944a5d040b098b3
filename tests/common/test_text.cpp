#include "common/text.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/contracts.hpp"

namespace fcdpm {
namespace {

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t a b \n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Split, BasicFields) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, EmptyFieldsPreserved) {
  const auto parts = split(",a,,b,", ',');
  ASSERT_EQ(parts.size(), 5u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[4], "");
}

TEST(Split, EmptyStringYieldsOneField) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Join, RoundTripsWithSplit) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(join(parts, ","), "x,y,z");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(FormatFixed, TrimsTrailingZeros) {
  EXPECT_EQ(format_fixed(1.30, 2), "1.3");
  EXPECT_EQ(format_fixed(2.00, 2), "2");
  EXPECT_EQ(format_fixed(13.45, 2), "13.45");
  EXPECT_EQ(format_fixed(0.448, 3), "0.448");
  EXPECT_EQ(format_fixed(-0.0, 2), "0");
  EXPECT_EQ(format_fixed(-1.50, 2), "-1.5");
}

TEST(FormatFixed, ZeroDecimalsRounds) {
  EXPECT_EQ(format_fixed(39.18, 0), "39");
  EXPECT_EQ(format_fixed(0.6, 0), "1");
}

TEST(FormatFixed, RejectsAbsurdDecimals) {
  EXPECT_THROW((void)format_fixed(1.0, -1), PreconditionError);
  EXPECT_THROW((void)format_fixed(1.0, 30), PreconditionError);
}

TEST(FormatPercent, RendersFraction) {
  EXPECT_EQ(format_percent(0.308), "30.8%");
  EXPECT_EQ(format_percent(0.408), "40.8%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
  EXPECT_EQ(format_percent(0.2444, 1), "24.4%");
}

TEST(ParseDouble, AcceptsNumbers) {
  double v = 0.0;
  EXPECT_TRUE(parse_double("3.03", v));
  EXPECT_DOUBLE_EQ(v, 3.03);
  EXPECT_TRUE(parse_double("  14.65 ", v));
  EXPECT_DOUBLE_EQ(v, 14.65);
  EXPECT_TRUE(parse_double("-2e3", v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
}

TEST(ParseDouble, RejectsGarbage) {
  double v = 0.0;
  EXPECT_FALSE(parse_double("", v));
  EXPECT_FALSE(parse_double("abc", v));
  EXPECT_FALSE(parse_double("1.2x", v));
  EXPECT_FALSE(parse_double("1.2 3", v));
}

// --- the formatter prints exactly what printf prints ------------------

std::string printf_text(const char* format, int precision, double value) {
  char buffer[400];
  std::snprintf(buffer, sizeof buffer, format, precision, value);
  return buffer;
}

TEST(TextFormat, MatchesSnprintf) {
  std::vector<double> values = {
      0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1 + 0.2,
      1.0 / 3.0, 0.5, 1.5, 2.5, -2.5, 0.125, 1e-7, 9.9999999999999995e-8,
      1e15, 1e16, 1e17, 123456789012345678.0, 1e300, -1e300,
      std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(), 826.8231756513512, 0.005,
      0.0049999999999999999, 999999.5, 0.95, 9.5, 99.995};
  std::mt19937_64 rng(20071);
  for (int k = 0; k < 100000; ++k) {
    const std::uint64_t bits = rng();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof value);
    values.push_back(value);
  }
  // Ordinary magnitudes too: random bit patterns are mostly huge or tiny.
  std::uniform_real_distribution<double> ordinary(-1e4, 1e4);
  for (int k = 0; k < 10000; ++k) {
    values.push_back(ordinary(rng));
  }

  for (const double value : values) {
    for (const int precision : {17, 12}) {
      std::string text;
      append_general(text, value, precision);
      ASSERT_EQ(text, printf_text("%.*g", precision, value))
          << "precision " << precision;
      EXPECT_EQ(format_general(value, precision), text);
    }
    for (int decimals = 0; decimals <= 6; ++decimals) {
      std::string expected = printf_text("%.*f", decimals, value);
      if (expected.find('.') != std::string::npos) {
        expected.erase(expected.find_last_not_of('0') + 1);
        if (expected.back() == '.') {
          expected.pop_back();
        }
      }
      if (expected == "-0") {
        expected = "0";
      }
      ASSERT_EQ(format_fixed(value, decimals), expected)
          << "decimals " << decimals << ", %.17g " << value;
    }
  }
}

TEST(TextFormat, AppendsWithoutTouchingThePrefix) {
  std::string out = "x=";
  append_general(out, 0.1, 17);
  append_fixed(out, -0.0, 2);
  append_fixed(out, 2.50, 3);
  EXPECT_EQ(out, "x=0.1000000000000000102.5");
  EXPECT_THROW(append_general(out, 1.0, 18), PreconditionError);
  EXPECT_THROW(append_fixed(out, 1.0, -1), PreconditionError);
}

}  // namespace
}  // namespace fcdpm
