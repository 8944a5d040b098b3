// String utilities shared by the CSV layer and report renderers.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

namespace fcdpm {

/// Strip ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text);

/// Split on a single-character delimiter; adjacent delimiters yield empty
/// fields, and splitting "" yields one empty field (CSV semantics).
[[nodiscard]] std::vector<std::string> split(std::string_view text,
                                             char delimiter);

/// Join with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view separator);

/// The one number formatter: std::to_chars appending to `out`, with no
/// other allocation. Printing is exactly printf's in the "C" locale.
///
/// append_general: "%.*g" with `precision` significant digits (0-17);
/// 17 digits reproduce any binary64 bit pattern.
void append_general(std::string& out, double value, int precision);

/// append_fixed: "%.*f" with trailing-zero trimming ("1.30" -> "1.3",
/// "2.00" -> "2") and "-0" written as "0"; `max_decimals` is 0-17.
void append_fixed(std::string& out, double value, int max_decimals);

/// append_integer: the decimal digits of `value`, as "%d" prints them.
template <typename Integer>
void append_integer(std::string& out, Integer value) {
  char buffer[24];
  out.append(buffer, std::to_chars(buffer, buffer + sizeof buffer, value).ptr);
}

/// String forms of the above (format_fixed is used for table cells).
[[nodiscard]] std::string format_general(double value, int precision);
[[nodiscard]] std::string format_fixed(double value, int max_decimals);

/// Render a fraction as a percentage string, e.g. 0.308 -> "30.8%".
[[nodiscard]] std::string format_percent(double fraction, int decimals = 1);

/// True when `text` parses fully as a floating-point number.
[[nodiscard]] bool parse_double(std::string_view text, double& out);

}  // namespace fcdpm
