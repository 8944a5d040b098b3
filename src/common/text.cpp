#include "common/text.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "common/contracts.hpp"

namespace fcdpm {

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view text, char delimiter) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      return parts;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string out;
  for (std::size_t k = 0; k < parts.size(); ++k) {
    if (k != 0) {
      out += separator;
    }
    out += parts[k];
  }
  return out;
}

namespace {

/// Longest text: "%.17f" of -DBL_MAX (sign, 309 digits, point, 17).
constexpr std::size_t kMaxChars = 330;

/// printf's "%.*<format>" into `buffer`; returns the end of the text.
char* print(char (&buffer)[kMaxChars], double value,
            std::chars_format format, int precision) {
  FCDPM_EXPECTS(precision >= 0 && precision <= 17,
                "precision out of range");
  const std::to_chars_result r =
      std::to_chars(buffer, buffer + kMaxChars, value, format, precision);
  FCDPM_ENSURES(r.ec == std::errc{}, "number longer than its buffer");
  return r.ptr;
}

}  // namespace

void append_general(std::string& out, double value, int precision) {
  char buffer[kMaxChars];
  out.append(buffer,
             print(buffer, value, std::chars_format::general, precision));
}

void append_fixed(std::string& out, double value, int max_decimals) {
  char buffer[kMaxChars];
  char* end = print(buffer, value, std::chars_format::fixed, max_decimals);
  if (std::find(buffer, end, '.') != end) {
    while (end[-1] == '0') {
      --end;
    }
    if (end[-1] == '.') {
      --end;
    }
  }
  if (end - buffer == 2 && buffer[0] == '-' && buffer[1] == '0') {
    out += '0';
    return;
  }
  out.append(buffer, end);
}

std::string format_general(double value, int precision) {
  std::string text;
  append_general(text, value, precision);
  return text;
}

std::string format_fixed(double value, int max_decimals) {
  std::string text;
  append_fixed(text, value, max_decimals);
  return text;
}

std::string format_percent(double fraction, int decimals) {
  char buffer[kMaxChars];
  std::string text(buffer, print(buffer, fraction * 100.0,
                                 std::chars_format::fixed, decimals));
  text += '%';
  return text;
}

bool parse_double(std::string_view text, double& out) {
  const std::string_view trimmed = trim(text);
  if (trimmed.empty()) {
    return false;
  }
  const char* begin = trimmed.data();
  const char* end = begin + trimmed.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace fcdpm
