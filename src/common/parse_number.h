// Strict number parsing for command-line flags. The whole token must be a
// number of the requested type: no empty input, no trailing garbage, no
// sign on an unsigned type, no out-of-range value, no inf/nan. atoi/atof
// accept all of those silently ("--cores abc" used to mean 0 cores).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace cmcp::common {

/// `text` as a T, or nullopt unless std::from_chars consumes all of it.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(value)) return std::nullopt;
  return value;
}

/// parse_number for the value of command-line flag `flag` (spelled as
/// typed, e.g. "--cores"). A bad value is a usage error: prints
/// "--cores: 'abc' is not a number" and exits 2.
template <typename T>
T parse_flag(std::string_view flag, std::string_view text) {
  if (const std::optional<T> value = parse_number<T>(text)) return *value;
  std::fprintf(stderr, "%.*s: '%.*s' is not a number\n",
               static_cast<int>(flag.size()), flag.data(),
               static_cast<int>(text.size()), text.data());
  std::exit(2);
}

/// parse_flag limited to [lo, hi]. A value outside it is a usage error:
/// prints "--cores: '0' is out of range [1, 1087]" and exits 2.
template <typename T>
T parse_flag(std::string_view flag, std::string_view text, T lo, T hi) {
  const T value = parse_flag<T>(flag, text);
  if (value >= lo && value <= hi) return value;
  std::fprintf(stderr, "%.*s: '%.*s' is out of range [%s, %s]\n",
               static_cast<int>(flag.size()), flag.data(),
               static_cast<int>(text.size()), text.data(),
               std::to_string(lo).c_str(), std::to_string(hi).c_str());
  std::exit(2);
}

}  // namespace cmcp::common
