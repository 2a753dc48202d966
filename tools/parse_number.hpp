// Whole-token numeric flag and environment values for the recorders: the
// value must be one finite number and nothing after it, no smaller than
// its floor. "2x", "banana", "", "inf", "-1" for an unsigned flag and an
// overflowing value are all rejected, where atoi/strtoull would read a
// prefix, a zero or a wrapped value.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace bbal::tools {

/// Parse all of `text` as a finite T >= lo into `out`; false (and `out`
/// untouched) otherwise.
template <typename T>
[[nodiscard]] bool parse_number(std::string_view text, T lo, T& out) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || !(value >= lo)) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  out = value;
  return true;
}

/// Read the integer environment variable `name` into `out` (left as is
/// when unset) through parse_number with floor `lo`; false, after naming
/// the variable and its value on stderr as `tool`, when malformed.
[[nodiscard]] inline bool env_number(const char* tool, const char* name,
                                     int lo, int& out) {
  const char* value = std::getenv(name);
  if (value == nullptr || parse_number(std::string_view(value), lo, out))
    return true;
  std::fprintf(stderr, "%s: bad %s value \"%s\"\n", tool, name, value);
  return false;
}

}  // namespace bbal::tools
