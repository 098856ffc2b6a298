#pragma once

/// \file strings.hpp
/// Small string utilities shared by the frontends, prompt rendering, report
/// formatting and the tools' flag parsing. Kept dependency-free.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "util/status.hpp"

namespace genfv::util {

/// Split `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Split `text` into non-empty whitespace-delimited tokens.
std::vector<std::string> split_ws(std::string_view text);

/// Trim ASCII whitespace from both ends.
std::string trim(std::string_view text);

/// Join `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

bool contains(std::string_view text, std::string_view needle) noexcept;

std::string to_lower(std::string_view text);

/// Format `value` (masked to `width` bits) as a Verilog-style sized hex
/// literal, e.g. 32'hdeadbeef.
std::string hex_literal(std::uint64_t value, unsigned width);

/// Format `value` as a `width`-character binary string, MSB first.
std::string bin_string(std::uint64_t value, unsigned width);

/// Render seconds as a human-friendly duration ("12.3 ms", "4.56 s").
std::string format_duration(double seconds);

/// The value of numeric flag `flag`: all of `text` must be one number in
/// T's range (no sign for unsigned T, finite for floating-point T).
/// Anything else throws UsageError("<flag> takes ..., got '<text>'").
template <typename T>
T parse_number(std::string_view flag, std::string_view text) {
  static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  bool ok = !text.empty() && ec == std::errc() && stop == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    const char* kind = std::is_floating_point_v<T> ? "a number" : "a non-negative integer";
    throw UsageError(std::string(flag) + " takes " + kind + ", got '" + std::string(text) +
                     "'");
  }
  return value;
}

}  // namespace genfv::util
