// Whole-field, locale-independent number parsing for the trace and DBC
// readers (candump/CSV, BO_/BA_, SG_).
//
// std::from_chars never consults LC_NUMERIC, and the whole field must be
// consumed: "8x", "1.5q", "" and "-" are rejected, where std::stoi/std::stod
// would return 8 or 1.5, honour a comma-decimal locale, or throw a bare
// std::invalid_argument("stoi") past the parser's own error path.
#pragma once

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace mcan::restbus {

/// Parse all of `text` as a T (decimal); false on anything else, including
/// out-of-range values and, for floating point, inf/nan.
template <typename T>
[[nodiscard]] bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc{} || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(out);
  return true;
}

}  // namespace mcan::restbus
