#include "common/parse.hpp"

#include <charconv>
#include <cmath>

namespace cb {

std::optional<std::uint64_t> parse_uint(std::string_view text, std::uint64_t min,
                                        std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || value < min || value > max) return std::nullopt;
  return value;
}

std::optional<double> parse_real(std::string_view text, double min, double max) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || !std::isfinite(value)) return std::nullopt;
  if (!(value >= min && value < max)) return std::nullopt;
  return value;
}

}  // namespace cb
