// Checked numeric parsing for command-line values (cbsim, cbfuzz). A value
// is accepted only when the whole string is a number inside the caller's
// range, so "abc", "2x", "-3" or "inf" is refused instead of read as 0, 2,
// a wrapped unsigned count or infinity.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace cb {

/// `text` as a decimal integer in [min, max]; nullopt when it is empty, has
/// a sign or any character past the digits, or lies outside the range.
std::optional<std::uint64_t> parse_uint(std::string_view text, std::uint64_t min,
                                        std::uint64_t max);

/// `text` as a finite decimal number in [min, max); nullopt when it has any
/// character past the number, is not finite, or lies outside the range.
std::optional<double> parse_real(std::string_view text, double min, double max);

}  // namespace cb
