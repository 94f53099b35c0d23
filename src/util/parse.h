// Strict number parsing for the text input surfaces (repro scenarios,
// mapping CSV): every value either parses completely or throws
// nocmap::Error, never a silently truncated or wrapped number.
#pragma once

#include <cstdint>
#include <string>

#include "util/error.h"

namespace nocmap {

/// An unsigned decimal: digits only (no sign, no blanks), the whole text
/// consumed, and at most `max`. `where` names the value's place in the
/// input for the error message.
inline std::uint64_t parse_unsigned(const std::string& text,
                                    std::uint64_t max,
                                    const std::string& where) {
  NOCMAP_REQUIRE(!text.empty(), "empty value in " + where);
  std::uint64_t v = 0;
  for (const char c : text) {
    NOCMAP_REQUIRE(c >= '0' && c <= '9',
                   "non-numeric value '" + text + "' in " + where);
    const auto digit = static_cast<std::uint64_t>(c - '0');
    NOCMAP_REQUIRE(v <= (max - digit) / 10,
                   "value '" + text + "' out of range in " + where);
    v = v * 10 + digit;
  }
  return v;
}

}  // namespace nocmap
