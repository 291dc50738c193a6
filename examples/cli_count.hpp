// Strict parsing for the examples' count flags (--workers, --queue,
// --generate): a plain decimal integer in [1, max] and nothing else.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstring>
#include <system_error>

namespace avsec::examples {

/// Parses `text` as a count in [1, max]. Returns false, leaving `out`
/// untouched, on a sign, trailing junk, overflow or an out-of-range
/// value — so "-1" is a usage error instead of SIZE_MAX threads.
inline bool parse_count(const char* text, std::size_t max, std::size_t& out) {
  const char* end = text + std::strlen(text);
  std::size_t v = 0;
  const auto [p, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || p != end || v < 1 || v > max) return false;
  out = v;
  return true;
}

}  // namespace avsec::examples
