// Byte-identity goldens: every suite that pins a run's output hashes it with
// this one 64-bit FNV-1a, so a pinned constant means the same thing in every
// test file.

#pragma once

#include <cstdint>
#include <string_view>

namespace tangram::golden {

[[nodiscard]] inline std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace tangram::golden
