#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace imap::testing {

/// FNV-1a over raw bytes — the digest that pinned bit-identity values in
/// the tests are recorded with.
inline std::uint64_t fnv1a(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a over the exact bytes of a double sequence, in order.
inline std::uint64_t digest(const std::vector<double>& v) {
  return fnv1a(v.data(), v.size() * sizeof(double));
}

}  // namespace imap::testing
