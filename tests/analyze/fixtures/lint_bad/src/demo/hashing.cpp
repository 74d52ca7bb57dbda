// Seeded violation: one-hash (hand-rolled FNV-1a outside common/hash.hpp).
#include <cstddef>
#include <cstdint>

namespace demo {

std::uint64_t digest(const unsigned char* p, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;  // [MUST-FIRE: one-hash]
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;                   // [MUST-FIRE: one-hash]
  }
  return h ^ 0xcbf2'9ce4'8422'2325;          // [MUST-FIRE: one-hash]
}

}  // namespace demo
