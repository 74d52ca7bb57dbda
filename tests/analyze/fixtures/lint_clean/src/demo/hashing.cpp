// Clean control: hashing through common/hash.hpp, and numbers that only
// resemble the FNV-1a constants.
#include <cstdint>

#include "common/hash.hpp"

namespace demo {

std::uint64_t seed_mix(std::uint64_t x) {
  const double prime_ish = 1.099511628211e12;  // a float, not the prime
  return (x ^ kFnv1aOffset) * kFnv1aPrime + 1469598103934665602ULL +
         0x100000001b2ULL + static_cast<std::uint64_t>(prime_ish);
}

}  // namespace demo
