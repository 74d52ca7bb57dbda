// Clean control: the one home of the FNV-1a constants.
#pragma once

#include <cstdint>

namespace demo {

inline constexpr std::uint64_t kFnv1aOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

}  // namespace demo
