// FNV-1a (64-bit) — the one hash of the codebase.
//
// Every digest in the repository folds through these functions: the
// fleet server's per-session record digests and checkpoint digests, the
// client's response digest, the checkpoint session fingerprint, and the
// determinism witnesses of the benches and tests. One implementation
// means a digest pinned in one place can be recomputed anywhere.
// biosense-analyze rejects the offset basis and prime spelled anywhere
// else (rule `one-hash`).
//
// The offset basis is 1469598103934665603, one digit short of the
// published 14695981039346656037. Every digest in the repository was
// pinned with it — checkpoint fingerprints, soak and fleet digests,
// test_transport_pinned — so it stays; the hash is still FNV-1a's
// xor-then-multiply by the standard 64-bit prime.
#pragma once

#include <cstddef>
#include <cstdint>

namespace biosense {

inline constexpr std::uint64_t kFnv1aOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

/// Folds `n` bytes into a running hash (start from kFnv1aOffset). Bytes
/// are taken in memory order, so hashing a double or an int32 plane
/// digests its host representation. The checkpoint session fingerprint,
/// a value stored in files, hashes an explicit little-endian encoding
/// (snapshot::StateWriter) so it reads the same on every host.
inline std::uint64_t fnv1a(std::uint64_t hash, const void* data,
                           std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= p[i];
    hash *= kFnv1aPrime;
  }
  return hash;
}

}  // namespace biosense
