// Deterministic random number generation for reproducible simulations.
//
// All stochastic components in biosense (noise sources, mismatch samplers,
// workload generators) draw from an explicitly seeded `Rng` so that every
// test, example and benchmark is bit-reproducible across runs. The engine
// is xoshiro256++, a small, fast, high-quality generator; distributions are
// implemented locally rather than via <random> so results do not depend on
// the standard library implementation.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace biosense {

namespace detail {
inline std::uint64_t rotl64(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace detail

/// The SplitMix64 finalizer: a bijective 64-bit mix. It seeds `Rng` and is
/// the whole generator of the counter-based pixel noise (noise/counter.hpp).
inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Complete serialized state of an `Rng` — the four xoshiro256++ words plus
/// the Box-Muller cache. `restore()`-ing this state reproduces the exact
/// draw sequence of the saved generator; every snapshot/resume guarantee in
/// the codebase bottoms out on this round trip (see test_rng_roundtrip).
struct RngState {
  std::array<std::uint64_t, 4> s{};
  double cached_normal = 0.0;
  bool has_cached_normal = false;
};

/// xoshiro256++ pseudo-random generator with deterministic seeding.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the engine from a single 64-bit value via splitmix64, which
  /// guarantees a well-mixed nonzero state for any seed (including 0).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Raw 64-bit draw. Inline (with uniform/normal below) because the SoA
  /// pixel kernel draws ~12 normals per pixel per frame; the arithmetic is
  /// identical to the previous out-of-line definition, so draw streams are
  /// unchanged bit for bit.
  std::uint64_t next_u64() {
    const std::uint64_t result =
        detail::rotl64(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = detail::rotl64(state_[3], 45);
    return result;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high-quality bits -> double in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached second value).
  double normal() {
    if (has_cached_normal_) {
      has_cached_normal_ = false;
      return cached_normal_;
    }
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * constants::kPi * u2;
    cached_normal_ = r * std::sin(theta);
    has_cached_normal_ = true;
    return r * std::cos(theta);
  }

  /// Normal with given mean and standard deviation.
  double normal(double mean, double sigma) { return mean + sigma * normal(); }

  /// Exponential with given rate lambda (mean 1/lambda).
  double exponential(double lambda);

  /// Poisson-distributed count with given mean. Uses Knuth's method for
  /// small means and a normal approximation above 64 (adequate for the
  /// shot-noise and molecule-count use cases in this library).
  std::int64_t poisson(double mean);

  /// Bernoulli trial with probability p.
  bool bernoulli(double p);

  /// Log-uniform value in [lo, hi]; lo, hi must be positive.
  double log_uniform(double lo, double hi);

  /// Forks an independent child generator. The child stream is decorrelated
  /// from the parent by hashing a fresh draw, so per-pixel generators can be
  /// derived from one master seed.
  Rng fork();

  /// Captures the full generator state (engine words + normal cache).
  RngState state() const { return {state_, cached_normal_, has_cached_normal_}; }

  /// Restores a state captured by `state()`; subsequent draws continue the
  /// saved sequence exactly, including a pending cached Box-Muller value.
  void restore(const RngState& st) {
    state_ = st.s;
    cached_normal_ = st.cached_normal;
    has_cached_normal_ = st.has_cached_normal;
  }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace biosense
