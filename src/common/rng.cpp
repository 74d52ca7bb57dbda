#include "common/rng.hpp"

#include <cmath>

#include "common/units.hpp"

namespace biosense {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  return mix64(x);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
  has_cached_normal_ = false;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Unbiased rejection sampling (Lemire-style bound check kept simple).
  const std::uint64_t limit = ~0ULL - (~0ULL % span);
  std::uint64_t draw = next_u64();
  while (draw >= limit) draw = next_u64();
  return lo + static_cast<std::int64_t>(draw % span);
}

double Rng::exponential(double lambda) {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / lambda;
}

std::int64_t Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  if (mean < 64.0) {
    const double limit = std::exp(-mean);
    std::int64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction; adequate accuracy for
  // the large molecule/electron counts it is used for.
  const double draw = normal(mean, std::sqrt(mean));
  return draw < 0.0 ? 0 : static_cast<std::int64_t>(draw + 0.5);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::log_uniform(double lo, double hi) {
  return std::exp(uniform(std::log(lo), std::log(hi)));
}

Rng Rng::fork() { return Rng(next_u64() ^ 0xd1b54a32d192ed03ULL); }

}  // namespace biosense
