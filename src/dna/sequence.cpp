#include "dna/sequence.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace biosense::dna {

char to_char(Base b) {
  switch (b) {
    case Base::kA: return 'A';
    case Base::kC: return 'C';
    case Base::kG: return 'G';
    case Base::kT: return 'T';
  }
  return '?';
}

Base from_char(char c) {
  switch (c) {
    case 'A': case 'a': return Base::kA;
    case 'C': case 'c': return Base::kC;
    case 'G': case 'g': return Base::kG;
    case 'T': case 't': return Base::kT;
    default:
      throw ConfigError(std::string("Sequence: invalid base character '") + c +
                        "'");
  }
}

Base complement(Base b) {
  switch (b) {
    case Base::kA: return Base::kT;
    case Base::kC: return Base::kG;
    case Base::kG: return Base::kC;
    case Base::kT: return Base::kA;
  }
  return Base::kA;
}

Sequence::Sequence(std::string_view bases) {
  bases_.reserve(bases.size());
  for (char c : bases) bases_.push_back(from_char(c));
}

Sequence Sequence::random(std::size_t length, Rng& rng) {
  std::vector<Base> b(length);
  for (auto& x : b) x = static_cast<Base>(rng.uniform_int(0, 3));
  return Sequence(std::move(b));
}

std::string Sequence::str() const {
  std::string s;
  s.reserve(bases_.size());
  for (Base b : bases_) s.push_back(to_char(b));
  return s;
}

Sequence Sequence::reverse_complement() const {
  std::vector<Base> b(bases_.size());
  for (std::size_t i = 0; i < bases_.size(); ++i) {
    b[i] = complement(bases_[bases_.size() - 1 - i]);
  }
  return Sequence(std::move(b));
}

Sequence Sequence::subsequence(std::size_t pos, std::size_t len) const {
  require(pos + len <= bases_.size(), "Sequence::subsequence out of range");
  return Sequence(std::vector<Base>(bases_.begin() + static_cast<long>(pos),
                                    bases_.begin() + static_cast<long>(pos + len)));
}

std::size_t Sequence::mismatches_when_hybridized(const Sequence& other) const {
  require(other.size() == size(),
          "Sequence::mismatches_when_hybridized: lengths differ");
  // Antiparallel alignment: base i of this pairs with base (n-1-i) of other.
  std::size_t mm = 0;
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    if (other.bases_[n - 1 - i] != complement(bases_[i])) ++mm;
  }
  return mm;
}

std::optional<std::size_t> Sequence::best_window_mismatches(
    const Sequence& probe) const {
  if (probe.size() > size() || probe.empty()) return std::nullopt;
  std::size_t best = probe.size() + 1;
  for (std::size_t pos = 0; pos + probe.size() <= size(); ++pos) {
    const Sequence window = subsequence(pos, probe.size());
    best = std::min(best, probe.mismatches_when_hybridized(window));
    if (best == 0) break;
  }
  return best;
}

Sequence Sequence::with_mismatches(std::size_t count, Rng& rng) const {
  require(count <= size(), "Sequence::with_mismatches: too many mismatches");
  std::vector<std::size_t> positions(size());
  for (std::size_t i = 0; i < size(); ++i) positions[i] = i;
  rng.shuffle(positions);
  std::vector<Base> b = bases_;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t pos = positions[k];
    // Substitute with a different base.
    Base nb = b[pos];
    while (nb == b[pos]) nb = static_cast<Base>(rng.uniform_int(0, 3));
    b[pos] = nb;
  }
  return Sequence(std::move(b));
}

}  // namespace biosense::dna
