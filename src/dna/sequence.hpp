// DNA sequence value type.
//
// Probe molecules on the paper's microarray are 15-40 bases long (Fig. 2
// caption); target molecules can be 2-3 orders of magnitude longer. A
// `Sequence` stores 5'->3' bases and provides the operations the assay
// model needs: complementing, mismatch counting against a probe, and
// subsequence search (a long target hybridizes to a probe wherever a
// sufficiently complementary window exists).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace biosense::dna {

enum class Base : std::uint8_t { kA = 0, kC = 1, kG = 2, kT = 3 };

char to_char(Base b);
Base from_char(char c);  // throws ConfigError on invalid character
Base complement(Base b);

class Sequence {
 public:
  Sequence() = default;
  /// Parses an ACGT string (case-insensitive); throws on invalid characters.
  explicit Sequence(std::string_view bases);
  explicit Sequence(std::vector<Base> bases) : bases_(std::move(bases)) {}

  static Sequence random(std::size_t length, Rng& rng);

  std::size_t size() const { return bases_.size(); }
  bool empty() const { return bases_.empty(); }
  Base operator[](std::size_t i) const { return bases_[i]; }
  const std::vector<Base>& bases() const { return bases_; }

  std::string str() const;

  /// Reverse complement: the strand that hybridizes to this one.
  Sequence reverse_complement() const;
  Sequence subsequence(std::size_t pos, std::size_t len) const;

  /// Number of positions where `other` is NOT the Watson-Crick complement
  /// of this sequence when the two are aligned antiparallel (i.e. comparing
  /// against other's reverse). Requires equal lengths.
  std::size_t mismatches_when_hybridized(const Sequence& other) const;

  /// Best (fewest-mismatch) alignment of the probe against any window of
  /// this (long) target in hybridization orientation. Returns the mismatch
  /// count, or nullopt if the target is shorter than the probe.
  std::optional<std::size_t> best_window_mismatches(const Sequence& probe) const;

  /// Copy with `count` random point substitutions at distinct positions.
  Sequence with_mismatches(std::size_t count, Rng& rng) const;

  bool operator==(const Sequence& other) const = default;

 private:
  std::vector<Base> bases_;
};

}  // namespace biosense::dna
