// Experiment harness utilities shared by benches, examples and tests:
// parameter sweeps, result collection and paper-vs-measured reporting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/table.hpp"

namespace biosense::core {

/// `n` logarithmically spaced values over [lo, hi] (inclusive).
std::vector<double> log_space(double lo, double hi, std::size_t n);

/// One paper-claim check: the quantity, what the paper states, what the
/// simulation measured, and whether the measurement is inside the accepted
/// band.
struct ClaimCheck {
  std::string quantity;
  std::string paper_value;
  std::string measured_value;
  bool pass = false;
};

/// Collects claim checks and renders them as a table.
class ClaimReport {
 public:
  explicit ClaimReport(std::string title) : title_(std::move(title)) {}

  void add(std::string quantity, std::string paper_value,
           std::string measured_value, bool pass);

  /// Numeric convenience: passes when measured is within [lo, hi].
  void add_range(std::string quantity, std::string paper_value,
                 double measured, double lo, double hi,
                 const std::string& unit);

  bool all_pass() const;
  std::size_t size() const { return checks_.size(); }
  const std::vector<ClaimCheck>& checks() const { return checks_; }
  const std::string& title() const { return title_; }

  void print(std::ostream& os) const;

  /// Writes the report as one JSON object:
  ///   {"title": ..., "all_pass": ..., "checks": [{"quantity": ...,
  ///    "paper": ..., "measured": ..., "pass": ...}, ...]}
  void to_json(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<ClaimCheck> checks_;
};

}  // namespace biosense::core
