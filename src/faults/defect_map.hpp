// Defect maps and graceful-degradation reporting.
//
// A `DefectMap` is the host's empirical picture of a die: which sites or
// pixels a BIST self-test sweep found dead, stuck, railed or leaky. It is
// what the readout stack degrades gracefully *against* — defective sites
// are masked and neighbor-interpolated instead of poisoning downstream
// analysis, and the map's yield goes into the run's degradation summary.
//
// The map is the *measured* counterpart of the *injected*
// `faults::SiteFaultSet`: tests compare the two (`false_negatives`) to
// prove the BIST catches everything the plan injected.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "faults/fault_plan.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::faults {

/// Defect classification produced by a BIST sweep.
enum class DefectType : std::uint8_t {
  kGood = 0,
  kDead,     // no response to the test stimulus
  kStuck,    // fixed output regardless of stimulus / gate time
  kRailed,   // pinned at ADC full scale
  kLeakage,  // leakage far above the population baseline
};

/// Per-site defect status of one die, row-major.
class DefectMap {
 public:
  DefectMap() = default;
  DefectMap(int rows, int cols);  // all good

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool empty() const { return status_.empty(); }

  DefectType at(int r, int c) const;
  void mark(int r, int c, DefectType t);
  bool good(int r, int c) const { return at(r, c) == DefectType::kGood; }

  std::size_t defect_count() const;
  /// Fraction of good sites (1.0 for an empty map).
  double yield() const;
  /// (row, col) of every defective site, row-major order.
  std::vector<std::pair<int, int>> defects() const;

  /// Number of faulted sites in `truth` (an injected fault set of the same
  /// dimensions) that this map fails to flag — the BIST false-negative
  /// count. A type mismatch (e.g. stuck classified as dead) still counts
  /// as flagged.
  std::size_t false_negatives(const SiteFaultSet& truth) const;

  /// A defect map is host-measured state (BIST output), so it travels in
  /// snapshots rather than being re-derived on restore.
  void save_state(snapshot::StateWriter& w) const {
    w.i32(rows_);
    w.i32(cols_);
    for (DefectType t : status_) w.u8(static_cast<std::uint8_t>(t));
  }
  void load_state(snapshot::StateReader& r) {
    const std::int32_t rows = r.i32();
    const std::int32_t cols = r.i32();
    if (!r.ok() || rows < 0 || cols < 0 ||
        (rows != 0 && static_cast<std::size_t>(cols) > r.remaining() / static_cast<std::size_t>(rows))) {
      r.fail();
      return;
    }
    const std::size_t n = static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
    if (n > r.remaining()) {
      r.fail();
      return;
    }
    std::vector<DefectType> status(n, DefectType::kGood);
    for (DefectType& t : status) {
      const std::uint8_t v = r.u8();
      if (v > static_cast<std::uint8_t>(DefectType::kLeakage)) {
        r.fail();
        return;
      }
      t = static_cast<DefectType>(v);
    }
    if (!r.ok()) return;
    rows_ = rows;
    cols_ = cols;
    status_ = std::move(status);
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<DefectType> status_;
};

/// Replaces the value at every defective site with the mean of its good
/// 4-neighbours (0 when all neighbours are defective), in place.
/// `values` is the row-major per-site data of the map's grid.
void mask_interpolate(const DefectMap& map, std::vector<double>& values);

/// One run's graceful-degradation summary: how much of the die was usable
/// and what the transport layer had to do to deliver the data.
struct DegradationSummary {
  double yield = 1.0;  // good-site fraction from the defect map
  int masked = 0;      // sites/pixels masked and interpolated
  std::uint64_t retries = 0;
  std::uint64_t crc_failures = 0;
  std::uint64_t timeouts = 0;
  double backoff_s = 0.0;  // cumulative retry backoff (simulated)
  bool bist_ok = true;     // the self-test sweep itself completed
};

}  // namespace biosense::faults
