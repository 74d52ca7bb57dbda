#include "faults/defect_map.hpp"

#include <cmath>

#include "common/error.hpp"

namespace biosense::faults {

DefectMap::DefectMap(int rows, int cols) : rows_(rows), cols_(cols) {
  require(rows > 0 && cols > 0, "DefectMap: grid must be non-empty");
  status_.assign(static_cast<std::size_t>(rows * cols), DefectType::kGood);
}

DefectType DefectMap::at(int r, int c) const {
  require(r >= 0 && r < rows_ && c >= 0 && c < cols_,
          "DefectMap: site out of range");
  return status_[static_cast<std::size_t>(r * cols_ + c)];
}

void DefectMap::mark(int r, int c, DefectType t) {
  require(r >= 0 && r < rows_ && c >= 0 && c < cols_,
          "DefectMap: site out of range");
  status_[static_cast<std::size_t>(r * cols_ + c)] = t;
}

std::size_t DefectMap::defect_count() const {
  std::size_t n = 0;
  for (DefectType t : status_) {
    if (t != DefectType::kGood) ++n;
  }
  return n;
}

double DefectMap::yield() const {
  if (status_.empty()) return 1.0;
  return 1.0 - static_cast<double>(defect_count()) /
                   static_cast<double>(status_.size());
}

std::vector<std::pair<int, int>> DefectMap::defects() const {
  std::vector<std::pair<int, int>> out;
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      if (!good(r, c)) out.emplace_back(r, c);
    }
  }
  return out;
}

std::size_t DefectMap::false_negatives(const SiteFaultSet& truth) const {
  require(truth.rows == rows_ && truth.cols == cols_,
          "DefectMap: fault set dimensions mismatch");
  std::size_t missed = 0;
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      if (truth.at(r, c) != SiteFaultType::kNone && good(r, c)) ++missed;
    }
  }
  return missed;
}

void mask_interpolate(const DefectMap& map, std::vector<double>& values) {
  if (map.empty()) return;
  require(values.size() ==
              static_cast<std::size_t>(map.rows() * map.cols()),
          "mask_interpolate: values size mismatch");
  const int rows = map.rows();
  const int cols = map.cols();
  // Interpolate from the pre-mask values: defective neighbours never
  // contribute, so in-place writes cannot feed back into other sites.
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (map.good(r, c)) continue;
      double sum = 0.0;
      int n = 0;
      const int nbr[4][2] = {{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}};
      for (const auto& rc : nbr) {
        if (rc[0] < 0 || rc[0] >= rows || rc[1] < 0 || rc[1] >= cols) continue;
        if (!map.good(rc[0], rc[1])) continue;
        sum += values[static_cast<std::size_t>(rc[0] * cols + rc[1])];
        ++n;
      }
      values[static_cast<std::size_t>(r * cols + c)] = n > 0 ? sum / n : 0.0;
    }
  }
}

}  // namespace biosense::faults
