#include "circuit/trace.hpp"

#include <algorithm>
#include <cmath>

namespace biosense::circuit {

double Trace::min_value() const {
  return *std::min_element(v_.begin(), v_.end());
}

double Trace::max_value() const {
  return *std::max_element(v_.begin(), v_.end());
}

std::vector<double> Trace::up_crossings(double level) const {
  std::vector<double> out;
  for (std::size_t i = 1; i < v_.size(); ++i) {
    if (v_[i - 1] < level && v_[i] >= level) out.push_back(t_[i]);
  }
  return out;
}

}  // namespace biosense::circuit
