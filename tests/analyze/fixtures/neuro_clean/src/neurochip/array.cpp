// neuro-hot-loop clean control: a capture_frame_into in the sanctioned
// SoA style — plane indices, prepared/batch bank calls, zero per-frame
// heap traffic — plus one deliberately escaped exception, and a phase-2
// work item (capture_channel_group) in the same style behind a per-level
// entry. Must produce zero findings. (A comment mentioning std::function
// or read_current() must not fire either: comments are not tokens.)
#include <cstddef>
#include <vector>

namespace biosense::neurochip {

struct Frame {
  std::vector<double> v_in;
};

struct Bank {
  double read_current_prepared(std::size_t i, double v) { return v + i_q_[i]; }
  double quiet_current(std::size_t i) const { return i_q_[i]; }
  void droop(std::size_t i, double dv) { v_store_[i] -= dv; }
  std::vector<double> i_q_;
  std::vector<double> v_store_;
};

struct Chip {
  void capture_frame_into(double t, Frame& frame);
  // A declaration (no body) must not confuse the definition finder.
  void capture_frame_into(double t, Frame& frame, int repeat);
  Bank bank_;
  std::vector<double> scratch_;
  int rows = 8;
  int cols = 8;
};

void Chip::capture_frame_into(double t, Frame& frame) {
  // assign() reuses capacity: no steady-state allocation per frame.
  frame.v_in.assign(static_cast<std::size_t>(rows * cols), 0.0);
  const double droop_step = 1e-9 * t;
  for (int c = 0; c < cols; ++c) {
    for (int r = 0; r < rows; ++r) {
      const std::size_t pi = static_cast<std::size_t>(c) *
                                 static_cast<std::size_t>(rows) +
                             static_cast<std::size_t>(r);
      const double v_sig = scratch_[pi];
      const double i_diff = (v_sig == 0.0)
                                ? bank_.quiet_current(pi)
                                : bank_.read_current_prepared(pi, v_sig);
      frame.v_in[static_cast<std::size_t>(r * cols + c)] = i_diff;
      bank_.droop(pi, droop_step);
    }
  }
  // One-off diagnostic buffer, deliberately exempted with a reason.
  std::vector<int> audit;
  audit.push_back(rows);  // analyze:allow-hot-loop - cold diagnostic tail
}

// The work item steps a run of plane slots; the entries below only call it.
inline void capture_channel_group(Bank& bank, double* i_diff, long g) {
  for (std::size_t r = 0; r < 8; ++r) {
    const std::size_t pi = static_cast<std::size_t>(g) * 8 + r;
    i_diff[r] = bank.quiet_current(pi);
    bank.droop(pi, 1e-9);
  }
}

[[gnu::flatten]] void capture_baseline(Bank& bank, double* i_diff, long g) {
  capture_channel_group(bank, i_diff, g);
}

[[gnu::target("arch=x86-64-v3"), gnu::flatten]] void capture_x86_64_v3(
    Bank& bank, double* i_diff, long g) {
  capture_channel_group(bank, i_diff, g);
}

}  // namespace biosense::neurochip
