// neuro-hot-loop must-fire fixture: a capture_frame_into definition in
// the pre-SoA per-pixel style. Every banned shape is seeded — accessor
// calls (pixel/read_current/elapse/calibrate/sample), heap traffic
// (new, push_back, make_unique) and a std::function indirection — and a
// phase-2 work item (capture_channel_group) that grows a vector per run.
#include <functional>
#include <memory>
#include <vector>

namespace biosense::neurochip {

struct Frame {
  std::vector<double> v_in;
};

struct Chip {
  void capture_frame_into(double t, Frame& frame);
  int rows = 8;
  int cols = 8;
};

void Chip::capture_frame_into(double t, Frame& frame) {
  frame.v_in.clear();
  // Type-erased per-pixel hook: blocks inlining in the hot loop.
  std::function<double(int, int)> field = [](int, int) { return 0.0; };
  auto* trace = new double[static_cast<unsigned>(rows * cols)];
  auto scratch = std::make_unique<double[]>(static_cast<unsigned>(rows));
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      auto px = pixel(r, c);
      px.calibrate();
      const double v = sample(field(r, c), t);
      const double i_diff = px.read_current(v, 1e-3);
      px.elapse(1e-3);
      trace[r * cols + c] = i_diff;
      scratch[static_cast<unsigned>(r)] = i_diff;
      frame.v_in.push_back(i_diff);
    }
  }
  delete[] trace;
}

// The work item each x86-64 level's entry inlines: the same bans hold in
// its body.
inline void capture_channel_group(Frame& frame, long g) {
  std::vector<double> run;
  for (int r = 0; r < 8; ++r) run.emplace_back(static_cast<double>(g + r));
  frame.v_in.assign(run.begin(), run.end());
}

[[gnu::flatten]] void capture_baseline(Frame& frame, long g) {
  capture_channel_group(frame, g);
}

}  // namespace biosense::neurochip
