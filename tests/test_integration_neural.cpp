// Integration test of the complete neural path: HH membrane -> junction ->
// culture -> calibrated 128x128-style array -> frame sequencer -> spike
// detection (Section 3 end-to-end, scaled down for test runtime).
#include <gtest/gtest.h>

#include <cmath>

#include "core/neural_workbench.hpp"

namespace biosense::core {
namespace {

NeuralWorkbenchConfig small_config() {
  NeuralWorkbenchConfig cfg;
  cfg.chip.rows = 32;
  cfg.chip.cols = 32;
  cfg.culture.area_size = 32 * 7.8e-6;
  cfg.culture.n_neurons = 8;
  cfg.culture.duration = 0.4;
  cfg.recording_duration = Time(0.4);
  return cfg;
}

TEST(IntegrationNeural, CalibrationEnablesRecording) {
  NeuralWorkbench wb(small_config(), Rng(201));
  const auto run = wb.run();
  // Calibration quality: residual offsets near the pedestal scale, far
  // below the uncalibrated ~20 mV mismatch.
  EXPECT_LT(run.mean_abs_offset_v, 2e-3);
  EXPECT_GT(run.active_pixels, 0u);
  EXPECT_EQ(run.frames.size(), 800u);
}

TEST(IntegrationNeural, SpikesDetectedOnCoveredPixels) {
  // A clean link, then a lossy one: the workbench takes its host-link
  // faults from `faults.link`, bit errors cost retries, the word merge
  // recovers every word, and the spikes are still there.
  for (const double ber : {0.0, 1e-4}) {
    NeuralWorkbenchConfig cfg = small_config();
    cfg.faults.link.bit_error_rate = ber;
    NeuralWorkbench wb(cfg, Rng(202));
    const auto run = wb.run();
    EXPECT_EQ(run.session.wire.retries > 0, ber > 0.0) << ber;
    EXPECT_EQ(run.session.wire.lost_words, 0u) << ber;
    ASSERT_FALSE(run.detections.empty());
    // Strong pixels (well-coupled neurons) must be detected with spikes.
    int strong = 0;
    for (const auto& d : run.detections) {
      if (d.truth_peak > 300e-6) {
        ++strong;
        EXPECT_FALSE(d.spikes.empty());
      }
    }
    EXPECT_GT(strong, 0) << ber;
  }
}

TEST(IntegrationNeural, StrongPixelsHavePositiveSnr) {
  NeuralWorkbenchConfig cfg = small_config();
  cfg.culture.n_neurons = 12;
  NeuralWorkbench wb(cfg, Rng(203));
  const auto run = wb.run();
  double best_snr = -1e9;
  for (const auto& d : run.detections) {
    if (d.truth_peak > 500e-6) best_snr = std::max(best_snr, d.snr_db);
  }
  // At least one well-coupled cell recorded with positive SNR.
  EXPECT_GT(best_snr, 0.0);
}

TEST(IntegrationNeural, DetectionCountScalesWithCulture) {
  NeuralWorkbenchConfig sparse = small_config();
  sparse.culture.n_neurons = 2;
  NeuralWorkbenchConfig dense = small_config();
  dense.culture.n_neurons = 16;
  const auto run_sparse = NeuralWorkbench(sparse, Rng(204)).run();
  const auto run_dense = NeuralWorkbench(dense, Rng(204)).run();
  EXPECT_GT(run_dense.active_pixels, run_sparse.active_pixels);
}

TEST(IntegrationNeural, FrameAmplitudesWithinPaperWindow) {
  // Reconstructed electrode signals should span the 100 uV .. 5 mV window
  // the paper quotes (after offset removal).
  NeuralWorkbench wb(small_config(), Rng(205));
  const auto run = wb.run();
  double peak = 0.0;
  for (const auto& d : run.detections) peak = std::max(peak, d.truth_peak);
  EXPECT_GT(peak, 100e-6);
  EXPECT_LT(peak, 10e-3);
}

TEST(IntegrationNeural, DeterministicEndToEnd) {
  const auto a = NeuralWorkbench(small_config(), Rng(206)).run();
  const auto b = NeuralWorkbench(small_config(), Rng(206)).run();
  ASSERT_EQ(a.frames.size(), b.frames.size());
  ASSERT_EQ(a.detections.size(), b.detections.size());
  for (std::size_t i = 0; i < a.frames.size(); i += 100) {
    EXPECT_EQ(a.frames[i].codes, b.frames[i].codes);
  }
}

}  // namespace
}  // namespace biosense::core
