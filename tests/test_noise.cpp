#include "noise/sources.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "dsp/fft.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::noise {
namespace {

TEST(WhiteNoise, VarianceMatchesPsdAndStep) {
  // Band-limited white: var = S / (2 dt).
  const double psd = 4e-18;  // V^2/Hz
  const double dt = 1e-6;
  WhiteNoise n(psd, Rng(1));
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(n.sample(dt));
  const double expected_var = psd / (2.0 * dt);
  EXPECT_NEAR(s.variance(), expected_var, 0.02 * expected_var);
  EXPECT_NEAR(s.mean(), 0.0, 3.0 * std::sqrt(expected_var / 200000.0));
}

TEST(WhiteNoise, RejectsNegativePsd) {
  EXPECT_THROW(WhiteNoise(-1.0, Rng(1)), ConfigError);
}

TEST(FlickerNoise, AnalyticPsdTracksOneOverF) {
  FlickerNoise n(1e-10, 1.0, 1e5, Rng(3), 3);
  // In the synthesized band the analytic PSD should be within ~1.5 dB of
  // kf/f.
  for (double f : {10.0, 100.0, 1e3, 1e4}) {
    const double target = 1e-10 / f;
    const double actual = n.analytic_psd(f);
    EXPECT_GT(actual, target / 1.5) << "f=" << f;
    EXPECT_LT(actual, target * 1.5) << "f=" << f;
  }
}

TEST(FlickerNoise, MeasuredSpectrumHasOneOverFSlope) {
  // Integration test against the Welch estimator: fit log-log slope over
  // two decades; expect approximately -1.
  const double fs = 100e3;
  FlickerNoise n(1e-10, 0.1, 50e3, Rng(5), 2);
  std::vector<double> sig;
  sig.reserve(1 << 18);
  for (int i = 0; i < (1 << 18); ++i) sig.push_back(n.sample(1.0 / fs));
  const auto est = dsp::welch_psd(sig, fs, 4096);

  std::vector<double> logf, logp;
  for (std::size_t k = 0; k < est.freq.size(); ++k) {
    if (est.freq[k] < 50.0 || est.freq[k] > 5000.0) continue;
    logf.push_back(std::log10(est.freq[k]));
    logp.push_back(std::log10(est.psd[k]));
  }
  const auto fit = linear_fit(logf, logp);
  EXPECT_NEAR(fit.slope, -1.0, 0.15);
}

TEST(FlickerNoise, RejectsBadBand) {
  EXPECT_THROW(FlickerNoise(1e-10, 10.0, 1.0, Rng(1)), ConfigError);
  EXPECT_THROW(FlickerNoise(1e-10, 0.0, 1.0, Rng(1)), ConfigError);
}

TEST(CompositeNoise, SampleSumsSources) {
  // The composite draws each source in wiring order, so it equals the sum
  // of the same sources stepped on their own.
  CompositeNoise c;
  c.add_white(1e-16, Rng(3));
  c.add_flicker(1e-12, 1.0, 1e5, Rng(4));
  WhiteNoise w(1e-16, Rng(3));
  FlickerNoise f(1e-12, 1.0, 1e5, Rng(4));
  for (int i = 0; i < 1000; ++i) {
    const double expected = w.sample(1e-5) + f.sample(1e-5);
    ASSERT_EQ(c.sample(1e-5), expected) << "step " << i;
  }
}

TEST(CompositeNoise, SnapshotKeepsTheEmptyRtsSlot) {
  // Layout: white count, white streams, flicker count, flicker states, and
  // the seed's RTS count, written and checked as 0.
  CompositeNoise c;
  c.add_white(1e-16, Rng(5));
  std::vector<std::uint8_t> buf;
  snapshot::StateWriter w(buf);
  c.save_state(w);
  ASSERT_GE(buf.size(), 4u);
  EXPECT_EQ(std::vector<std::uint8_t>(buf.end() - 4, buf.end()),
            (std::vector<std::uint8_t>{0, 0, 0, 0}));
  {
    snapshot::StateReader r(buf.data(), buf.size());
    c.load_state(r);
    EXPECT_TRUE(r.ok());
  }
  buf[buf.size() - 4] = 1;  // a stale RTS source cannot restore
  snapshot::StateReader r(buf.data(), buf.size());
  c.load_state(r);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace biosense::noise
