#include "neuro/stimulation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace biosense::neuro {
namespace {

TEST(Stimulation, VoltageCouplingIsCapacitiveDivider) {
  JunctionParams p;
  CapacitiveStimulator stim(p);
  const double cd = p.dielectric_cap_per_area;
  const double cm = 1e-2;  // HH membrane, F/m^2
  EXPECT_NEAR(stim.voltage_coupling(), cd / (cd + cm), 1e-12);
}

TEST(Stimulation, SubthresholdPulseOnlyDepolarizes) {
  CapacitiveStimulator stim(JunctionParams{});
  StimulusPulse p;
  p.amplitude = 0.04;
  const auto r = stim.stimulate(p);
  EXPECT_FALSE(r.evoked_spike);
  EXPECT_GT(r.peak_depolarization, 5e-3);
  EXPECT_LT(r.peak_depolarization, 25e-3);
}

TEST(Stimulation, SuprathresholdPulseEvokesSpike) {
  CapacitiveStimulator stim(JunctionParams{});
  StimulusPulse p;
  p.amplitude = 0.15;
  const auto r = stim.stimulate(p);
  EXPECT_TRUE(r.evoked_spike);
  EXPECT_GT(r.peak_depolarization, 80e-3);  // full action potential
  EXPECT_LT(r.spike_latency, 3e-3);
}

TEST(Stimulation, ThresholdIsSharpAndReasonable) {
  CapacitiveStimulator stim(JunctionParams{});
  const double thr = stim.threshold_amplitude({});
  // With a 1:3 divider, ~25 mV membrane threshold -> ~75 mV electrode step:
  // well below water electrolysis, the practical constraint.
  EXPECT_GT(thr, 0.02);
  EXPECT_LT(thr, 0.5);
  StimulusPulse below;
  below.amplitude = thr * 0.8;
  StimulusPulse above;
  above.amplitude = thr * 1.2;
  EXPECT_FALSE(stim.stimulate(below).evoked_spike);
  EXPECT_TRUE(stim.stimulate(above).evoked_spike);
}

TEST(Stimulation, LatencyShrinksWithAmplitude) {
  CapacitiveStimulator stim(JunctionParams{});
  StimulusPulse weak;
  weak.amplitude = 0.10;
  StimulusPulse strong;
  strong.amplitude = 0.16;
  const auto r_weak = stim.stimulate(weak);
  const auto r_strong = stim.stimulate(strong);
  ASSERT_TRUE(r_weak.evoked_spike);
  ASSERT_TRUE(r_strong.evoked_spike);
  EXPECT_LT(r_strong.spike_latency, r_weak.spike_latency);
}

TEST(Stimulation, ThinnerDielectricCouplesBetter) {
  JunctionParams thick;
  thick.dielectric_cap_per_area = 2e-3;
  JunctionParams thin;
  thin.dielectric_cap_per_area = 10e-3;
  CapacitiveStimulator s_thick(thick);
  CapacitiveStimulator s_thin(thin);
  EXPECT_GT(s_thin.voltage_coupling(), s_thick.voltage_coupling());
  // Better coupling -> lower electrode-side threshold.
  EXPECT_LT(s_thin.threshold_amplitude({}), s_thick.threshold_amplitude({}));
}

TEST(Stimulation, MembraneTraceRecorded) {
  CapacitiveStimulator stim(JunctionParams{});
  const auto r = stim.stimulate({}, 5e-3, 2e-6);
  EXPECT_EQ(r.v_m.size(), 2500u);
  EXPECT_NEAR(r.v_m.front(), -65e-3, 5e-3);
}

TEST(Stimulation, RejectsInvalidPulse) {
  CapacitiveStimulator stim(JunctionParams{});
  StimulusPulse p;
  p.rise_time = 0.0;
  EXPECT_THROW(stim.stimulate(p), ConfigError);
}

}  // namespace
}  // namespace biosense::neuro
