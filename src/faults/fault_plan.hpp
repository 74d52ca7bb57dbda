// Fault-injection subsystem.
//
// Real CMOS biosensor dies are dominated by defects and mismatch: sensor
// sites die during post-processing, converter leakage has heavy outlier
// tails, neuro pixels get stuck or rail, gain chains drift, and the serial
// link to the instrument picks up bit errors, dropped frames and timeouts.
// A `FaultPlan` is the seeded description of one such adverse world: from
// a handful of rates it deterministically materializes concrete per-site
// fault sets and a link fault model that the chip models
// (`dnachip::DnaChip`, `neurochip::NeuroChip`) and the bit transport
// (`dnachip::SerialLink`) consume through injection hooks — the physics
// code is never forked, faults are applied at well-defined observation
// points.
//
// Everything is reproducible: the same config (same seed) materializes the
// same faults for the same array dimensions, so a failing run replays from
// its config alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace biosense::faults {

/// What is wrong with one sensor site / pixel.
enum class SiteFaultType : std::uint8_t {
  kNone = 0,
  kDead,            // no output: counter stays 0 / ADC code stays 0
  kStuck,           // output frozen at a fixed code regardless of input
  kRailedHigh,      // pixel pinned at positive ADC full scale
  kRailedLow,       // pixel pinned at negative ADC full scale
  kLeakageOutlier,  // converter leakage far outside the process spread
};

/// Per-site fault assignment for one chip, row-major. `value` carries the
/// fault parameter: the stuck level as a fraction of full scale (counter
/// full scale for DNA sites, signed ADC full scale for neuro pixels), or
/// the extra leakage in amps for `kLeakageOutlier`.
struct SiteFaultSet {
  int rows = 0;
  int cols = 0;
  std::vector<SiteFaultType> type;
  std::vector<double> value;

  bool empty() const;
  SiteFaultType at(int r, int c) const;
  std::size_t count(SiteFaultType t) const;
  /// Total number of faulted sites.
  std::size_t total() const;
};

/// Fault model of the serial bit transport. Frame-level faults are drawn
/// once per `transfer`; bit errors per bit.
struct LinkFaultModel {
  /// When > 0 overrides the link's constructed bit-error rate.
  double bit_error_rate = 0.0;
  double burst_prob = 0.0;  // per-frame probability of a contiguous burst
  int burst_length = 8;     // bits flipped by one burst
  double drop_prob = 0.0;     // frame vanishes entirely (empty response)
  double truncate_prob = 0.0; // frame cut short at a random bit
  double timeout_prob = 0.0;  // transaction hangs; host observes a timeout

  bool any() const;
  /// Throws ConfigError when probabilities are outside [0,1) or the burst
  /// length is non-positive.
  void validate() const;
};

/// All fault rates of one plan. Defaults are a perfect world.
struct FaultPlanConfig {
  std::uint64_t seed = 1;

  // DNA microarray chip (redox-cycling sites).
  double dna_dead_fraction = 0.0;
  double dna_stuck_fraction = 0.0;
  double dna_leakage_outlier_fraction = 0.0;
  /// Nominal extra electrode leakage of an outlier site, A (each outlier
  /// draws in [0.5, 2.0] x this).
  double dna_leakage_outlier_amp = 5e-12;

  // Neural recording chip (sensor pixels + output channels).
  double neuro_dead_fraction = 0.0;
  double neuro_stuck_fraction = 0.0;
  double neuro_railed_fraction = 0.0;
  /// 1-sigma relative gain drift of each output channel's gain chain.
  double channel_gain_drift_sigma = 0.0;

  // Serial link.
  LinkFaultModel link{};

  /// Throws ConfigError when any fraction is outside [0,1] or the summed
  /// per-chip fractions exceed 1.
  void validate() const;
};

/// Seeded fault generator. Materialization is deterministic: the same plan
/// produces the same fault sets for the same dimensions, independent of
/// call order (each materializer derives its own RNG stream from the seed).
class FaultPlan {
 public:
  FaultPlan() = default;
  /// Validates the config.
  explicit FaultPlan(FaultPlanConfig config);

  const FaultPlanConfig& config() const { return config_; }

  bool any_dna_faults() const;
  bool any_neuro_faults() const;

  /// Dead / stuck / leakage-outlier assignment for a rows x cols DNA array.
  SiteFaultSet dna_site_faults(int rows, int cols) const;

  /// Dead / stuck / railed assignment for a rows x cols pixel array.
  SiteFaultSet neuro_pixel_faults(int rows, int cols) const;

  /// Per-output-channel gain multipliers (1.0 = no drift).
  std::vector<double> channel_gain_drift(int channels) const;

  const LinkFaultModel& link_faults() const { return config_.link; }

 private:
  FaultPlanConfig config_{};
};

}  // namespace biosense::faults
