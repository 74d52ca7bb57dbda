// Drug-screening process funnel (Fig. 1).
//
// The paper motivates CMOS biosensor arrays with the drug-development
// pipeline: millions of compounds enter molecular-based screening, the
// survivors proceed to cell-based assays, then animal tests, then clinical
// trials. Moving left to right, datapoints/day falls and cost/datapoint
// rises by orders of magnitude — so the quality (false-positive /
// false-negative rates) of the cheap early assays dominates the total cost
// of finding a drug. This module models that funnel so the chip-level
// detection statistics measured elsewhere in the library can be priced in
// at pipeline scale.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"

namespace biosense::screening {

struct StageParams {
  std::string name;
  double cost_per_datapoint = 1.0;   // currency units
  double datapoints_per_day = 1e5;
  /// Probability the assay flags an inactive compound as active.
  double false_positive_rate = 0.01;
  /// Probability the assay misses an active compound.
  double false_negative_rate = 0.05;
};

struct FunnelConfig {
  std::size_t library_size = 1'000'000;
  /// Fraction of the library that is genuinely active.
  double true_active_fraction = 1e-4;
  std::vector<StageParams> stages;  // executed in order

  /// The paper's four-stage pipeline with representative cost/throughput
  /// gradients (each stage ~30-100x more expensive and slower per
  /// datapoint than the previous).
  static FunnelConfig standard_pipeline();
};

struct StageOutcome {
  std::string name;
  std::size_t tested = 0;
  std::size_t passed = 0;
  std::size_t true_actives_in = 0;
  std::size_t true_actives_out = 0;
  double cost = 0.0;
  double days = 0.0;
};

struct FunnelResult {
  std::vector<StageOutcome> stages;
  double total_cost = 0.0;
  double total_days = 0.0;       // assuming stages run sequentially
  std::size_t final_candidates = 0;
  std::size_t final_true_actives = 0;

  /// Cost per surviving true active (infinite if none survive).
  double cost_per_hit() const;
};

class ScreeningFunnel {
 public:
  ScreeningFunnel(FunnelConfig config, Rng rng);

  /// Runs the whole library through the pipeline once.
  FunnelResult run();

  const FunnelConfig& config() const { return config_; }

 private:
  FunnelConfig config_;
  Rng rng_;
};

}  // namespace biosense::screening
