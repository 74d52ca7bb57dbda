#include "screening/funnel.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace biosense::screening {

FunnelConfig FunnelConfig::standard_pipeline() {
  FunnelConfig cfg;
  cfg.stages = {
      {"molecular-based", 0.1, 100000.0, 0.02, 0.05},
      {"cell-based", 5.0, 2000.0, 0.01, 0.05},
      {"animal tests", 5000.0, 10.0, 0.005, 0.10},
      {"clinical trials", 5e6, 0.05, 0.001, 0.10},
  };
  return cfg;
}

ScreeningFunnel::ScreeningFunnel(FunnelConfig config, Rng rng)
    : config_(std::move(config)), rng_(rng) {
  require(!config_.stages.empty(), "ScreeningFunnel: need at least one stage");
  require(config_.true_active_fraction >= 0.0 &&
              config_.true_active_fraction <= 1.0,
          "ScreeningFunnel: active fraction must be in [0,1]");
  for (const auto& s : config_.stages) {
    require(s.cost_per_datapoint >= 0.0 && s.datapoints_per_day > 0.0,
            "ScreeningFunnel: invalid stage economics");
    require(s.false_positive_rate >= 0.0 && s.false_positive_rate <= 1.0 &&
                s.false_negative_rate >= 0.0 && s.false_negative_rate <= 1.0,
            "ScreeningFunnel: invalid stage error rates");
  }
}

FunnelResult ScreeningFunnel::run() {
  FunnelResult result;

  std::size_t actives = static_cast<std::size_t>(
      std::llround(static_cast<double>(config_.library_size) *
                   config_.true_active_fraction));
  std::size_t inactives = config_.library_size - actives;

  for (const auto& stage : config_.stages) {
    StageOutcome out;
    out.name = stage.name;
    out.tested = actives + inactives;
    out.true_actives_in = actives;
    if (out.tested == 0) {
      result.stages.push_back(out);
      continue;
    }

    // Binomial sampling of the assay's confusion matrix.
    std::size_t tp = 0;
    for (std::size_t i = 0; i < actives; ++i) {
      if (!rng_.bernoulli(stage.false_negative_rate)) ++tp;
    }
    std::size_t fp = 0;
    // For large inactive pools use the normal approximation via poisson.
    if (inactives > 100000) {
      fp = static_cast<std::size_t>(rng_.poisson(
          static_cast<double>(inactives) * stage.false_positive_rate));
      if (fp > inactives) fp = inactives;
    } else {
      for (std::size_t i = 0; i < inactives; ++i) {
        if (rng_.bernoulli(stage.false_positive_rate)) ++fp;
      }
    }

    out.passed = tp + fp;
    out.true_actives_out = tp;
    out.cost = static_cast<double>(out.tested) * stage.cost_per_datapoint;
    out.days = static_cast<double>(out.tested) / stage.datapoints_per_day;
    result.total_cost += out.cost;
    result.total_days += out.days;
    result.stages.push_back(out);

    actives = tp;
    inactives = fp;
  }

  result.final_candidates = actives + inactives;
  result.final_true_actives = actives;
  return result;
}

double FunnelResult::cost_per_hit() const {
  if (final_true_actives == 0) return std::numeric_limits<double>::infinity();
  return total_cost / static_cast<double>(final_true_actives);
}

}  // namespace biosense::screening
