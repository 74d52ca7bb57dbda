#include "core/session_options.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/units.hpp"

namespace biosense::core {

SessionOptions& SessionOptions::neuro_config(neurochip::NeuroChipConfig cfg) {
  neuro_cfg_ = std::move(cfg);
  return *this;
}

SessionOptions& SessionOptions::fault_plan(faults::FaultPlanConfig plan) {
  plan_ = std::move(plan);
  return *this;
}

NeuroSession SessionOptions::build_neuro() const {
  require(kind_ == ChipKind::kNeuro,
          "SessionOptions: build_neuro on a non-neuro kind");
  neurochip::NeuroChipConfig cfg = neuro_cfg_;
  if (rows_) cfg.rows = *rows_;
  if (cols_) cfg.cols = *cols_;

  NeuroSession out;
  out.chip = std::make_unique<neurochip::NeuroChip>(cfg, Rng(chip_seed_));

  SessionConfig session_cfg;
  session_cfg.pool_frames = pool_frames_;
  session_cfg.name = label_;
  if (plan_) {
    const faults::FaultPlan plan(*plan_);
    if (plan.any_neuro_faults()) {
      out.chip->inject_faults(plan.neuro_pixel_faults(cfg.rows, cfg.cols),
                              plan.channel_gain_drift(out.chip->channels()));
    }
    if (plan.link_faults().any()) session_cfg.link_faults = plan.link_faults();
  }
  out.chip->calibrate_all();

  out.session = std::make_unique<ChipSession>(*out.chip, session_cfg,
                                              Rng(link_seed_));
  return out;
}

DnaSession SessionOptions::build_dna() const {
  require(kind_ == ChipKind::kDna,
          "SessionOptions: build_dna on a non-dna kind");
  dnachip::DnaChipConfig cfg;
  if (rows_) cfg.rows = *rows_;
  if (cols_) cfg.cols = *cols_;

  DnaSession out;
  out.chip = std::make_unique<dnachip::DnaChip>(cfg, Rng(chip_seed_));
  // Standalone sessions (no assay driving the surface chemistry) read a
  // deterministic analyte pattern: log-spread sensor currents seeded from
  // the chip seed, spanning the converter's useful decades. A workbench
  // that runs a real assay overwrites these via apply_sensor_currents.
  {
    Rng chemistry(chip_seed_ ^ 0xC4E817ULL);
    std::vector<double> currents(static_cast<std::size_t>(out.chip->sites()));
    for (auto& current : currents) {
      current = chemistry.log_uniform(1e-10, 1e-8);
    }
    out.chip->apply_sensor_currents(std::move(currents));
  }
  out.host = std::make_unique<dnachip::HostInterface>(
      *out.chip, dnachip::SerialLink(0.0, Rng(link_seed_)), cfg.site);
  if (plan_) {
    const faults::FaultPlan plan(*plan_);
    if (plan.any_dna_faults()) {
      out.chip->inject_faults(plan.dna_site_faults(cfg.rows, cfg.cols));
    }
    if (plan.link_faults().any()) {
      out.host->link().inject_faults(plan.link_faults());
    }
  }
  out.host->set_electrode_potentials(1.2_V, 0.8_V);
  // May fail under an adverse link plan; the session then runs on raw
  // counts, the same graceful degradation the workbenches report.
  (void)out.host->auto_calibrate();
  return out;
}

}  // namespace biosense::core
