#include "core/dna_workbench.hpp"

#include "common/error.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"

namespace biosense::core {

DnaWorkbench::DnaWorkbench(DnaWorkbenchConfig config,
                           std::vector<dna::ProbeSpot> spots, Rng rng)
    : config_(config),
      assay_(std::move(spots), config.protocol, config.redox, rng.fork()),
      chip_(config.chip, rng.fork()),
      host_(chip_,
            dnachip::SerialLink(config.serial_bit_error_rate, rng.fork()),
            config.chip.site, config.retry) {
  require(static_cast<int>(assay_.spots().size()) <= chip_.sites(),
          "DnaWorkbench: more probe spots than sensor sites");
  // Faults go in before any host traffic so calibration already runs over
  // the adverse link / die the plan describes.
  const faults::FaultPlan plan(config.faults);
  if (plan.any_dna_faults()) {
    chip_.inject_faults(plan.dna_site_faults(config.chip.rows,
                                             config.chip.cols));
  }
  if (plan.link_faults().any()) {
    host_.link().inject_faults(plan.link_faults());
  }
  host_.set_electrode_potentials(1.2_V, 0.8_V);
  // Under an adverse link plan calibration may fail; the run then proceeds
  // on raw counts and the BIST/degradation flags tell the story.
  (void)host_.auto_calibrate();
}

WorkbenchRun DnaWorkbench::run(const std::vector<dna::TargetSpecies>& sample) {
  BIOSENSE_SPAN("dna.run");
  std::vector<dna::SpotResult> assay_results;
  {
    obs::PhaseTimer phase("dna.assay");
    assay_results = assay_.run(sample);
  }

  WorkbenchRun run;
  if (config_.run_bist) {
    obs::PhaseTimer phase("dna.bist");
    if (auto map = host_.self_test()) {
      run.defects = std::move(*map);
    } else {
      run.degradation.bist_ok = false;
    }
  }

  // Map spot currents onto the array; unused sites carry only background.
  std::vector<double> currents(static_cast<std::size_t>(chip_.sites()),
                               config_.redox.background.value());
  for (std::size_t i = 0; i < assay_results.size(); ++i) {
    currents[i] = assay_results[i].sensor_current;
  }
  chip_.apply_sensor_currents(currents);

  const int cols = chip_.cols();
  run.calls.reserve(assay_results.size());

  const auto make_call = [&](std::size_t i, double measured_value) {
    SpotCall call;
    call.name = assay_results[i].spot_name;
    call.true_current = assay_results[i].sensor_current;
    call.measured_current = measured_value;
    call.called_match = measured_value > config_.detection_threshold.value();
    if (!run.defects.empty()) {
      call.masked = !run.defects.good(static_cast<int>(i) / cols,
                                      static_cast<int>(i) % cols);
    }
    call.best_match_mismatches = assay_results[i].best_match_mismatches;
    return call;
  };

  dnachip::HostInterface::Frame frame;
  {
    obs::PhaseTimer phase("dna.acquire");
    frame = host_.acquire_autorange();
  }
  {
    obs::PhaseTimer calls_phase("dna.calls");
    // Graceful degradation: BIST-flagged sites are masked and replaced by
    // their good neighbours' mean so one dead spot can't poison a call.
    std::vector<double> measured = frame.currents;
    if (!run.defects.empty() &&
        measured.size() == static_cast<std::size_t>(chip_.sites())) {
      faults::mask_interpolate(run.defects, measured);
    }
    for (std::size_t i = 0; i < assay_results.size(); ++i) {
      run.calls.push_back(
          make_call(i, i < measured.size() ? measured[i] : 0.0));
    }
  }

  run.gate_time = frame.gate_time;
  run.serial_bits = frame.serial_bits;
  run.status = frame.status;

  run.degradation.yield = run.defects.empty() ? 1.0 : run.defects.yield();
  run.degradation.masked =
      static_cast<int>(run.defects.empty() ? 0 : run.defects.defect_count());
  const auto& stats = host_.stats();
  run.degradation.retries = stats.retries;
  run.degradation.crc_failures = stats.crc_failures;
  run.degradation.timeouts = stats.timeouts;
  run.degradation.backoff_s = stats.backoff_s;
  return run;
}

}  // namespace biosense::core
