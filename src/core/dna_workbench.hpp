// High-level DNA microarray workbench: the paper's Section 2 as one object.
//
// Wires the biology (MicroarrayAssay) to the silicon (DnaChip behind its
// 6-pin serial HostInterface): probe spots are mapped onto the 8x16 sensor
// array, the assay produces per-site redox currents, the chip digitizes
// them in-pixel and streams counters out serially, and the workbench calls
// match/no-match per spot. This is the object a platform user starts from.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dna/assay.hpp"
#include "dnachip/chip.hpp"
#include "faults/defect_map.hpp"
#include "faults/fault_plan.hpp"

namespace biosense::core {

struct DnaWorkbenchConfig {
  dnachip::DnaChipConfig chip{};
  dna::AssayProtocol protocol{};
  dna::RedoxParams redox{};
  /// Decision threshold: a spot is called "match" when its reconstructed
  /// current exceeds this value.
  Current detection_threshold = 50.0_pA;
  double serial_bit_error_rate = 0.0;
  /// Adverse-world description: injected die defects and link faults.
  faults::FaultPlanConfig faults{};
  /// Run the BIST self-test sweep before each acquisition and mask the
  /// flagged sites out of the spot calls.
  bool run_bist = false;
  dnachip::RetryPolicy retry{};
};

struct SpotCall {
  std::string name;
  double true_current = 0.0;      // what the chemistry produced, A
  double measured_current = 0.0;  // what the chip reported, A
  bool called_match = false;
  bool masked = false;            // site flagged by BIST; value interpolated
  std::size_t best_match_mismatches = ~0u;
};

struct WorkbenchRun {
  std::vector<SpotCall> calls;
  double gate_time = 0.0;
  std::uint64_t serial_bits = 0;
  dnachip::TxStatus status = dnachip::TxStatus::kOk;
  /// BIST result (empty when `run_bist` is off or the sweep failed).
  faults::DefectMap defects;
  /// Yield, masking and transport-effort bookkeeping for this run.
  faults::DegradationSummary degradation;
};

class DnaWorkbench {
 public:
  DnaWorkbench(DnaWorkbenchConfig config, std::vector<dna::ProbeSpot> spots,
               Rng rng);

  /// Runs the wet protocol and a full chip acquisition against `sample`.
  WorkbenchRun run(const std::vector<dna::TargetSpecies>& sample);

  int spots_capacity() const { return chip_.sites(); }
  const dnachip::DnaChip& chip() const { return chip_; }
  const dnachip::HostInterface& host() const { return host_; }

 private:
  DnaWorkbenchConfig config_;
  dna::MicroarrayAssay assay_;
  dnachip::DnaChip chip_;
  dnachip::HostInterface host_;
};

}  // namespace biosense::core
