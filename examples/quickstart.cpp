// Quickstart: detect which genes are present in a sample with the DNA
// microarray chip, end to end, in ~40 lines of user code.
//
//   $ ./quickstart
//
// What happens under the hood: probes are designed against a gene panel
// and immobilized on the 8x16 sensor array; the sample hybridizes and is
// washed; enzyme labels on the bound targets drive redox-cycling currents;
// each sensor site digitizes its current with the in-pixel sawtooth ADC;
// counters stream out over the chip's 6-pin serial interface; and the host
// calls match / no match per spot.
#include <cstdio>

#include "core/platform.hpp"

int main() {
  using namespace biosense;

  // 1. A panel of target genes (synthetic stand-ins for real sequences).
  Rng rng(2026);
  std::vector<dna::TargetSpecies> panel;
  for (int i = 0; i < 8; ++i) {
    dna::TargetSpecies gene;
    gene.sequence = dna::Sequence::random(150, rng);
    gene.concentration = 1e-9;  // 1 nM when present
    gene.name = "gene" + std::to_string(i);
    panel.push_back(std::move(gene));
  }

  // 2. Design 20-mer probes against the panel and load the workbench
  //    (assay chemistry + chip + serial host interface).
  auto spots = dna::MicroarrayAssay::design_probes(panel, 20);
  core::DnaWorkbenchConfig config;
  core::DnaWorkbench workbench(config, spots, Rng(7));

  // 3. The sample contains only three of the eight genes.
  std::vector<dna::TargetSpecies> sample{panel[1], panel[4], panel[6]};

  // 4. Run the assay and read the chip. This deliberately uses the batch
  //    compat wrapper rather than the streaming sink overload: a quickstart
  //    wants the shortest possible path from sample to calls, and at 128
  //    sites the collected result is tiny — streaming pays off on the
  //    128x128 neural chip's frame stream, not here.
  const auto run = workbench.run(sample);

  std::printf("DNA microarray quickstart (8x16 CMOS chip, 6-pin serial)\n");
  std::printf("gate time %.0f ms, %llu serial bits, CRC %s\n\n",
              run.gate_time * 1e3,
              static_cast<unsigned long long>(run.serial_bits),
              run.status == dnachip::TxStatus::kOk ? "ok" : "FAILED");
  std::printf("%-8s %14s %14s   %s\n", "spot", "true [A]", "measured [A]",
              "call");
  for (const auto& call : run.calls) {
    std::printf("%-8s %14.3e %14.3e   %s\n", call.name.c_str(),
                call.true_current, call.measured_current,
                call.called_match ? "MATCH" : "-");
  }
  return 0;
}
