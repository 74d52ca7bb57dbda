#include "dna/thermodynamics.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace biosense::dna {

namespace {

constexpr double kCalPerMol = 4184.0;       // J per kcal
constexpr double kCalEntropy = 4.184;       // J/(mol K) per cal/(mol K)

// Unified NN parameters (SantaLucia 1998), indexed by [first][second] base
// of the 5'->3' top-strand dimer; bottom strand is the Watson-Crick
// complement. dH in kcal/mol, dS in cal/(mol K).
struct NnEntry {
  double dh;
  double ds;
};

constexpr NnEntry kNn[4][4] = {
    // second: A            C             G             T
    /*A*/ {{-7.9, -22.2}, {-8.4, -22.4}, {-7.8, -21.0}, {-7.2, -20.4}},
    /*C*/ {{-8.5, -22.7}, {-8.0, -19.9}, {-10.6, -27.2}, {-7.8, -21.0}},
    /*G*/ {{-8.2, -22.2}, {-9.8, -24.4}, {-8.0, -19.9}, {-8.4, -22.4}},
    /*T*/ {{-7.2, -21.3}, {-8.5, -22.7}, {-8.2, -22.2}, {-7.9, -22.2}},
};
// Note: entries for dimers not explicitly listed in the 10-parameter table
// are filled with their symmetry-equivalent values (e.g. TG/CA == CA/GT).

constexpr NnEntry kInitGc = {0.1, -2.8};
constexpr NnEntry kInitAt = {2.3, 4.1};

bool is_at(Base b) { return b == Base::kA || b == Base::kT; }

}  // namespace

DuplexEnergy duplex_energy(const Sequence& probe, const ThermoConditions& cond) {
  require(probe.size() >= 2, "duplex_energy: probe must have >= 2 bases");
  require(cond.na_molar > 0.0, "duplex_energy: Na+ must be positive");

  double dh_kcal = 0.0;
  double ds_cal = 0.0;
  for (std::size_t i = 0; i + 1 < probe.size(); ++i) {
    const auto& e = kNn[static_cast<int>(probe[i])][static_cast<int>(probe[i + 1])];
    dh_kcal += e.dh;
    ds_cal += e.ds;
  }
  // Initiation at both duplex ends.
  for (Base end : {probe[0], probe[probe.size() - 1]}) {
    const auto& init = is_at(end) ? kInitAt : kInitGc;
    dh_kcal += init.dh;
    ds_cal += init.ds;
  }
  // Salt correction on entropy (unified model): 0.368 * N/2 * ln[Na+]
  // cal/(mol K) with N the number of phosphates ~ 2*(len-1).
  ds_cal += 0.368 * static_cast<double>(probe.size() - 1) *
            std::log(cond.na_molar);

  return DuplexEnergy{dh_kcal * kCalPerMol, ds_cal * kCalEntropy};
}

double duplex_dg(const Sequence& probe, std::size_t mismatches,
                 const ThermoConditions& cond) {
  const DuplexEnergy e = duplex_energy(probe, cond);
  return e.dg(cond.temp_k) +
         static_cast<double>(mismatches) * cond.mismatch_penalty;
}

double dissociation_constant(const Sequence& probe, std::size_t mismatches,
                             const ThermoConditions& cond) {
  const double dg = duplex_dg(probe, mismatches, cond);
  const double rt = constants::kGasConstant * cond.temp_k;
  return std::exp(dg / rt);
}

}  // namespace biosense::dna
