// Duplex thermodynamics: SantaLucia unified nearest-neighbor model.
//
// Hybridization on the microarray (Fig. 2) is a thermodynamic process: a
// probe/target duplex forms when its free energy of formation is
// sufficiently negative at the assay temperature, and mismatched duplexes
// are less stable — that difference is the entire detection principle. We
// implement the unified nearest-neighbor parameter set (SantaLucia, PNAS
// 95:1460, 1998): per-dimer enthalpy/entropy increments, duplex initiation
// terms, terminal A-T penalty and a sodium-concentration entropy
// correction; internal mismatches are modeled as a configurable
// destabilization per mismatch (default +3.8 kcal/mol, the average over
// published single-mismatch tables).
#pragma once

#include "dna/sequence.hpp"

namespace biosense::dna {

struct DuplexEnergy {
  double dh = 0.0;  // enthalpy, J/mol (negative = favorable)
  double ds = 0.0;  // entropy, J/(mol K)

  /// Gibbs free energy at temperature T (K), J/mol.
  double dg(double temp_k) const { return dh - temp_k * ds; }
};

struct ThermoConditions {
  double temp_k = 310.15;     // assay temperature (37 C default)
  double na_molar = 0.5;      // monovalent salt concentration
  /// Free-energy penalty per internal mismatch, J/mol (positive).
  double mismatch_penalty = 3.8 * 4184.0;
};

/// Enthalpy/entropy of the perfect Watson-Crick duplex of `probe` with its
/// reverse complement, including initiation, terminal-AT and salt terms.
DuplexEnergy duplex_energy(const Sequence& probe,
                           const ThermoConditions& cond);

/// Free energy (J/mol) of a duplex between `probe` and a target window with
/// `mismatches` internal mismatches: perfect-duplex dG plus the penalty per
/// mismatch. Less negative (weaker) with every mismatch.
double duplex_dg(const Sequence& probe, std::size_t mismatches,
                 const ThermoConditions& cond);

/// Dissociation constant K_d (molar, 1 M reference state):
/// K_d = exp(dG / RT). A stable 20-mer duplex has K_d ~ 1e-18 M; four
/// mismatches raise it by many orders of magnitude.
double dissociation_constant(const Sequence& probe, std::size_t mismatches,
                             const ThermoConditions& cond);

}  // namespace biosense::dna
