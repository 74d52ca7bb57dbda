// Unified session construction (DESIGN.md §12.7).
//
// `SessionOptions` is the one audited surface that wires a chip, its link,
// an optional fault plan and, for the neural chip, the streaming
// `ChipSession` together: pick a chip kind, override what differs from the
// defaults, and `build_*` returns an owning, ready-to-drive session bundle.
// It carries only the knobs the benches, examples and fleet server set; the
// DNA chip config, the link retry policy and the DNA calibration gate code
// keep their defaults, and a lossy link comes only from the fault plan.
// The fleet server runs the bundle's `ChipSession` one frame per record.
// The underlying constructors (`ChipSession(...)`, `HostInterface(...)`)
// stay public for callers that need more.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/chip_session.hpp"
#include "dnachip/chip.hpp"
#include "faults/fault_plan.hpp"
#include "neurochip/array.hpp"

namespace biosense::core {

/// Which chip model a session drives.
enum class ChipKind : std::uint8_t { kNeuro = 0, kDna = 1 };

/// Owning bundle for a streaming neural session: the chip and the staged
/// `ChipSession` driving it, wired and (optionally) calibrated.
struct NeuroSession {
  std::unique_ptr<neurochip::NeuroChip> chip;
  std::unique_ptr<ChipSession> session;
};

/// Owning bundle for a DNA readout session: the chip and the serial-link
/// host interface driving it, wired and (optionally) calibrated.
struct DnaSession {
  std::unique_ptr<dnachip::DnaChip> chip;
  std::unique_ptr<dnachip::HostInterface> host;
};

/// Fluent builder covering every session-construction knob in one place.
/// All setters return *this; unset knobs keep the documented defaults.
class SessionOptions {
 public:
  SessionOptions& kind(ChipKind k) { kind_ = k; return *this; }

  /// Full neural chip config; DNA sessions use the default
  /// `DnaChipConfig`. `rows`/`cols` below override the array shape of
  /// whichever config applies.
  SessionOptions& neuro_config(neurochip::NeuroChipConfig cfg);
  SessionOptions& rows(int r) { rows_ = r; return *this; }
  SessionOptions& cols(int c) { cols_ = c; return *this; }

  /// Seeds: `chip_seed` freezes the die (mismatch, noise streams),
  /// `link_seed` drives the transport's fault draws.
  SessionOptions& chip_seed(std::uint64_t seed) { chip_seed_ = seed; return *this; }
  SessionOptions& link_seed(std::uint64_t seed) { link_seed_ = seed; return *this; }

  /// Fault plan applied at build: die defects + channel drift on the chip,
  /// link faults on the transport.
  SessionOptions& fault_plan(faults::FaultPlanConfig plan);

  /// Streaming-pipeline frame budget (neural sessions; ignored for DNA).
  SessionOptions& pool_frames(std::size_t n) { pool_frames_ = n; return *this; }

  /// Obs label: instrument prefix for the session's pool/channels (a
  /// collision-free variant is claimed at construction). Empty disables
  /// per-session instruments.
  SessionOptions& label(std::string name) { label_ = std::move(name); return *this; }

  /// Builds and calibrates the configured session: `calibrate_all()` for
  /// the neural chip, electrode setup + `auto_calibrate()` for the DNA chip.
  /// Calibration failure under an adverse fault plan is not fatal — the
  /// session degrades exactly like a lab run with a flaky cable.
  /// `build_neuro` requires kind kNeuro, `build_dna` kind kDna (ConfigError
  /// otherwise — a kind mismatch is a programming bug, not a runtime
  /// condition).
  NeuroSession build_neuro() const;
  DnaSession build_dna() const;

 private:
  ChipKind kind_ = ChipKind::kNeuro;
  neurochip::NeuroChipConfig neuro_cfg_{};
  std::optional<int> rows_{};
  std::optional<int> cols_{};
  std::uint64_t chip_seed_ = 1;
  std::uint64_t link_seed_ = 2;
  std::optional<faults::FaultPlanConfig> plan_{};
  std::size_t pool_frames_ = 8;
  std::string label_ = "session";
};

}  // namespace biosense::core
