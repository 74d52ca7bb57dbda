// The full DNA microarray chip of Fig. 4: an 8x16 array of redox-cycling
// sensor sites with in-pixel current-to-frequency conversion, peripheral
// circuitry (bandgap and current references, auto-calibration, two DACs
// for the electrochemical electrode potentials) and a 6-pin serial
// interface. Basic process per the chip photo caption: Lmin = 0.5 um,
// tox = 15 nm, VDD = 5 V.
//
// `DnaChip` is the silicon: it consumes command bit streams and produces
// response bit streams. `HostInterface` is the lab instrument driving the
// chip through a `SerialLink`, exposing a convenient typed API and doing
// the host-side arithmetic (count -> current inversion, calibration
// subtraction).
//
// Robust protocol: every accepted command is acknowledged (ACK/NACK), the
// host retries failed transactions with exponential backoff, and
// conversion-triggering commands carry an 8-bit sequence tag so a retried
// command is idempotent — the chip re-sends its cached result instead of
// re-running the conversion. That keeps every converter's noise stream on
// the same trajectory whether or not the link misbehaved, so a readout
// recovered through retries is bitwise identical to a fault-free one.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/dac.hpp"
#include "circuit/references.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/stream.hpp"
#include "common/units.hpp"
#include "dnachip/serial.hpp"
#include "faults/defect_map.hpp"
#include "faults/fault_plan.hpp"
#include "i2f/sawtooth.hpp"

namespace biosense::dnachip {

/// Each site's counter is one 16-bit serial data word wide and holds at
/// full scale rather than wrapping; the host reads a count within 16 of
/// full scale as saturated and falls back to a shorter gate.
inline constexpr int kCounterBits = 16;
inline constexpr std::uint64_t kCounterFullScale = (1ULL << kCounterBits) - 1;
inline constexpr std::uint64_t kCounterSaturated = kCounterFullScale - 15;

struct DnaChipConfig {
  int rows = 16;
  int cols = 8;
  i2f::I2fConfig site{};         // nominal converter sizing
  Current site_leakage_sigma = 10.0_fA;  // per-site leakage spread
  circuit::DacParams dac{};
  circuit::BandgapParams bandgap{};
  circuit::CurrentReferenceParams iref{};
  double temp_k = 300.0;         // K (temperature stays raw double)
  Voltage vdd = 5.0_V;

  /// Throws ConfigError when the configuration is inconsistent (empty
  /// array, non-physical supply/temperature). Called by the DnaChip
  /// constructor.
  void validate() const;
};

/// Schema version of DnaChip::save_state's layout, written on the chip
/// section of every checkpoint; readers refuse other versions.
inline constexpr std::uint16_t kChipStateVersion = 1;

/// Chip-side model. All analog non-idealities (per-site comparator offsets,
/// leakage spread, DAC INL, bandgap trim error) are frozen at construction
/// from the seed, like a fabricated die.
class DnaChip {
 public:
  DnaChip(DnaChipConfig config, Rng rng);

  int rows() const { return config_.rows; }
  int cols() const { return config_.cols; }
  int sites() const { return config_.rows * config_.cols; }

  /// Applies per-site sensor currents (row-major, A). These persist until
  /// changed — they model the electrochemistry happening on the surface.
  void apply_sensor_currents(std::vector<double> currents);

  /// Injects manufacturing defects: dead sites count nothing, stuck sites
  /// report a fixed count regardless of stimulus or gate time, leakage
  /// outliers add the fault's extra current at the converter input. The
  /// underlying converter models are untouched — every converter still
  /// runs, so RNG streams stay aligned with a fault-free die.
  void inject_faults(const faults::SiteFaultSet& set);

  /// Processes one command arriving over DIN; returns the DOUT response
  /// bit stream (empty only when the frame's CRC fails — every decoded
  /// command is answered with data, an ACK, or a NACK).
  BitStream process(const BitStream& din);

  // --- observability for tests (not part of the 6-pin interface) ---------
  Voltage generator_potential() const { return Voltage(v_generator_); }
  Voltage collector_potential() const { return Voltage(v_collector_); }
  Voltage bandgap_voltage() const;
  Current reference_current() const;
  const std::vector<std::uint64_t>& last_counts() const { return counts_; }

  /// Serializes every evolving piece of die state: the master RNG, each
  /// converter's comparator stream, applied sensor currents, retry caches
  /// + sequence tags, electrode potentials and the calibration flag.
  /// Frozen properties (offsets, leakage spread, DAC INL) are reproduced
  /// by reconstructing the chip from the same config + seed first.
  void save_state(snapshot::StateWriter& w) const;
  void load_state(snapshot::StateReader& r);

 private:
  BitStream run_conversion(std::uint16_t payload);
  BitStream read_frame();
  BitStream read_site();
  BitStream auto_calibrate(std::uint16_t payload);
  BitStream self_test(std::uint16_t payload);
  BitStream status();
  /// Converts every site once over `gate` into `counts` (saturated at
  /// kCounterFullScale, then fault-overridden). Site i integrates `stimulus`,
  /// its sensor current when `sensor_connected`, and its extra leakage.
  void convert_sites(double gate, double stimulus, bool sensor_connected,
                     std::vector<std::uint64_t>& counts);
  void apply_count_faults(std::vector<std::uint64_t>& counts) const;

  DnaChipConfig config_;  // analyze:transient - frozen config
  Rng rng_;
  std::uint16_t selected_site_ = 0;
  std::vector<i2f::SawtoothConverter> converters_;
  std::vector<double> sensor_currents_;
  std::vector<double> extra_leakage_;
  std::vector<std::uint64_t> counts_;
  std::vector<std::uint64_t> cal_counts_;
  std::vector<std::uint64_t> test_counts_;
  // analyze:transient - injected fault config, re-applied by the fault plan
  faults::SiteFaultSet site_faults_{};
  bool has_site_faults_ = false;  // analyze:transient - fault config, re-applied
  // Last-seen sequence tags for idempotent retries (-1 = none yet).
  int last_conv_seq_ = -1;
  int last_cal_seq_ = -1;
  int last_test_seq_ = -1;
  circuit::BandgapReference bandgap_;
  circuit::CurrentReference iref_;  // analyze:transient - frozen die state, reproduced by reconstruction
  // analyze:transient - stateless converters, reproduced by reconstruction
  circuit::ResistorStringDac dac_generator_;
  circuit::ResistorStringDac dac_collector_;  // analyze:transient - stateless, reconstructed
  double v_generator_ = 0.0;
  double v_collector_ = 0.0;
  double last_gate_time_ = 0.0;
  bool calibrated_ = false;
};

/// Gate time encoding used by kStartConversion: gate = 2^code milliseconds.
double gate_time_from_code(std::uint16_t code);

/// Outcome of a host transaction.
enum class TxStatus : std::uint8_t {
  kOk = 0,
  kNack,              // the chip rejected the command (bad payload)
  kRetriesExhausted,  // no valid reply within the retry budget
};

/// Collapses a transaction outcome into the uniform error domain: a NACK
/// carries the chip's detail word through, exhausted retries map to the
/// host-side kRetriesExhausted code.
ChipError chip_error_from(TxStatus status, ChipError nack_detail);

// RetryPolicy moved to dnachip/serial.hpp — it is transport-layer policy
// shared with the neural chip's host runtime (core/wire.hpp).

/// Cumulative transport-layer bookkeeping for one host interface.
struct ProtocolStats {
  std::uint64_t transactions = 0;  // logical commands issued
  std::uint64_t attempts = 0;      // wire attempts including first tries
  std::uint64_t retries = 0;       // attempts beyond the first
  std::uint64_t crc_failures = 0;  // replies rejected by CRC / truncation
  std::uint64_t timeouts = 0;      // transactions that hit a link timeout
  std::uint64_t short_replies = 0; // dropped or empty replies
  std::uint64_t nacks = 0;         // chip-side rejections
  double backoff_s = 0.0;          // cumulative simulated backoff
};

/// Host-side driver: encodes commands, moves bits over the link, decodes
/// and post-processes replies, and retries around link faults.
class HostInterface {
 public:
  /// `nominal` is the datasheet converter sizing the host software uses for
  /// the count -> current inversion (the real per-site parameters are
  /// unknown to the host, exactly as in the lab).
  HostInterface(DnaChip& chip, SerialLink link, i2f::I2fConfig nominal = {},
                RetryPolicy retry = {});

  /// Sets both electrode potentials (best DAC codes for the targets).
  void set_electrode_potentials(Voltage v_generator, Voltage v_collector);

  /// Runs the chip's zero-input auto-calibration; stores per-site baseline
  /// counts host-side as well. The error says which transaction failed how
  /// (NACK detail or kRetriesExhausted).
  Result<void, ChipError> auto_calibrate(std::uint16_t gate_code = 7);

  struct Frame {
    std::vector<std::uint64_t> raw_counts;     // per site, row-major
    std::vector<double> currents;              // reconstructed, A
    double gate_time = 0.0;                    // s
    std::uint64_t serial_bits = 0;             // bits moved for this frame
    std::uint64_t retries = 0;                 // wire retries for this frame
    TxStatus status = TxStatus::kOk;
  };

  /// One conversion + full-array readout at the given gate code.
  Frame acquire(std::uint16_t gate_code);

  /// Debug path: converts and reads a single site (row, col); returns the
  /// reconstructed current, or a typed error — kBadArgument for host-side
  /// range violations, the NACK detail when the chip rejects the site, and
  /// kRetriesExhausted when the link defeats the retry budget.
  Result<double, ChipError> acquire_site(int row, int col,
                                         std::uint16_t gate_code);

  /// Multi-gate acquisition covering the full 1 pA .. 100 nA dynamic range:
  /// runs short and long gates and keeps, per site, the longest gate whose
  /// counter did not overflow.
  Frame acquire_autorange();

  /// One finalized site of an autorange sweep, emitted in row-major order.
  struct SiteReading {
    int index = 0;                 // row * cols + col
    std::uint64_t raw_count = 0;   // at the kept gate
    double current = 0.0;          // reconstructed, A
    double gate_time = 0.0;        // the kept (longest non-saturated) gate, s
  };

  /// Streaming autorange: identical wire traffic and per-site values as
  /// `acquire_autorange()`, but site readings are emitted to `sink` in
  /// row-major order as they finalize instead of materializing a Frame.
  /// The gate ladder itself is a physical barrier — a site's range choice
  /// is only final once the longest gate has been read back — so emission
  /// happens per site after the ladder, not per gate. Returns the run
  /// summary with `raw_counts`/`currents` left empty.
  Frame acquire_autorange(StreamSink<SiteReading>& sink);

  /// BIST sweep: converts the internal ~1 nA test current at a short and a
  /// long gate (dead sites answer zero, stuck sites don't scale with gate
  /// time) plus a leakage-only long-gate pass (leakage outliers stand out
  /// against the population median). Returns the measured defect map, or
  /// the first failing sweep transaction's typed error.
  Result<faults::DefectMap, ChipError> self_test(std::uint16_t gate_lo = 3,
                                                 std::uint16_t gate_hi = 7,
                                                 std::uint16_t leak_gate = 13);

  /// Inverse of the nominal converter transfer: frequency -> current.
  double current_from_frequency(double freq) const;

  std::uint64_t total_bits_transferred() const {
    return link_.bits_transferred();
  }

  const ProtocolStats& stats() const { return stats_; }

  /// The underlying transport — exposed so callers can inject link faults.
  SerialLink& link() { return link_; }

  /// Host-side evolving state: transport stats, the idempotency sequence
  /// counter, the stored calibration baseline and the link's fault stream.
  void save_state(snapshot::StateWriter& w) const {
    w.u64(stats_.transactions);
    w.u64(stats_.attempts);
    w.u64(stats_.retries);
    w.u64(stats_.crc_failures);
    w.u64(stats_.timeouts);
    w.u64(stats_.short_replies);
    w.u64(stats_.nacks);
    w.f64(stats_.backoff_s);
    w.u8(seq_);
    w.vec_f64(cal_baseline_hz_);
    link_.save_state(w);
  }
  void load_state(snapshot::StateReader& r) {
    stats_.transactions = r.u64();
    stats_.attempts = r.u64();
    stats_.retries = r.u64();
    stats_.crc_failures = r.u64();
    stats_.timeouts = r.u64();
    stats_.short_replies = r.u64();
    stats_.nacks = r.u64();
    stats_.backoff_s = r.f64();
    seq_ = r.u8();
    r.vec_f64(cal_baseline_hz_);
    link_.load_state(r);
  }

 private:
  struct TxResult {
    TxStatus status = TxStatus::kRetriesExhausted;
    std::vector<std::uint16_t> words;
    ChipError error = ChipError::kNone;
  };

  /// Sends a command expecting a 2-word ACK/NACK, retrying on lost or
  /// corrupt frames. NACK is deterministic and returned without retry.
  TxResult command(const CommandFrame& cmd);

  /// Sends a query expecting `reply_words` data words. Valid words from
  /// each attempt are merged, so at high bit-error rates the full frame is
  /// recovered from the union of a few partially-corrupt readbacks.
  TxResult query(const CommandFrame& cmd, std::size_t reply_words);

  std::uint16_t next_seq();
  void note_failed_attempt(int attempt);
  void note_timeout();

  /// Sends `din` to the chip over the link and returns the chip's reply
  /// (empty when the command was lost or arrived corrupt).
  BitStream exchange(const BitStream& din);
  Frame acquire_autorange_impl(StreamSink<SiteReading>* sink);

  DnaChip* chip_;  // analyze:transient - non-owning, rebound at construction
  SerialLink link_;
  i2f::I2fConfig nominal_;  // analyze:transient - frozen config
  RetryPolicy retry_;       // analyze:transient - frozen config
  ProtocolStats stats_{};
  std::uint8_t seq_ = 0;
  std::vector<double> cal_baseline_hz_;
  // Per-transaction scratch, reused so the link and the merger keep their
  // buffers' capacity across transactions.
  BitStream wire_;       // analyze:transient - per-attempt scratch
  WordMerger merger_;    // analyze:transient - per-transaction scratch
};

}  // namespace biosense::dnachip
