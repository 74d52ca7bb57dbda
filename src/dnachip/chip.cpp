#include "dnachip/chip.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace biosense::dnachip {

namespace {

/// One data word per site counter (kCounterBits wide).
BitStream encode_counts(const std::vector<std::uint64_t>& counts) {
  std::vector<std::uint16_t> words(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    words[i] = static_cast<std::uint16_t>(counts[i]);
  }
  return encode_data(words);
}

}  // namespace

double gate_time_from_code(std::uint16_t code) {
  require(code <= 15, "gate_time_from_code: code must be in [0,15]");
  return static_cast<double>(1u << code) * 1e-3;
}

void DnaChipConfig::validate() const {
  require(rows > 0 && cols > 0, "DnaChip: array must be non-empty");
  require(site_leakage_sigma >= Current(0.0),
          "DnaChip: leakage spread must be non-negative");
  require(temp_k > 0.0, "DnaChip: temperature must be positive");
  require(vdd > Voltage(0.0), "DnaChip: supply voltage must be positive");
}

DnaChip::DnaChip(DnaChipConfig config, Rng rng)
    : config_(config),
      rng_(rng),
      bandgap_(config.bandgap, rng_.fork()),
      iref_(config.iref, bandgap_, rng_.fork()),
      dac_generator_(config.dac, rng_.fork()),
      dac_collector_(config.dac, rng_.fork()) {
  config.validate();

  converters_.reserve(static_cast<std::size_t>(sites()));
  for (int i = 0; i < sites(); ++i) {
    i2f::I2fConfig site = config.site;
    // Per-site leakage spread (the comparator offset spread is drawn inside
    // the converter itself from the forked generator).
    site.leakage = std::max(
        Current(0.0),
        site.leakage +
            Current(rng_.normal(0.0, config.site_leakage_sigma.value())));
    converters_.emplace_back(site, rng_.fork());
  }
  sensor_currents_.assign(static_cast<std::size_t>(sites()), 0.0);
  extra_leakage_.assign(static_cast<std::size_t>(sites()), 0.0);
  counts_.assign(static_cast<std::size_t>(sites()), 0);
  cal_counts_.assign(static_cast<std::size_t>(sites()), 0);
  test_counts_.assign(static_cast<std::size_t>(sites()), 0);
}

void DnaChip::apply_sensor_currents(std::vector<double> currents) {
  require(currents.size() == static_cast<std::size_t>(sites()),
          "DnaChip: need one current per site");
  sensor_currents_ = std::move(currents);
}

void DnaChip::inject_faults(const faults::SiteFaultSet& set) {
  require(set.rows == config_.rows && set.cols == config_.cols,
          "DnaChip: fault set dimensions mismatch");
  require(set.type.size() == static_cast<std::size_t>(sites()) &&
              set.value.size() == set.type.size(),
          "DnaChip: fault set is incomplete");
  site_faults_ = set;
  has_site_faults_ = !set.empty();
  for (std::size_t i = 0; i < set.type.size(); ++i) {
    extra_leakage_[i] = set.type[i] == faults::SiteFaultType::kLeakageOutlier
                            ? set.value[i]
                            : 0.0;
  }
}

Voltage DnaChip::bandgap_voltage() const {
  return Voltage(bandgap_.settled_voltage(config_.temp_k));
}

Current DnaChip::reference_current() const {
  return Current(iref_.current(config_.temp_k));
}

BitStream DnaChip::process(const BitStream& din) {
  const auto cmd = decode_command(din);
  if (!cmd) return {};  // CRC failure: chip ignores the frame
  switch (cmd->opcode) {
    case Opcode::kNop:
      return encode_ack(Opcode::kNop);
    case Opcode::kSetDacGenerator:
      if (cmd->payload > dac_generator_.max_code()) {
        return encode_nack(ChipError::kBadDacCode);
      }
      v_generator_ = dac_generator_.output(cmd->payload);
      return encode_ack(cmd->opcode);
    case Opcode::kSetDacCollector:
      if (cmd->payload > dac_collector_.max_code()) {
        return encode_nack(ChipError::kBadDacCode);
      }
      v_collector_ = dac_collector_.output(cmd->payload);
      return encode_ack(cmd->opcode);
    case Opcode::kSelectSite: {
      // Site selection only matters for single-site debug readout; the
      // full-frame path reads every counter. Validated here, at command
      // execution time, so a bad address is rejected before any readout
      // trusts it.
      const int row = cmd->payload >> 8;
      const int col = cmd->payload & 0xff;
      if (row >= config_.rows || col >= config_.cols) {
        return encode_nack(ChipError::kBadSite);
      }
      selected_site_ = cmd->payload;
      return encode_ack(cmd->opcode);
    }
    case Opcode::kStartConversion:
      return run_conversion(cmd->payload);
    case Opcode::kReadFrame:
      return read_frame();
    case Opcode::kAutoCalibrate:
      return auto_calibrate(cmd->payload);
    case Opcode::kReadStatus:
      return status();
    case Opcode::kReadSite:
      return read_site();
    case Opcode::kSelfTest:
      return self_test(cmd->payload);
  }
  return {};
}

void DnaChip::apply_count_faults(std::vector<std::uint64_t>& counts) const {
  if (!has_site_faults_) return;
  BIOSENSE_COUNT("faults.dna_count_overrides", site_faults_.total());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    switch (site_faults_.type[i]) {
      case faults::SiteFaultType::kDead:
      case faults::SiteFaultType::kRailedLow:
        counts[i] = 0;
        break;
      case faults::SiteFaultType::kStuck:
        counts[i] = std::min(
            static_cast<std::uint64_t>(site_faults_.value[i] *
                                       static_cast<double>(kCounterFullScale)),
            kCounterFullScale);
        break;
      case faults::SiteFaultType::kRailedHigh:
        counts[i] = kCounterFullScale;
        break;
      default:
        break;
    }
  }
}

void DnaChip::convert_sites(double gate, double stimulus,
                            bool sensor_connected,
                            std::vector<std::uint64_t>& counts) {
  // All sites convert simultaneously on the chip. A conversion is a
  // closed-form draw of tens of nanoseconds, so one plain loop beats
  // spreading the array over the thread pool; each site's converter owns
  // its comparator-noise stream, so the counts do not depend on the order.
  counts.resize(converters_.size());
  for (std::size_t i = 0; i < converters_.size(); ++i) {
    const double input =
        stimulus + (sensor_connected ? sensor_currents_[i] : 0.0) +
        extra_leakage_[i];
    // Saturating counter: the host detects full-scale counts and falls
    // back to a shorter gate (see acquire_autorange).
    counts[i] =
        std::min(converters_[i].measure(input, gate).count, kCounterFullScale);
  }
  apply_count_faults(counts);
}

BitStream DnaChip::run_conversion(std::uint16_t payload) {
  const int seq = payload >> 8;
  const std::uint16_t gate_code = payload & 0xff;
  if (gate_code > 15) return encode_nack(ChipError::kBadGate);
  // Retried command: the conversion already ran — acknowledge without
  // re-running so converter noise streams stay on the fault-free
  // trajectory.
  if (seq == last_conv_seq_) return encode_ack(Opcode::kStartConversion);
  const double gate = gate_time_from_code(gate_code);
  last_gate_time_ = gate;
  convert_sites(gate, 0.0, true, counts_);
  last_conv_seq_ = seq;
  return encode_ack(Opcode::kStartConversion);
}

BitStream DnaChip::read_site() {
  // Single-site debug readout: one counter word for the site selected via
  // kSelectSite (payload = (row << 8) | col). The address was validated at
  // selection time; this guard only protects the power-on default.
  const int row = selected_site_ >> 8;
  const int col = selected_site_ & 0xff;
  if (row >= config_.rows || col >= config_.cols) {
    return encode_nack(ChipError::kBadSite);
  }
  const auto idx = static_cast<std::size_t>(row * config_.cols + col);
  return encode_data({static_cast<std::uint16_t>(counts_[idx])});
}

BitStream DnaChip::read_frame() { return encode_counts(counts_); }

BitStream DnaChip::auto_calibrate(std::uint16_t payload) {
  const int seq = payload >> 8;
  const std::uint16_t gate_code = payload & 0xff;
  if (gate_code > 15) return encode_nack(ChipError::kBadGate);
  if (seq != last_cal_seq_) {
    // Zero-input conversion: the chip measures every site with the sensor
    // disconnected (only leakage integrates) and stores baseline counts.
    convert_sites(gate_time_from_code(gate_code), 0.0, false, cal_counts_);
    calibrated_ = true;
    last_cal_seq_ = seq;
  }
  return encode_counts(cal_counts_);
}

BitStream DnaChip::self_test(std::uint16_t payload) {
  // BIST conversion: integrate the internal test current (iref / 1000,
  // ~1 nA — within the redox dynamic range) or, with the stimulus bit
  // clear, nothing but leakage. Results go to a scratch buffer so a BIST
  // sweep never clobbers assay counts.
  const int seq = payload >> 8;
  const bool stimulus = (payload & kSelfTestStimulus) != 0;
  const std::uint16_t gate_code = payload & 0x0f;
  if (seq != last_test_seq_) {
    const double i_test =
        stimulus ? iref_.current(config_.temp_k) / 1000.0 : 0.0;
    convert_sites(gate_time_from_code(gate_code), i_test, false,
                  test_counts_);
    last_test_seq_ = seq;
  }
  return encode_counts(test_counts_);
}

BitStream DnaChip::status() {
  // Status word: bandgap voltage in mV.
  const auto mv = static_cast<std::uint16_t>(
      std::lround(bandgap_voltage().in(1.0_mV)));
  return encode_data({mv, static_cast<std::uint16_t>(calibrated_ ? 1 : 0)});
}

HostInterface::HostInterface(DnaChip& chip, SerialLink link,
                             i2f::I2fConfig nominal, RetryPolicy retry)
    : chip_(&chip), link_(std::move(link)), nominal_(nominal), retry_(retry) {
  require(retry.max_attempts >= 1,
          "HostInterface: retry policy needs at least one attempt");
  require(retry.backoff_base_s >= 0.0 && retry.backoff_multiplier >= 1.0,
          "HostInterface: backoff must be non-negative and non-shrinking");
}

std::uint16_t HostInterface::next_seq() {
  seq_ = static_cast<std::uint8_t>(seq_ + 1u);
  return seq_;
}

void HostInterface::note_failed_attempt(int attempt) {
  ++stats_.retries;
  BIOSENSE_COUNT("host.retries", 1);
  stats_.backoff_s += retry_backoff(retry_, attempt);
}

void HostInterface::note_timeout() {
  if (link_.last_event() == LinkEvent::kTimeout) {
    ++stats_.timeouts;
    BIOSENSE_COUNT("host.timeouts", 1);
  }
}

BitStream HostInterface::exchange(const BitStream& din) {
  link_.transfer(din, wire_);
  note_timeout();
  return chip_->process(wire_);
}

HostInterface::TxResult HostInterface::command(const CommandFrame& cmd) {
  ++stats_.transactions;
  BIOSENSE_COUNT("host.transactions", 1);
  TxResult result;
  const BitStream din = encode_command(cmd);
  for (int attempt = 1; attempt <= retry_.max_attempts; ++attempt) {
    ++stats_.attempts;
    BIOSENSE_COUNT("host.attempts", 1);
    const bool retry_left = attempt < retry_.max_attempts;
    const BitStream dout = exchange(din);
    if (dout.empty()) {
      // The chip stayed silent: the command was lost or arrived corrupt.
      if (link_.last_event() != LinkEvent::kTimeout) {
        ++stats_.crc_failures;
        BIOSENSE_COUNT("host.crc_failures", 1);
      }
      if (retry_left) note_failed_attempt(attempt);
      continue;
    }
    link_.transfer(dout, wire_);
    note_timeout();
    if (wire_.empty()) {
      ++stats_.short_replies;
      BIOSENSE_COUNT("host.short_replies", 1);
      if (retry_left) note_failed_attempt(attempt);
      continue;
    }
    const auto words = decode_data(wire_);
    if (!words || words->size() != 2) {
      ++stats_.crc_failures;
      BIOSENSE_COUNT("host.crc_failures", 1);
      if (retry_left) note_failed_attempt(attempt);
      continue;
    }
    if ((*words)[0] == kNackMagic) {
      // Deterministic rejection — retrying the same payload cannot help.
      ++stats_.nacks;
      BIOSENSE_COUNT("host.nacks", 1);
      result.status = TxStatus::kNack;
      result.error = static_cast<ChipError>((*words)[1]);
      return result;
    }
    if ((*words)[0] == kAckMagic) {
      result.status = TxStatus::kOk;
      return result;
    }
    ++stats_.crc_failures;  // decoded, but not an ACK/NACK shape
    BIOSENSE_COUNT("host.crc_failures", 1);
    if (retry_left) note_failed_attempt(attempt);
  }
  result.status = TxStatus::kRetriesExhausted;
  return result;
}

HostInterface::TxResult HostInterface::query(const CommandFrame& cmd,
                                             std::size_t reply_words) {
  ++stats_.transactions;
  BIOSENSE_COUNT("host.transactions", 1);
  TxResult result;
  // Words recovered so far across attempts (see WordMerger): the union of a
  // few partially-corrupt readbacks completes the frame long before a fully
  // clean pass shows up.
  merger_.reset(reply_words);
  const BitStream din = encode_command(cmd);
  for (int attempt = 1; attempt <= retry_.max_attempts; ++attempt) {
    ++stats_.attempts;
    BIOSENSE_COUNT("host.attempts", 1);
    const bool retry_left = attempt < retry_.max_attempts;
    const BitStream dout = exchange(din);
    if (dout.empty()) {
      if (link_.last_event() != LinkEvent::kTimeout) {
        ++stats_.crc_failures;
        BIOSENSE_COUNT("host.crc_failures", 1);
      }
      if (retry_left) note_failed_attempt(attempt);
      continue;
    }
    link_.transfer(dout, wire_);
    note_timeout();
    if (wire_.empty()) {
      ++stats_.short_replies;
      BIOSENSE_COUNT("host.short_replies", 1);
      if (retry_left) note_failed_attempt(attempt);
      continue;
    }
    // A clean 2-word frame where more data was expected is a NACK.
    if (reply_words != 2 && wire_.size() == 48) {
      const auto nack = decode_data(wire_);
      if (nack && nack->size() == 2 && (*nack)[0] == kNackMagic) {
        ++stats_.nacks;
        BIOSENSE_COUNT("host.nacks", 1);
        result.status = TxStatus::kNack;
        result.error = static_cast<ChipError>((*nack)[1]);
        return result;
      }
    }
    merger_.absorb(wire_);
    if (merger_.complete()) {
      merger_.extract(result.words);
      if (reply_words == 2 && result.words[0] == kNackMagic) {
        ++stats_.nacks;
        BIOSENSE_COUNT("host.nacks", 1);
        result.status = TxStatus::kNack;
        result.error = static_cast<ChipError>(result.words[1]);
        result.words.clear();
        return result;
      }
      result.status = TxStatus::kOk;
      return result;
    }
    ++stats_.crc_failures;  // frame still incomplete — merge another pass
    BIOSENSE_COUNT("host.crc_failures", 1);
    if (retry_left) note_failed_attempt(attempt);
  }
  result.status = TxStatus::kRetriesExhausted;
  return result;
}

void HostInterface::set_electrode_potentials(Voltage v_generator,
                                             Voltage v_collector) {
  circuit::ResistorStringDac ideal({}, Rng(1));  // ideal transfer for codes
  command({Opcode::kSetDacGenerator,
           static_cast<std::uint16_t>(ideal.code_for(v_generator.value()))});
  command({Opcode::kSetDacCollector,
           static_cast<std::uint16_t>(ideal.code_for(v_collector.value()))});
}

ChipError chip_error_from(TxStatus status, ChipError nack_detail) {
  switch (status) {
    case TxStatus::kOk:
      return ChipError::kNone;
    case TxStatus::kNack:
      // A NACK always carries a detail word; a zero detail means the chip
      // model produced an undiagnosed rejection — surface it as malformed.
      return nack_detail == ChipError::kNone ? ChipError::kMalformed
                                             : nack_detail;
    case TxStatus::kRetriesExhausted:
      return ChipError::kRetriesExhausted;
  }
  return ChipError::kRetriesExhausted;
}

Result<void, ChipError> HostInterface::auto_calibrate(std::uint16_t gate_code) {
  using R = Result<void, ChipError>;
  BIOSENSE_SPAN("host.auto_calibrate");
  const std::uint16_t conv_seq = next_seq();
  const auto conv = command(
      {Opcode::kStartConversion,
       static_cast<std::uint16_t>((conv_seq << 8) | (gate_code & 0xff))});
  if (conv.status != TxStatus::kOk) {
    return R::err(chip_error_from(conv.status, conv.error));
  }
  const std::uint16_t cal_seq = next_seq();
  const auto cal = query(
      {Opcode::kAutoCalibrate,
       static_cast<std::uint16_t>((cal_seq << 8) | (gate_code & 0xff))},
      static_cast<std::size_t>(chip_->sites()));
  if (cal.status != TxStatus::kOk) {
    return R::err(chip_error_from(cal.status, cal.error));
  }
  const double gate = gate_time_from_code(gate_code);
  cal_baseline_hz_.assign(cal.words.size(), 0.0);
  for (std::size_t i = 0; i < cal.words.size(); ++i) {
    cal_baseline_hz_[i] = static_cast<double>(cal.words[i]) / gate;
  }
  return {};
}

double HostInterface::current_from_frequency(double freq) const {
  // Inverse of f = I/(C dV) / (1 + t_dead * I/(C dV)):
  // I = C dV * f / (1 - f t_dead), using nominal design values as the host
  // software would. C*dV carries dimension charge.
  const double cq = (nominal_.c_int * nominal_.delta_v()).value();
  const double t_dead = nominal_.dead_time().value();
  const double denom = 1.0 - freq * t_dead;
  if (denom <= 1e-9) return cq * freq / 1e-9;
  return cq * freq / denom;
}

HostInterface::Frame HostInterface::acquire(std::uint16_t gate_code) {
  BIOSENSE_SPAN("host.acquire");
  Frame frame;
  frame.gate_time = gate_time_from_code(gate_code);
  const std::uint64_t bits_before = link_.bits_transferred();
  const std::uint64_t retries_before = stats_.retries;

  const std::uint16_t seq = next_seq();
  const auto conv = command(
      {Opcode::kStartConversion,
       static_cast<std::uint16_t>((seq << 8) | (gate_code & 0xff))});
  if (conv.status != TxStatus::kOk) {
    frame.status = conv.status;
    frame.serial_bits = link_.bits_transferred() - bits_before;
    frame.retries = stats_.retries - retries_before;
    return frame;
  }
  const auto rd = query({Opcode::kReadFrame, 0},
                        static_cast<std::size_t>(chip_->sites()));
  frame.serial_bits = link_.bits_transferred() - bits_before;
  frame.retries = stats_.retries - retries_before;
  if (rd.status != TxStatus::kOk) {
    frame.status = rd.status;
    return frame;
  }
  frame.raw_counts.assign(rd.words.begin(), rd.words.end());
  frame.currents.resize(rd.words.size());
  for (std::size_t i = 0; i < rd.words.size(); ++i) {
    double hz = static_cast<double>(rd.words[i]) / frame.gate_time;
    if (i < cal_baseline_hz_.size()) {
      hz = std::max(0.0, hz - cal_baseline_hz_[i]);
    }
    frame.currents[i] = current_from_frequency(hz);
  }
  return frame;
}

Result<double, ChipError> HostInterface::acquire_site(int row, int col,
                                                      std::uint16_t gate_code) {
  using R = Result<double, ChipError>;
  if (row < 0 || row > 0xff || col < 0 || col > 0xff) {
    return R::err(ChipError::kBadArgument);
  }
  const auto payload = static_cast<std::uint16_t>((row << 8) | col);
  const auto sel = command({Opcode::kSelectSite, payload});
  if (sel.status != TxStatus::kOk) {
    return R::err(chip_error_from(sel.status, sel.error));
  }
  const std::uint16_t seq = next_seq();
  const auto conv = command(
      {Opcode::kStartConversion,
       static_cast<std::uint16_t>((seq << 8) | (gate_code & 0xff))});
  if (conv.status != TxStatus::kOk) {
    return R::err(chip_error_from(conv.status, conv.error));
  }
  const auto rd = query({Opcode::kReadSite, 0}, 1);
  if (rd.status != TxStatus::kOk) {
    return R::err(chip_error_from(rd.status, rd.error));
  }
  const double gate = gate_time_from_code(gate_code);
  double hz = static_cast<double>(rd.words[0]) / gate;
  const auto idx = static_cast<std::size_t>(row * chip_->cols() + col);
  if (idx < cal_baseline_hz_.size()) {
    hz = std::max(0.0, hz - cal_baseline_hz_[idx]);
  }
  return current_from_frequency(hz);
}

HostInterface::Frame HostInterface::acquire_autorange() {
  return acquire_autorange_impl(nullptr);
}

HostInterface::Frame HostInterface::acquire_autorange(
    StreamSink<SiteReading>& sink) {
  return acquire_autorange_impl(&sink);
}

HostInterface::Frame HostInterface::acquire_autorange_impl(
    StreamSink<SiteReading>* sink) {
  BIOSENSE_SPAN("host.acquire_autorange");
  // Gate ladder: 2 ms, 128 ms, 8.192 s. Keep the longest non-saturated
  // measurement per site (saturation = counter near full scale).
  const std::uint16_t codes[] = {1, 7, 13};
  Frame combined;
  combined.status = TxStatus::kRetriesExhausted;
  std::vector<double> best_gate;
  std::uint64_t bits = 0;
  std::uint64_t retries = 0;
  for (std::uint16_t code : codes) {
    Frame f = acquire(code);
    bits += f.serial_bits;
    retries += f.retries;
    if (f.status != TxStatus::kOk) continue;
    if (combined.raw_counts.empty()) {
      combined = f;
      best_gate.assign(f.raw_counts.size(), f.gate_time);
      continue;
    }
    for (std::size_t i = 0; i < f.raw_counts.size(); ++i) {
      if (f.raw_counts[i] < kCounterSaturated) {  // not saturated here
        combined.raw_counts[i] = f.raw_counts[i];
        combined.currents[i] = f.currents[i];
        best_gate[i] = f.gate_time;
      }
    }
  }
  combined.serial_bits = bits;
  combined.retries = retries;
  if (sink != nullptr) {
    // Each site's range choice is final once the whole ladder has been read
    // back; emit the finalized readings in row-major order and return only
    // the run summary.
    SiteReading reading;
    for (std::size_t i = 0; i < combined.raw_counts.size(); ++i) {
      reading.index = static_cast<int>(i);
      reading.raw_count = combined.raw_counts[i];
      reading.current = combined.currents[i];
      reading.gate_time = best_gate[i];
      sink->on_item(reading);
    }
    sink->on_end();
    combined.raw_counts.clear();
    combined.currents.clear();
  }
  return combined;
}

Result<faults::DefectMap, ChipError> HostInterface::self_test(
    std::uint16_t gate_lo, std::uint16_t gate_hi, std::uint16_t leak_gate) {
  using R = Result<faults::DefectMap, ChipError>;
  BIOSENSE_SPAN("host.self_test");
  const auto n = static_cast<std::size_t>(chip_->sites());
  auto sweep = [&](bool stimulus,
                   std::uint16_t gate) -> Result<std::vector<std::uint16_t>,
                                                 ChipError> {
    using Sweep = Result<std::vector<std::uint16_t>, ChipError>;
    const std::uint16_t seq = next_seq();
    const auto payload = static_cast<std::uint16_t>(
        (seq << 8) | (stimulus ? kSelfTestStimulus : 0) | (gate & 0x0f));
    const auto r = query({Opcode::kSelfTest, payload}, n);
    if (r.status != TxStatus::kOk) {
      return Sweep::err(chip_error_from(r.status, r.error));
    }
    return r.words;
  };

  const auto lo = sweep(true, gate_lo);
  if (!lo) return R::err(lo.error());
  const auto hi = sweep(true, gate_hi);
  if (!hi) return R::err(hi.error());
  const auto leak = sweep(false, leak_gate);
  if (!leak) return R::err(leak.error());

  // Leakage outliers stand out against the population: at a long gate a
  // healthy site integrates a few counts of residual leakage, an outlier
  // hundreds. The threshold scales with the observed baseline so a globally
  // leaky process corner doesn't flag the whole die.
  std::vector<std::uint16_t> sorted = *leak;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const double median = sorted[sorted.size() / 2];
  const double leak_threshold = 4.0 * median + 32.0;

  faults::DefectMap map(chip_->rows(), chip_->cols());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t c_lo = (*lo)[i];
    const std::uint64_t c_hi = (*hi)[i];
    const int row = static_cast<int>(i) / chip_->cols();
    const int col = static_cast<int>(i) % chip_->cols();
    if (c_lo == 0 && c_hi == 0) {
      map.mark(row, col, faults::DefectType::kDead);
    } else if (c_hi <= c_lo + std::max<std::uint64_t>(2, c_lo / 4)) {
      // A healthy site's count scales ~16x between the two gates; a stuck
      // counter reports the same value at both.
      map.mark(row, col, faults::DefectType::kStuck);
    } else if (static_cast<double>((*leak)[i]) > leak_threshold) {
      map.mark(row, col, faults::DefectType::kLeakage);
    }
  }
  return map;
}

void DnaChip::save_state(snapshot::StateWriter& w) const {
  w.rng(rng_);
  w.u16(selected_site_);
  w.u32(static_cast<std::uint32_t>(converters_.size()));
  for (const i2f::SawtoothConverter& c : converters_) c.save_state(w);
  w.vec_f64(sensor_currents_);
  w.vec_f64(extra_leakage_);
  w.vec_u64(counts_);
  w.vec_u64(cal_counts_);
  w.vec_u64(test_counts_);
  w.i32(last_conv_seq_);
  w.i32(last_cal_seq_);
  w.i32(last_test_seq_);
  bandgap_.save_state(w);
  w.f64(v_generator_);
  w.f64(v_collector_);
  w.f64(last_gate_time_);
  w.b(calibrated_);
}

void DnaChip::load_state(snapshot::StateReader& r) {
  r.rng(rng_);
  selected_site_ = r.u16();
  if (r.u32() != converters_.size()) {
    r.fail();
    return;
  }
  for (i2f::SawtoothConverter& c : converters_) c.load_state(r);
  const std::int64_t n_sites = sites();
  r.vec_f64(sensor_currents_, n_sites);
  r.vec_f64(extra_leakage_, n_sites);
  // Each site converts sensor + leakage, and a conversion requires a finite
  // current: a checkpoint carrying inf, NaN or an overflowing pair is
  // corrupt, not a reading.
  for (std::size_t i = 0; i < sensor_currents_.size(); ++i) {
    if (!std::isfinite(sensor_currents_[i] + extra_leakage_[i])) r.fail();
  }
  // Count caches are empty until the first conversion, then site-sized.
  r.vec_u64(counts_);
  r.vec_u64(cal_counts_);
  r.vec_u64(test_counts_);
  if (!counts_.empty() && counts_.size() != static_cast<std::size_t>(n_sites)) r.fail();
  if (!cal_counts_.empty() && cal_counts_.size() != static_cast<std::size_t>(n_sites)) r.fail();
  if (!test_counts_.empty() && test_counts_.size() != static_cast<std::size_t>(n_sites)) r.fail();
  last_conv_seq_ = r.i32();
  last_cal_seq_ = r.i32();
  last_test_seq_ = r.i32();
  bandgap_.load_state(r);
  v_generator_ = r.f64();
  v_collector_ = r.f64();
  last_gate_time_ = r.f64();
  calibrated_ = r.b();
}

}  // namespace biosense::dnachip
