#include "faults/fault_plan.hpp"

#include "obs/metrics.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace biosense::faults {

bool SiteFaultSet::empty() const {
  for (SiteFaultType t : type) {
    if (t != SiteFaultType::kNone) return false;
  }
  return true;
}

SiteFaultType SiteFaultSet::at(int r, int c) const {
  if (r < 0 || r >= rows || c < 0 || c >= cols) return SiteFaultType::kNone;
  return type[static_cast<std::size_t>(r * cols + c)];
}

std::size_t SiteFaultSet::count(SiteFaultType t) const {
  std::size_t n = 0;
  for (SiteFaultType x : type) {
    if (x == t) ++n;
  }
  return n;
}

std::size_t SiteFaultSet::total() const {
  std::size_t n = 0;
  for (SiteFaultType x : type) {
    if (x != SiteFaultType::kNone) ++n;
  }
  return n;
}

bool LinkFaultModel::any() const {
  return bit_error_rate > 0.0 || burst_prob > 0.0 || drop_prob > 0.0 ||
         truncate_prob > 0.0 || timeout_prob > 0.0;
}

void LinkFaultModel::validate() const {
  // Runs once per frame on the lossy wire path (SerialLink::inject_faults),
  // so the messages stay literals — the std::string overload of `require`
  // would heap-allocate even when every check passes.
  auto prob = [](double p, const char* msg) {
    require(p >= 0.0 && p < 1.0, msg);
  };
  prob(bit_error_rate, "LinkFaultModel: bit_error_rate must be in [0,1)");
  prob(burst_prob, "LinkFaultModel: burst_prob must be in [0,1)");
  prob(drop_prob, "LinkFaultModel: drop_prob must be in [0,1)");
  prob(truncate_prob, "LinkFaultModel: truncate_prob must be in [0,1)");
  prob(timeout_prob, "LinkFaultModel: timeout_prob must be in [0,1)");
  require(burst_length > 0, "LinkFaultModel: burst_length must be positive");
}

void FaultPlanConfig::validate() const {
  auto frac = [](double f, const char* what) {
    require(f >= 0.0 && f <= 1.0,
            std::string("FaultPlan: ") + what + " must be in [0,1]");
  };
  frac(dna_dead_fraction, "dna_dead_fraction");
  frac(dna_stuck_fraction, "dna_stuck_fraction");
  frac(dna_leakage_outlier_fraction, "dna_leakage_outlier_fraction");
  frac(neuro_dead_fraction, "neuro_dead_fraction");
  frac(neuro_stuck_fraction, "neuro_stuck_fraction");
  frac(neuro_railed_fraction, "neuro_railed_fraction");
  require(dna_dead_fraction + dna_stuck_fraction +
                  dna_leakage_outlier_fraction <=
              1.0,
          "FaultPlan: DNA fault fractions must sum to <= 1");
  require(neuro_dead_fraction + neuro_stuck_fraction + neuro_railed_fraction <=
              1.0,
          "FaultPlan: neuro fault fractions must sum to <= 1");
  // strtod reads "inf" and "1e999": the open-ended amplitudes need a bound.
  // Each outlier draws up to 2x the amplitude, which must stay finite.
  require(dna_leakage_outlier_amp >= 0.0 &&
              dna_leakage_outlier_amp <=
                  std::numeric_limits<double>::max() / 2.0,
          "FaultPlan: outlier leakage must be non-negative and at most "
          "half the double range");
  require(std::isfinite(channel_gain_drift_sigma) &&
              channel_gain_drift_sigma >= 0.0,
          "FaultPlan: gain drift sigma must be finite and non-negative");
  link.validate();
}

FaultPlan::FaultPlan(FaultPlanConfig config) : config_(config) {
  config_.validate();
}

bool FaultPlan::any_dna_faults() const {
  return config_.dna_dead_fraction > 0.0 || config_.dna_stuck_fraction > 0.0 ||
         config_.dna_leakage_outlier_fraction > 0.0;
}

bool FaultPlan::any_neuro_faults() const {
  return config_.neuro_dead_fraction > 0.0 ||
         config_.neuro_stuck_fraction > 0.0 ||
         config_.neuro_railed_fraction > 0.0 ||
         config_.channel_gain_drift_sigma > 0.0;
}

SiteFaultSet FaultPlan::dna_site_faults(int rows, int cols) const {
  require(rows > 0 && cols > 0, "FaultPlan: array must be non-empty");
  SiteFaultSet set;
  set.rows = rows;
  set.cols = cols;
  const auto n = static_cast<std::size_t>(rows * cols);
  set.type.assign(n, SiteFaultType::kNone);
  set.value.assign(n, 0.0);
  Rng rng(config_.seed ^ 0xd1a5u);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform();
    if (u < config_.dna_dead_fraction) {
      set.type[i] = SiteFaultType::kDead;
    } else if (u < config_.dna_dead_fraction + config_.dna_stuck_fraction) {
      set.type[i] = SiteFaultType::kStuck;
      set.value[i] = rng.uniform(0.05, 0.95);  // fraction of counter range
    } else if (u < config_.dna_dead_fraction + config_.dna_stuck_fraction +
                       config_.dna_leakage_outlier_fraction) {
      set.type[i] = SiteFaultType::kLeakageOutlier;
      set.value[i] = config_.dna_leakage_outlier_amp * rng.uniform(0.5, 2.0);
    }
  }
  BIOSENSE_COUNT("faults.dna_sites_materialized", set.total());
  return set;
}

SiteFaultSet FaultPlan::neuro_pixel_faults(int rows, int cols) const {
  require(rows > 0 && cols > 0, "FaultPlan: array must be non-empty");
  SiteFaultSet set;
  set.rows = rows;
  set.cols = cols;
  const auto n = static_cast<std::size_t>(rows * cols);
  set.type.assign(n, SiteFaultType::kNone);
  set.value.assign(n, 0.0);
  Rng rng(config_.seed ^ 0x4e07u);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform();
    if (u < config_.neuro_dead_fraction) {
      set.type[i] = SiteFaultType::kDead;
    } else if (u < config_.neuro_dead_fraction + config_.neuro_stuck_fraction) {
      set.type[i] = SiteFaultType::kStuck;
      set.value[i] = rng.uniform(-0.7, 0.7);  // fraction of ADC full scale
    } else if (u < config_.neuro_dead_fraction + config_.neuro_stuck_fraction +
                       config_.neuro_railed_fraction) {
      set.type[i] = rng.bernoulli(0.5) ? SiteFaultType::kRailedHigh
                                       : SiteFaultType::kRailedLow;
    }
  }
  BIOSENSE_COUNT("faults.neuro_pixels_materialized", set.total());
  return set;
}

void FileCorruption::apply(std::vector<std::uint8_t>& bytes) const {
  if (bytes.empty()) return;
  switch (kind) {
    case Kind::kTruncate:
      bytes.resize(offset < bytes.size() ? offset : bytes.size() - 1);
      break;
    case Kind::kBitFlip:
      bytes[offset % bytes.size()] ^=
          static_cast<std::uint8_t>(1u << (bit & 7));
      break;
    case Kind::kTornTail: {
      // An interrupted overwrite: the prefix is the new data, the tail is
      // whatever stale bytes the sector still held.
      Rng junk(junk_seed);
      for (std::size_t i = offset % bytes.size(); i < bytes.size(); ++i) {
        bytes[i] = static_cast<std::uint8_t>(junk.next_u64());
      }
      break;
    }
  }
}

FileCorruption FaultPlan::file_corruption(std::uint64_t index,
                                          std::size_t file_size) const {
  FileCorruption c;
  // Each index derives its own stream, so corruption k is the same whether
  // reached by cursor or addressed directly (call-order independence, as
  // for the site materializers).
  Rng rng(config_.seed ^ 0xf11ecu ^ (index * 0x9e3779b97f4a7c15ULL));
  const std::size_t n = file_size == 0 ? 1 : file_size;
  switch (index % 3) {
    case 0:
      c.kind = FileCorruption::Kind::kTruncate;
      c.offset = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      break;
    case 1:
      c.kind = FileCorruption::Kind::kBitFlip;
      c.offset = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      c.bit = static_cast<int>(rng.uniform_int(0, 7));
      break;
    default:
      c.kind = FileCorruption::Kind::kTornTail;
      c.offset = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(n)));
      c.junk_seed = rng.next_u64();
      break;
  }
  return c;
}

FileCorruption FaultPlan::next_file_corruption(std::size_t file_size) {
  return file_corruption(corruption_cursor_++, file_size);
}

std::vector<double> FaultPlan::channel_gain_drift(int channels) const {
  require(channels > 0, "FaultPlan: need at least one channel");
  std::vector<double> drift(static_cast<std::size_t>(channels), 1.0);
  if (config_.channel_gain_drift_sigma <= 0.0) return drift;
  Rng rng(config_.seed ^ 0xc4a1u);
  for (auto& g : drift) {
    g = 1.0 + rng.normal(0.0, config_.channel_gain_drift_sigma);
  }
  return drift;
}

std::string FaultPlan::to_json() const {
  std::ostringstream os;
  os.precision(17);
  const auto& c = config_;
  os << "{\"seed\": " << c.seed
     << ", \"dna_dead_fraction\": " << c.dna_dead_fraction
     << ", \"dna_stuck_fraction\": " << c.dna_stuck_fraction
     << ", \"dna_leakage_outlier_fraction\": " << c.dna_leakage_outlier_fraction
     << ", \"dna_leakage_outlier_amp\": " << c.dna_leakage_outlier_amp
     << ", \"neuro_dead_fraction\": " << c.neuro_dead_fraction
     << ", \"neuro_stuck_fraction\": " << c.neuro_stuck_fraction
     << ", \"neuro_railed_fraction\": " << c.neuro_railed_fraction
     << ", \"channel_gain_drift_sigma\": " << c.channel_gain_drift_sigma
     << ", \"link_bit_error_rate\": " << c.link.bit_error_rate
     << ", \"link_burst_prob\": " << c.link.burst_prob
     << ", \"link_burst_length\": " << c.link.burst_length
     << ", \"link_drop_prob\": " << c.link.drop_prob
     << ", \"link_truncate_prob\": " << c.link.truncate_prob
     << ", \"link_timeout_prob\": " << c.link.timeout_prob << "}";
  return os.str();
}

namespace {

/// Finds `"key"` followed by ':' and parses the number after it. Returns
/// `fallback` when the key is absent or no number follows.
double json_number(const std::string& json, const std::string& key,
                   double fallback, bool* found = nullptr) {
  const std::string quoted = "\"" + key + "\"";
  std::size_t pos = json.find(quoted);
  if (pos == std::string::npos) return fallback;
  pos = json.find(':', pos + quoted.size());
  if (pos == std::string::npos) return fallback;
  ++pos;
  while (pos < json.size() &&
         std::isspace(static_cast<unsigned char>(json[pos]))) {
    ++pos;
  }
  const char* start = json.c_str() + pos;
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) return fallback;
  if (found) *found = true;
  return v;
}

}  // namespace

FaultPlan FaultPlan::from_json(const std::string& json) {
  bool seed_found = false;
  FaultPlanConfig c;
  const double seed =
      json_number(json, "seed", static_cast<double>(c.seed), &seed_found);
  require(seed_found, "FaultPlan::from_json: no \"seed\" key — not a plan");
  c.seed = static_cast<std::uint64_t>(seed);
  c.dna_dead_fraction =
      json_number(json, "dna_dead_fraction", c.dna_dead_fraction);
  c.dna_stuck_fraction =
      json_number(json, "dna_stuck_fraction", c.dna_stuck_fraction);
  c.dna_leakage_outlier_fraction = json_number(
      json, "dna_leakage_outlier_fraction", c.dna_leakage_outlier_fraction);
  c.dna_leakage_outlier_amp =
      json_number(json, "dna_leakage_outlier_amp", c.dna_leakage_outlier_amp);
  c.neuro_dead_fraction =
      json_number(json, "neuro_dead_fraction", c.neuro_dead_fraction);
  c.neuro_stuck_fraction =
      json_number(json, "neuro_stuck_fraction", c.neuro_stuck_fraction);
  c.neuro_railed_fraction =
      json_number(json, "neuro_railed_fraction", c.neuro_railed_fraction);
  c.channel_gain_drift_sigma = json_number(json, "channel_gain_drift_sigma",
                                           c.channel_gain_drift_sigma);
  c.link.bit_error_rate =
      json_number(json, "link_bit_error_rate", c.link.bit_error_rate);
  c.link.burst_prob = json_number(json, "link_burst_prob", c.link.burst_prob);
  c.link.burst_length = static_cast<int>(json_number(
      json, "link_burst_length", static_cast<double>(c.link.burst_length)));
  c.link.drop_prob = json_number(json, "link_drop_prob", c.link.drop_prob);
  c.link.truncate_prob =
      json_number(json, "link_truncate_prob", c.link.truncate_prob);
  c.link.timeout_prob =
      json_number(json, "link_timeout_prob", c.link.timeout_prob);
  return FaultPlan(c);
}

}  // namespace biosense::faults
