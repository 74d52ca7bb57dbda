// dna_autorange: the calibrated 8x16 DNA chip reads a seeded assay map
// through HostInterface::acquire_autorange(), one op per full readout.
//
// The map puts matches (a quarter of the sites, log-uniform over 1-10 nA)
// among non-matches (log-uniform over 1-100 pA). The I2F model draws one
// comparator-noise sample per sawtooth cycle, so the 8.192 s rung dominates
// while the link carries only a few thousand bits — the mirror image of the
// neural workloads. The top decade (10-100 nA) is left out: one 100 nA
// site costs millions of cycles on the long rung.
#include <cmath>
#include <stdexcept>

#include "bench.hpp"
#include "core/session_options.hpp"
#include "dnachip/chip.hpp"

namespace perfbench {
namespace {

using namespace biosense;
using Frame = dnachip::HostInterface::Frame;

constexpr int kSetupRepeats = 15;     // set-ups timed per run (~12 ms each)
// ~60 readouts per 25 s: p75 is the highest of p99/p90/p75 with ten
// samples beyond it.
constexpr double kTailQ = 0.75;
constexpr double kMaxRelError = 0.05; // per-site readout check
constexpr std::uint16_t kRungs[] = {1, 7, 13};  // acquire_autorange's ladder
constexpr const char* kRungSpans[] = {"dnachip.rung1", "dnachip.rung7",
                                      "dnachip.rung13"};
constexpr std::uint64_t kSaturated = 0xfff0;  // acquire_autorange's rule

struct Rig {
  core::DnaSession dna;
  std::vector<double> applied;  // per-site sensor current, A
};

/// Seeded assay map. Each class's currents are a stratified log-uniform
/// sample (one draw per equal slice of the log range), placed on a seeded
/// permutation of the sites: the map changes with the seed while the
/// long rung's cycle count, which follows the summed current, stays put.
std::vector<double> assay_map(std::uint64_t seed, int sites) {
  Rng rng(derive_seed(seed, 5));
  std::vector<int> order(static_cast<std::size_t>(sites));
  for (int i = 0; i < sites; ++i) order[static_cast<std::size_t>(i)] = i;
  rng.shuffle(order);
  const int matches = sites / 4;
  const auto stratified = [&rng](int j, int n, double lo, double hi) {
    const double u = (j + rng.uniform()) / n;
    return lo * std::pow(hi / lo, u);
  };
  std::vector<double> currents(static_cast<std::size_t>(sites));
  for (int i = 0; i < sites; ++i) {
    currents[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] =
        i < matches ? stratified(i, matches, 1e-9, 1e-8)
                    : stratified(i - matches, sites - matches, 1e-12, 1e-10);
  }
  return currents;
}

Rig build_rig(std::uint64_t seed) {
  Rig rig;
  core::SessionOptions opts;
  opts.kind(core::ChipKind::kDna)
      .chip_seed(derive_seed(seed, 6))
      .link_seed(derive_seed(seed, 7))
      .label("");
  rig.dna = opts.build_dna();
  rig.applied = assay_map(seed, rig.dna.chip->sites());
  rig.dna.chip->apply_sensor_currents(rig.applied);
  return rig;
}

/// Status kOk and every site within kMaxRelError of its applied current.
bool check_readout(const Frame& f, const std::vector<double>& applied,
                   double& worst) {
  if (f.status != dnachip::TxStatus::kOk ||
      f.currents.size() != applied.size()) {
    return false;
  }
  bool ok = true;
  for (std::size_t i = 0; i < applied.size(); ++i) {
    const double rel = std::abs(f.currents[i] - applied[i]) / applied[i];
    worst = std::max(worst, rel);
    ok &= rel <= kMaxRelError;
  }
  return ok;
}

/// The autorange merge rule: start from the first good rung, then keep per
/// site each longer rung whose counter did not saturate.
void merge_rung(Frame& merged, const Frame& rung) {
  if (rung.status != dnachip::TxStatus::kOk) return;
  if (merged.raw_counts.empty()) {
    merged = rung;
    return;
  }
  for (std::size_t i = 0; i < rung.raw_counts.size(); ++i) {
    if (rung.raw_counts[i] < kSaturated) {
      merged.raw_counts[i] = rung.raw_counts[i];
      merged.currents[i] = rung.currents[i];
    }
  }
}

/// One traced readout: the three acquire(code) rungs acquire_autorange
/// issues, each in its own span, merged by its rule.
Frame traced_readout(dnachip::HostInterface& host, SpanLog* log, int op_span,
                     std::uint64_t op, std::uint64_t& saturated_long) {
  Frame merged;
  merged.status = dnachip::TxStatus::kRetriesExhausted;
  std::uint64_t bits = 0;
  for (std::size_t r = 0; r < std::size(kRungs); ++r) {
    const std::uint64_t b = now_ns();
    const Frame f = host.acquire(kRungs[r]);
    if (log != nullptr) log->add(kRungSpans[r], b, now_ns(), op_span, op);
    bits += f.serial_bits;
    if (kRungs[r] == 13) {
      for (const std::uint64_t c : f.raw_counts) {
        saturated_long += c >= kSaturated ? 1 : 0;
      }
    }
    merge_rung(merged, f);
  }
  merged.serial_bits = bits;
  return merged;
}

}  // namespace

Outcome run_dna(const Options& opt) {
  Outcome out;
  out.tail_q = kTailQ;
  const auto build = [&] { return build_rig(opt.seed); };
  Rig rig = timed_setup(out, build);
  dnachip::HostInterface& host = *rig.dna.host;
  double worst = 0.0;

  if (!opt.trace) {
    // Warm-up: one readout, excluded from every metric; it feeds the
    // output digest.
    const Frame warm = host.acquire_autorange();
    out.digest = fnv1a(kFnvOffset, warm.raw_counts.data(),
                       warm.raw_counts.size() * sizeof(warm.raw_counts[0]));
    if (!check_readout(warm, rig.applied, worst)) ++out.warmup_failed;

    const std::uint64_t start = now_ns();
    std::uint64_t last = start;
    while (seconds_between(start, last) < opt.seconds ||
           out.attempted < min_ops(out.tail_q)) {
      const Frame f = host.acquire_autorange();
      const std::uint64_t now = now_ns();
      out.latency_ms.add(static_cast<double>(now - last) * 1e-6);
      last = now;
      ++out.attempted;
      if (!check_readout(f, rig.applied, worst)) ++out.failed;
    }
    out.window_s = seconds_between(start, last);
    out.info["dnachip.worst_rel_error"] = worst;
    rig = Rig{};
    finish_run(out, kSetupRepeats, build);
    return out;
  }

  // Traced run. Warm-up: the traced three-rung readout must equal
  // acquire_autorange() on an identically seeded chip.
  std::uint64_t saturated = 0;
  {
    Rig twin = build_rig(opt.seed);
    const Frame reference = twin.dna.host->acquire_autorange();
    const Frame warm = traced_readout(host, nullptr, -1, 0, saturated);
    if (warm.raw_counts != reference.raw_counts ||
        warm.currents != reference.currents ||
        warm.serial_bits != reference.serial_bits ||
        !check_readout(warm, rig.applied, worst)) {
      ++out.warmup_failed;
    }
    out.digest = fnv1a(kFnvOffset, warm.raw_counts.data(),
                       warm.raw_counts.size() * sizeof(warm.raw_counts[0]));
  }

  // An untraced third for the overhead reference, then the traced rest.
  {
    const std::uint64_t start = now_ns();
    std::uint64_t last = start;
    while (seconds_between(start, last) < opt.seconds / 3.0) {
      const Frame f = host.acquire_autorange();
      last = now_ns();
      ++out.attempted;
      if (!check_readout(f, rig.applied, worst)) ++out.failed;
    }
    out.untraced_ops_per_s =
        static_cast<double>(out.attempted) / seconds_between(start, last);
  }

  SpanLog log(4096);
  saturated = 0;
  std::uint64_t serial_bits = 0;
  std::uint64_t op = 0;
  const double traced_seconds = opt.seconds - opt.seconds / 3.0;
  const std::uint64_t start = now_ns();
  std::uint64_t last = start;
  while (seconds_between(start, last) < traced_seconds && !log.full()) {
    const int op_span = log.open("dnachip.readout", last, -1, op);
    const Frame f = traced_readout(host, &log, op_span, op, saturated);
    const std::uint64_t now = now_ns();
    log.close(op_span, now);
    out.latency_ms.add(static_cast<double>(now - last) * 1e-6);
    last = now;
    serial_bits += f.serial_bits;
    ++op;
    ++out.attempted;
    if (!check_readout(f, rig.applied, worst)) ++out.failed;
  }
  out.window_s = seconds_between(start, last);
  const double ops = static_cast<double>(op);
  out.traced_ops_per_s = ops / out.window_s;

  std::map<std::string, double> other;
  other["untraced_ops_per_s"] = out.untraced_ops_per_s;
  other["traced_ops_per_s"] = out.traced_ops_per_s;
  other["dnachip.serial_bits"] = static_cast<double>(serial_bits) / ops;
  other["dnachip.sat_rung13_frac"] =
      static_cast<double>(saturated) /
      (ops * static_cast<double>(rig.applied.size()));
  other["dnachip.worst_rel_error"] = worst;
  if (!log.write(opt.trace_path, other)) {
    throw std::runtime_error("cannot write trace file " + opt.trace_path);
  }
  out.info = other;
  return out;
}

}  // namespace perfbench
