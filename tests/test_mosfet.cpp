#include "circuit/mosfet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "noise/mismatch.hpp"

namespace biosense::circuit {
namespace {

MosfetParams nmos() { return MosfetParams{}; }

MosfetParams pmos() {
  MosfetParams p;
  p.type = MosType::kPmos;
  p.kp = 40e-6;
  return p;
}

TEST(Mosfet, OffBelowThresholdDeepSubthreshold) {
  Mosfet m(nmos());
  // 300 mV below VT: current should be far below a nA for a 1 um device.
  const double id = m.drain_current(0.4, 2.0, 0.0);
  EXPECT_GT(id, 0.0);  // EKV never hard-zero
  EXPECT_LT(id, 1e-9);
}

TEST(Mosfet, SubthresholdSlopeIsExponential) {
  Mosfet m(nmos());
  // One subthreshold decade per n*VT*ln(10) ~ 80 mV at n=1.35, 300 K.
  const double i1 = m.drain_current(0.30, 2.0, 0.0);
  const double dv = m.params().n * thermal_voltage(300.0).value() * std::log(10.0);
  const double i2 = m.drain_current(0.30 + dv, 2.0, 0.0);
  EXPECT_NEAR(i2 / i1, 10.0, 0.5);
}

TEST(Mosfet, StrongInversionQuadraticLaw) {
  Mosfet m(nmos());
  // Well above VT the saturation current grows ~ (VGS-VT)^2: doubling the
  // overdrive should roughly quadruple the current (within EKV/CLM slack).
  const double i1 = m.drain_current(0.7 + 0.5, 3.0, 0.0);
  const double i2 = m.drain_current(0.7 + 1.0, 3.0, 0.0);
  EXPECT_NEAR(i2 / i1, 4.0, 0.6);
}

TEST(Mosfet, TriodeToSaturationMonotonicInVds) {
  Mosfet m(nmos());
  double prev = 0.0;
  for (double vds = 0.05; vds <= 3.0; vds += 0.05) {
    const double id = m.drain_current(1.5, vds, 0.0);
    EXPECT_GT(id, prev);
    prev = id;
  }
}

TEST(Mosfet, ZeroVdsZeroCurrent) {
  Mosfet m(nmos());
  EXPECT_NEAR(m.drain_current(1.5, 0.0, 0.0), 0.0, 1e-15);
}

TEST(Mosfet, GmPositiveAndGrowsWithBias) {
  Mosfet m(nmos());
  const double gm1 = m.gm(1.0, 2.0, 0.0);
  const double gm2 = m.gm(1.5, 2.0, 0.0);
  EXPECT_GT(gm1, 0.0);
  EXPECT_GT(gm2, gm1);
}

TEST(Mosfet, GdsReflectsChannelLengthModulation) {
  MosfetParams p = nmos();
  p.lambda = 0.0;
  Mosfet ideal(p);
  p.lambda = 0.1;
  Mosfet real(p);
  // Output conductance from the drain-current slope in saturation.
  const auto gds = [](const Mosfet& m) {
    return (m.drain_current(1.5, 2.6, 0.0) - m.drain_current(1.5, 2.4, 0.0)) /
           0.2;
  };
  const double gds_ideal = gds(ideal);
  const double gds_real = gds(real);
  EXPECT_GT(gds_real, gds_ideal);
  EXPECT_GT(gds_real, 0.0);
}

class MosfetVgsRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(MosfetVgsRoundTrip, VgsForCurrentInvertsTransfer) {
  // Across eight decades (pA..100 uA) the solved gate voltage reproduces
  // the requested current — the property the pixel calibration loop and
  // the I2F regulation rely on.
  const double id = GetParam();
  Mosfet m(nmos());
  const double vg = m.vgs_for_current(id, 2.0, 0.0);
  EXPECT_NEAR(m.drain_current(vg, 2.0, 0.0) / id, 1.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Currents, MosfetVgsRoundTrip,
                         ::testing::Values(1e-12, 10e-12, 1e-9, 100e-9, 1e-6,
                                           10e-6, 100e-6));

TEST(Mosfet, PmosMirrorsNmos) {
  Mosfet p(pmos());
  // Source at 5 V, gate pulled low: conducts; gate at source: off.
  const double on = p.drain_current(3.5, 0.0, 5.0);
  const double off = p.drain_current(5.0, 0.0, 5.0);
  EXPECT_GT(on, 1e-6);
  EXPECT_LT(off, on * 1e-3);
}

TEST(Mosfet, PmosVgsForCurrent) {
  Mosfet p(pmos());
  const double vg = p.vgs_for_current(10e-6, 0.0, 5.0);
  EXPECT_LT(vg, 5.0 - 0.5);  // gate well below source
  EXPECT_NEAR(p.drain_current(vg, 0.0, 5.0) / 10e-6, 1.0, 1e-6);
}

TEST(Mosfet, ThresholdMismatchShiftsTransfer) {
  noise::DeviceMismatch mm;
  mm.delta_vt = 20e-3;
  Mosfet shifted(nmos(), mm);
  Mosfet nominal(nmos());
  // In subthreshold a +20 mV VT shift divides the current by
  // exp(20mV / (n VT)).
  const double ratio = nominal.drain_current(0.4, 2.0, 0.0) /
                       shifted.drain_current(0.4, 2.0, 0.0);
  const double expected =
      std::exp(20e-3 / (nominal.params().n * thermal_voltage(300.0).value()));
  EXPECT_NEAR(ratio, expected, 0.05 * expected);
}

TEST(Mosfet, BetaMismatchScalesCurrent) {
  noise::DeviceMismatch mm;
  mm.beta_ratio = 1.1;
  Mosfet big(nmos(), mm);
  Mosfet nominal(nmos());
  const double ratio =
      big.drain_current(1.5, 2.0, 0.0) / nominal.drain_current(1.5, 2.0, 0.0);
  EXPECT_NEAR(ratio, 1.1, 1e-3);
}

TEST(Mosfet, WidthScalesCurrentLinearly) {
  MosfetParams p = nmos();
  Mosfet m1(p);
  p.w *= 4.0;
  Mosfet m4(p);
  EXPECT_NEAR(m4.drain_current(1.5, 2.0, 0.0) / m1.drain_current(1.5, 2.0, 0.0),
              4.0, 0.01);
}

TEST(Mosfet, RejectsInvalidParams) {
  MosfetParams p = nmos();
  p.w = 0.0;
  EXPECT_THROW(Mosfet{p}, ConfigError);
  p = nmos();
  p.n = 0.5;
  EXPECT_THROW(Mosfet{p}, ConfigError);
  p = nmos();
  p.kp = -1.0;
  EXPECT_THROW(Mosfet{p}, ConfigError);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// x moved by k ulps (toward -inf for k < 0).
double step_ulps(double x, int k) {
  const double inf = std::numeric_limits<double>::infinity();
  for (; k > 0; --k) x = std::nextafter(x, inf);
  for (; k < 0; ++k) x = std::nextafter(x, -inf);
  return x;
}

/// Ulps between two doubles of one sign.
std::uint64_t ulp_distance(double a, double b) {
  const auto ia = std::bit_cast<std::uint64_t>(a);
  const auto ib = std::bit_cast<std::uint64_t>(b);
  return ia > ib ? ia - ib : ib - ia;
}

/// |got - ref| in units of the last place of ref rounded to double
/// (2^-1074 at the bottom of the subnormals).
double ulps(double got, long double ref) {
  const long double mag = std::fabs(ref);
  const long double ulp =
      mag < 0x1p-1022L
          ? 0x1p-1074L
          : std::ldexp(1.0L, std::ilogb(static_cast<double>(mag)) - 52);
  return static_cast<double>(std::fabs(static_cast<long double>(got) - ref) /
                             ulp);
}

long double reference_f(double x) {
  const long double l = std::log1p(std::exp(static_cast<long double>(x) / 2));
  return l * l;
}

TEST(EkvF, MatchesLongDoubleReferenceAndNeverDecreases) {
  // A grid of step 2^-10 over [-1500, 1500] (subthreshold to strong
  // inversion and both underflow and the squares of large z), within
  // 8 ulp of log1pl(expl(x/2))^2 and non-decreasing.
  double worst = 0.0;
  double worst_x = 0.0;
  double prev = 0.0;
  for (long i = -1536000; i <= 1536000; ++i) {
    const double x = static_cast<double>(i) / 1024.0;
    const double f = detail::ekv_f(x);
    const double err = ulps(f, reference_f(x));
    if (err > worst) {
      worst = err;
      worst_x = x;
    }
    ASSERT_GE(f, prev) << "x " << x;
    prev = f;
  }
  EXPECT_LE(worst, 8.0) << "at x " << worst_x;
}

TEST(EkvF, ExactAroundOldCutoffZeroAndClamp) {
  // Single ulps around x = 60, x = 0, the |x/2| = 708 clamp and -42.
  for (const double at : {60.0, 0.0, 1416.0, -1416.0, -42.0}) {
    double prev = detail::ekv_f(step_ulps(at, -65));
    for (int k = -64; k <= 64; ++k) {
      const double x = step_ulps(at, k);
      const double f = detail::ekv_f(x);
      EXPECT_LE(ulps(f, reference_f(x)), 8.0) << "x " << x;
      EXPECT_GE(f, prev) << "x " << x;
      prev = f;
    }
  }
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(detail::ekv_f(inf), inf);
  EXPECT_EQ(detail::ekv_f(-inf), 0.0);
  EXPECT_EQ(detail::ekv_f(-2000.0), 0.0);
  EXPECT_TRUE(std::isnan(detail::ekv_f(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_TRUE(
      std::isnan(detail::ekv_f(-std::numeric_limits<double>::quiet_NaN())));
}

/// The EKV drain current with the reverse term always evaluated, in the
/// model's order of operations.
double two_term_current(const Mosfet& m, double vg, double vd, double vs) {
  const MosfetParams& p = m.params();
  const bool n_frame = p.type == MosType::kNmos;
  const double vgs = n_frame ? vg - vs : vs - vg;
  const double vds = n_frame ? vd - vs : vs - vd;
  const double vt_th = thermal_voltage(p.temp_k).value();
  const double vp = (vgs - m.effective_vt()) / p.n;
  const double i_spec = 2.0 * p.n * m.beta() * vt_th * vt_th;
  double id =
      i_spec * (detail::ekv_f(vp / vt_th) - detail::ekv_f((vp - vds) / vt_th));
  if (id > 0.0 && vds > 0.0) id *= 1.0 + p.lambda * vds;
  return id;
}

double two_term_gm(const Mosfet& m, double vg, double vd, double vs) {
  const double dv = 1e-6;
  return (two_term_current(m, vg + dv, vd, vs) -
          two_term_current(m, vg - dv, vd, vs)) /
         (2.0 * dv);
}

TEST(Mosfet, ReverseTermSkipIsExact) {
  // The skip's premise for this F: F(x_r) < 2^-60 for every x_r < -42
  // (F never decreases, EkvF above), from the first ulp below -42 down.
  EXPECT_LT(detail::ekv_f(std::nextafter(-42.0, -100.0)), 0x1p-60);
  for (double x_r = -42.0; x_r >= -1500.0; x_r -= 0.125) {
    EXPECT_LT(detail::ekv_f(std::nextafter(x_r, -2000.0)), 0x1p-60);
  }
  EXPECT_GE(detail::ekv_f(-41.0), 0x1p-60);  // the bound is not slack

  // The skip's own helper, one ulp at a time across both of its edges:
  // x_r = -42 and F(x_f) = 1, at x_f = 2 ln(e - 1).
  const double x_one = 2.0 * std::log(std::exp(1.0) - 1.0);
  int f_below_one = 0;
  int f_from_one = 0;
  for (int i = -64; i <= 64; ++i) {
    const double x_f = step_ulps(x_one, i);
    ++(detail::ekv_f(x_f) < 1.0 ? f_below_one : f_from_one);
    for (int j = -8; j <= 8; ++j) {
      const double x_r = step_ulps(-42.0, j);
      EXPECT_TRUE(same_bits(detail::ekv_fwd_minus_rev(x_f, x_r),
                            detail::ekv_f(x_f) - detail::ekv_f(x_r)))
          << "x_f " << x_f << " x_r " << x_r;
    }
  }
  EXPECT_GT(f_below_one, 0);
  EXPECT_GT(f_from_one, 0);

  // Drain current and gm through Mosfet and MosfetSpan, NMOS and PMOS:
  // a grid over x_r in [-80, -20] and F(x_f) in [0.25, 50], plus node
  // voltages stepped by single ulps around each edge.
  noise::DeviceMismatch mm;
  mm.delta_vt = 3e-3;
  mm.beta_ratio = 1.02;
  for (const MosfetParams& params : {nmos(), pmos()}) {
    const Mosfet dev(params, mm);
    MosfetSpan span;
    span.reset(params, 1);
    span.set(0, dev);
    const bool n_frame = params.type == MosType::kNmos;
    const double vs = n_frame ? 0.0 : 3.0;
    const double vt_th = thermal_voltage(params.temp_k).value();
    const double evt = dev.effective_vt();
    int near_xr_below = 0;
    int near_xr_from = 0;
    int near_f_below = 0;
    int near_f_from = 0;
    auto check = [&](double vg, double vd) {
      const double id = two_term_current(dev, vg, vd, vs);
      const double gm = two_term_gm(dev, vg, vd, vs);
      EXPECT_TRUE(same_bits(dev.drain_current(vg, vd, vs), id))
          << "vg " << vg << " vd " << vd;
      EXPECT_TRUE(same_bits(span.drain_current(0, vg, vd, vs), id))
          << "vg " << vg << " vd " << vd;
      EXPECT_TRUE(same_bits(dev.gm(vg, vd, vs), gm));
      EXPECT_TRUE(same_bits(span.gm(0, vg, vd, vs), gm));
      // Where the point sits, as the model computes it.
      const double vgs = n_frame ? vg - vs : vs - vg;
      const double vds = n_frame ? vd - vs : vs - vd;
      const double vp = (vgs - evt) / params.n;
      const double x_r = (vp - vds) / vt_th;
      const double f = detail::ekv_f(vp / vt_th);
      if (ulp_distance(x_r, -42.0) <= 4) {
        ++(x_r < -42.0 ? near_xr_below : near_xr_from);
      }
      if (ulp_distance(f, 1.0) <= 32) ++(f < 1.0 ? near_f_below : near_f_from);
    };
    // (x_f, x_r) -> node voltages.
    auto vg_of = [&](double x_f) {
      const double vgs = evt + params.n * vt_th * x_f;
      return n_frame ? vgs : vs - vgs;
    };
    auto vd_of = [&](double x_f, double x_r) {
      const double vds = (x_f - x_r) * vt_th;
      return n_frame ? vds : vs - vds;
    };
    for (int i = 0; i <= 24; ++i) {
      const double x_f = -0.86 + (14.1 - -0.86) * i / 24.0;
      for (int j = 0; j <= 30; ++j) {
        check(vg_of(x_f), vd_of(x_f, -80.0 + 2.0 * j));
      }
      for (int k = -12; k <= 12; ++k) {
        check(vg_of(x_f), step_ulps(vd_of(x_f, -42.0), k));
      }
    }
    for (const double x_r : {-70.0, -43.0, -42.0, -41.0}) {
      for (int k = -40; k <= 40; ++k) {
        check(step_ulps(vg_of(x_one), k), vd_of(x_one, x_r));
      }
    }
    EXPECT_GT(near_xr_below, 0);
    EXPECT_GT(near_xr_from, 0);
    EXPECT_GT(near_f_below, 0);
    EXPECT_GT(near_f_from, 0);
  }
}

TEST(MosfetSpan, LanesMatchScalarBitwise) {
  // drain_currents against drain_current, lane by lane, NMOS and PMOS:
  // runs of 1-8 devices gathered with gaps (the sparse path's blocks), gate
  // voltages single ulps around both edges of the reverse-term skip
  // (x_r = -42, F(x_f) = 1), around x = 60 and across
  // the operating range, at drain voltages that put x_r on either side of
  // -42. Blocks that mix skipping and non-skipping lanes must count.
  const double x_one = 2.0 * std::log(std::exp(1.0) - 1.0);
  noise::MismatchSampler mismatch(noise::PelgromCoefficients{}, Rng(17));
  Rng pick(23);
  for (const MosfetParams& params : {nmos(), pmos()}) {
    constexpr std::size_t kDevices = 40;
    std::vector<Mosfet> devices;
    MosfetSpan span;
    span.reset(params, kDevices);
    for (std::size_t i = 0; i < kDevices; ++i) {
      devices.emplace_back(params, mismatch.sample(params.w, params.l));
      span.set(i, devices.back());
    }
    const bool n_frame = params.type == MosType::kNmos;
    const double vs = n_frame ? 0.0 : 3.0;
    const double vt_th = thermal_voltage(params.temp_k).value();
    int mixed_blocks = 0;
    for (const double vds : {-0.2, 0.0, 0.3, (x_one + 42.0) * vt_th, 2.0}) {
      const double vd = n_frame ? vs + vds : vs - vds;
      const double x_f_targets[] = {x_one, -42.0 + vds / vt_th, 60.0, -0.86,
                                    4.3,   14.1,                  -50.0, 100.0};
      for (int block = 0; block < 400; ++block) {
        const int count = 1 + static_cast<int>(pick.next_u64() % 8);
        std::size_t idx[MosfetSpan::kLanes];
        double vg[MosfetSpan::kLanes];
        std::size_t next = pick.next_u64() % 4;
        for (int j = 0; j < count; ++j) {
          idx[j] = next;
          next += 1 + pick.next_u64() % 4;  // gaps of 0-3 devices
          const double x_f = x_f_targets[pick.next_u64() % 8];
          const double vgs = devices[idx[j]].effective_vt() +
                             params.n * vt_th * x_f;
          vg[j] = step_ulps(n_frame ? vgs : vs - vgs,
                            static_cast<int>(pick.next_u64() % 33) - 16);
        }
        double got[MosfetSpan::kLanes];
        span.drain_currents(idx, vg, count, vd, vs, got);
        int skipping = 0;
        for (int j = 0; j < count; ++j) {
          EXPECT_TRUE(same_bits(got[j],
                                span.drain_current(idx[j], vg[j], vd, vs)))
              << "vg " << vg[j] << " vd " << vd << " lane " << j;
          const double vp =
              ((n_frame ? vg[j] - vs : vs - vg[j]) -
               devices[idx[j]].effective_vt()) /
              params.n;
          skipping += detail::ekv_rev_negligible(
                          detail::ekv_f(vp / vt_th), (vp - vds) / vt_th)
                          ? 1
                          : 0;
        }
        if (skipping > 0 && skipping < count) ++mixed_blocks;
      }
    }
    EXPECT_GT(mixed_blocks, 0);
  }
}

TEST(MosfetSpan, LaneSolveMatchesScalarBitwise) {
  // vgs_for_currents against Mosfet::vgs_for_current over 12 000
  // mismatched devices, NMOS and PMOS, currents log-spread over pA..100 uA
  // and blocks of 1-8 lanes.
  noise::MismatchSampler mismatch(noise::PelgromCoefficients{}, Rng(41));
  Rng pick(43);
  for (const MosfetParams& params : {nmos(), pmos()}) {
    constexpr std::size_t kDevices = 6000;
    std::vector<Mosfet> devices;
    devices.reserve(kDevices);
    MosfetSpan span;
    span.reset(params, kDevices);
    std::vector<double> id(kDevices);
    for (std::size_t i = 0; i < kDevices; ++i) {
      devices.emplace_back(params, mismatch.sample(params.w, params.l));
      span.set(i, devices.back());
      id[i] = 1e-12 * std::pow(1e8, static_cast<double>(pick.next_u64() %
                                                         100001) /
                                        100000.0);
    }
    const bool n_frame = params.type == MosType::kNmos;
    const double vs = n_frame ? 0.0 : 5.0;
    const double vd = n_frame ? 2.0 : 0.0;
    std::size_t first = 0;
    int mismatches = 0;
    while (first < kDevices) {
      const int count = static_cast<int>(std::min<std::size_t>(
          1 + pick.next_u64() % 8, kDevices - first));
      double vg[MosfetSpan::kLanes];
      span.vgs_for_currents(first, count, id.data() + first, vd, vs, vg);
      for (int j = 0; j < count; ++j) {
        const std::size_t i = first + static_cast<std::size_t>(j);
        if (!same_bits(vg[j], devices[i].vgs_for_current(id[i], vd, vs))) {
          ++mismatches;
        }
      }
      first += static_cast<std::size_t>(count);
    }
    EXPECT_EQ(mismatches, 0);
  }
  MosfetSpan span;
  span.reset(nmos(), 1);
  span.set(0, Mosfet(nmos()));
  const double zero = 0.0;
  double vg = 0.0;
  EXPECT_THROW(span.vgs_for_currents(0, 1, &zero, 2.0, 0.0, &vg), ConfigError);
  const double one_ua = 1e-6;
  EXPECT_THROW(span.vgs_for_currents(0, 2, &one_ua, 2.0, 0.0, &vg),
               ConfigError);
}

TEST(Mosfet, VgsForCurrentRejectsNonPositive) {
  Mosfet m(nmos());
  EXPECT_THROW(m.vgs_for_current(0.0, 2.0, 0.0), ConfigError);
}

}  // namespace
}  // namespace biosense::circuit
