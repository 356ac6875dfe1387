#include "channel/awgn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "dsp/math_util.h"
#include "dsp/simd.h"

namespace fmbs::channel {
namespace {

TEST(Awgn, VarianceMatchesSpec) {
  // -90 dBm in 200 kHz at a 2.4 MHz rate -> total power -90 + 10log10(12).
  AwgnSource src( units::Dbm{-90.0}, units::Hertz{200000.0}, 2400000.0, 1);
  const double expected = dsp::watts_from_dbm(-90.0) * 12.0;
  EXPECT_NEAR(src.variance(), expected, expected * 1e-9);

  dsp::cvec block(200000);
  src.add_to(block);
  double measured = 0.0;
  for (const auto& v : block) measured += std::norm(v);
  measured /= static_cast<double>(block.size());
  EXPECT_NEAR(measured, expected, expected * 0.05);
}

TEST(Awgn, AddsToExistingSignal) {
  AwgnSource src( units::Dbm{-60.0}, units::Hertz{200000.0}, 2400000.0, 2);
  dsp::cvec block(1000, dsp::cfloat(1.0F, 0.0F));
  src.add_to(block);
  double mean_re = 0.0;
  for (const auto& v : block) mean_re += v.real();
  EXPECT_NEAR(mean_re / 1000.0, 1.0, 0.01);
}

TEST(Awgn, DeterministicPerSeed) {
  AwgnSource a( units::Dbm{-80.0}, units::Hertz{200000.0}, 2400000.0, 7);
  AwgnSource b( units::Dbm{-80.0}, units::Hertz{200000.0}, 2400000.0, 7);
  AwgnSource c( units::Dbm{-80.0}, units::Hertz{200000.0}, 2400000.0, 8);
  dsp::cvec x(64), y(64), z(64);
  a.add_to(x);
  b.add_to(y);
  c.add_to(z);
  EXPECT_EQ(x, y);
  EXPECT_NE(x, z);
}

TEST(Awgn, ZeroMeanComplexAndBalanced) {
  AwgnSource src( units::Dbm{-70.0}, units::Hertz{200000.0}, 2400000.0, 3);
  dsp::cvec block(100000);
  src.add_to(block);
  double re = 0.0, im = 0.0, re2 = 0.0, im2 = 0.0;
  for (const auto& v : block) {
    re += v.real();
    im += v.imag();
    re2 += static_cast<double>(v.real()) * v.real();
    im2 += static_cast<double>(v.imag()) * v.imag();
  }
  const double n = static_cast<double>(block.size());
  EXPECT_NEAR(re / n, 0.0, 3.0 * std::sqrt(src.variance() / 2.0 / n));
  EXPECT_NEAR(im / n, 0.0, 3.0 * std::sqrt(src.variance() / 2.0 / n));
  // I/Q power split evenly.
  EXPECT_NEAR(re2 / im2, 1.0, 0.05);
}

// 30 dBm (1 W) in 100 kHz at a 200 kHz rate: complex variance 2, so each
// component is the generator's N(0, 1) output with sigma exactly 1.
AwgnSource unit_source(std::uint64_t seed) {
  return AwgnSource(units::Dbm{30.0}, units::Hertz{100000.0}, 200000.0, seed);
}

dsp::cvec unit_noise(std::uint64_t seed, std::size_t n) {
  AwgnSource src = unit_source(seed);
  dsp::cvec block(n);
  src.add_to(block);
  return block;
}

// Sample k depends only on (seed, k): cutting the stream into add_to calls
// of any size gives the same bits.
TEST(Awgn, BlockSplitInvariance) {
  const std::size_t n = 10007;
  dsp::cvec whole(n, dsp::cfloat(0.25F, -0.5F));
  AwgnSource(units::Dbm{-80.0}, units::Hertz{200000.0}, 2400000.0, 11)
      .add_to(whole);
  for (const std::size_t chunk : {1U, 3U, 7U, 4096U}) {
    AwgnSource src(units::Dbm{-80.0}, units::Hertz{200000.0}, 2400000.0, 11);
    dsp::cvec pieces(n, dsp::cfloat(0.25F, -0.5F));
    for (std::size_t i = 0; i < n; i += chunk) {
      const std::size_t len = std::min(chunk, n - i);
      src.add_to(std::span<dsp::cfloat>(pieces.data() + i, len));
    }
    EXPECT_EQ(pieces, whole) << "chunk=" << chunk;
  }
}

// The vector path (four samples at a time) and the scalar tail are the same
// function of the counter: every block length, odd ones included, matches
// the per-sample scalar reference bit for bit.
TEST(Awgn, MatchesScalarReferenceIncludingTails) {
  const float sigma = 0.75F;
  for (const std::size_t n : {1U, 2U, 3U, 4U, 5U, 7U, 8U, 9U, 4097U}) {
    AwgnSource src(units::Dbm{-70.0}, units::Hertz{200000.0}, 2400000.0, 21);
    const auto sigma_src =
        static_cast<float>(std::sqrt(src.variance() / 2.0));
    dsp::cvec skip(3);
    src.add_to(skip);  // start the block at counter 3, off the 4-lane grid
    dsp::cvec got(n, dsp::cfloat(sigma, -sigma));
    src.add_to(got);
    for (std::size_t i = 0; i < n; ++i) {
      float zi = 0.0F;
      float zq = 0.0F;
      dsp::simd::box_muller(core::derive_seed(21, 3 + i), &zi, &zq);
      const dsp::cfloat want(sigma + sigma_src * zi, -sigma + sigma_src * zq);
      EXPECT_EQ(got[i], want) << "n=" << n << " i=" << i;
    }
  }
}

// Known answer: FNV-1a over the bits of the first 4096 unit-sigma samples.
// The generator uses no libm or <random> call, so this value is the same in
// the SSE2 and the scalar (FMBS_SIMD=OFF) builds and across standard
// libraries.
TEST(Awgn, KnownAnswerFirst4096Samples) {
  const dsp::cvec z = unit_noise(42, 4096);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& v : z) {
    for (const float f : {v.real(), v.imag()}) {
      h ^= std::bit_cast<std::uint32_t>(f);
      h *= 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(h, 0xa19f240587ef8c1eULL);
}

// Normal CDF.
double phi(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

std::vector<double> unit_components(std::uint64_t seed, std::size_t n) {
  const dsp::cvec z = unit_noise(seed, n);
  std::vector<double> out;
  out.reserve(2 * n);
  for (const auto& v : z) {
    out.push_back(v.real());
    out.push_back(v.imag());
  }
  return out;
}

TEST(Awgn, KolmogorovSmirnovAgainstStandardNormal) {
  std::vector<double> x = unit_components(101, 1U << 19);
  std::sort(x.begin(), x.end());
  const double n = static_cast<double>(x.size());
  double d = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double f = phi(x[i]);
    d = std::max({d, f - static_cast<double>(i) / n,
                  static_cast<double>(i + 1) / n - f});
  }
  // 1.63 / sqrt(n) is the 1% critical value.
  EXPECT_LT(d, 1.63 / std::sqrt(n));
}

// Half-sigma bins out to +-4.5 sigma, each inside a 5-sigma binomial band
// around the N(0, 1) mass; the mass beyond 4 sigma inside a 4-sigma band.
TEST(Awgn, HistogramAndTailMassMatchStandardNormal) {
  const std::vector<double> x = unit_components(202, 1U << 21);
  const double n = static_cast<double>(x.size());
  auto check_band = [n](double count, double p, double k, const char* what) {
    const double mean = n * p;
    const double sd = std::sqrt(n * p * (1.0 - p));
    EXPECT_NEAR(count, mean, k * sd) << what << " p=" << p;
  };
  for (double lo = -4.5; lo < 4.5 - 1e-9; lo += 0.5) {
    const double hi = lo + 0.5;
    const auto count = static_cast<double>(std::count_if(
        x.begin(), x.end(), [&](double v) { return v >= lo && v < hi; }));
    check_band(count, phi(hi) - phi(lo), 5.0, "bin");
  }
  const auto tail = static_cast<double>(std::count_if(
      x.begin(), x.end(), [](double v) { return std::abs(v) > 4.0; }));
  check_band(tail, 2.0 * phi(-4.0), 4.0, "tail beyond 4 sigma");
}

double correlation(std::span<const double> a, std::span<const double> b) {
  double ab = 0.0, aa = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ab += a[i] * b[i];
    aa += a[i] * a[i];
    bb += b[i] * b[i];
  }
  return ab / std::sqrt(aa * bb);
}

TEST(Awgn, LagAndCrossCorrelationsNearZero) {
  const std::size_t n = 1U << 19;
  const double band = 4.0 / std::sqrt(static_cast<double>(n));
  auto split = [](const dsp::cvec& z, std::vector<double>& re,
                  std::vector<double>& im) {
    for (const auto& v : z) {
      re.push_back(v.real());
      im.push_back(v.imag());
    }
  };
  std::vector<double> re, im;
  split(unit_noise(303, n + 1), re, im);
  const std::span<const double> r(re), q(im);
  EXPECT_NEAR(correlation(r.first(n), r.subspan(1)), 0.0, band) << "I lag 1";
  EXPECT_NEAR(correlation(q.first(n), q.subspan(1)), 0.0, band) << "Q lag 1";
  EXPECT_NEAR(correlation(r.first(n), q.first(n)), 0.0, band) << "I/Q";

  // Two receivers seeded the way the engines seed them: adjacent
  // derive_seed indices under one root.
  std::vector<double> re_a, im_a, re_b, im_b;
  split(unit_noise(core::derive_seed(77, 0), n), re_a, im_a);
  split(unit_noise(core::derive_seed(77, 1), n), re_b, im_b);
  EXPECT_NEAR(correlation(re_a, re_b), 0.0, band) << "I_a/I_b";
  EXPECT_NEAR(correlation(im_a, im_b), 0.0, band) << "Q_a/Q_b";
  EXPECT_NEAR(correlation(re_a, im_b), 0.0, band) << "I_a/Q_b";
}

TEST(Awgn, Validation) {
  EXPECT_THROW(AwgnSource( units::Dbm{-90.0}, units::Hertz{0.0}, 2.4e6, 1), std::invalid_argument);
  EXPECT_THROW(AwgnSource( units::Dbm{-90.0}, units::Hertz{2e5}, 0.0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace fmbs::channel
