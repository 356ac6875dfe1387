#include "fm/rds.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <stdexcept>

#include "dsp/fir.h"
#include "dsp/math_util.h"
#include "dsp/nco.h"

namespace fmbs::fm {

namespace {

constexpr int kBlockBits = 26;
constexpr int kInfoBits = 16;
constexpr std::uint16_t kPoly = 0x5B9;  // x^10+x^8+x^7+x^5+x^4+x^3+1 (10-bit CRC)

// The four block offsets in group order.
constexpr std::array<RdsOffset, 4> kGroupOffsets{RdsOffset::kA, RdsOffset::kB,
                                                 RdsOffset::kC, RdsOffset::kD};

std::uint32_t block_bits(std::uint16_t info, RdsOffset offset) {
  const std::uint16_t check =
      rds_checkword(info) ^ static_cast<std::uint16_t>(offset);
  return (static_cast<std::uint32_t>(info) << 10) | check;
}

// Syndrome of a received 26-bit block: zero (after offset removal) when the
// block is error free.
std::uint16_t syndrome(std::uint32_t block) {
  const auto info = static_cast<std::uint16_t>(block >> 10);
  const auto check = static_cast<std::uint16_t>(block & 0x3FF);
  return static_cast<std::uint16_t>(rds_checkword(info) ^ check);
}

}  // namespace

std::uint16_t rds_checkword(std::uint16_t info) {
  // Polynomial division of info * x^10 by the generator.
  std::uint32_t reg = static_cast<std::uint32_t>(info) << 10;
  for (int bit = kBlockBits - 1; bit >= 10; --bit) {
    if (reg & (1U << bit)) {
      reg ^= static_cast<std::uint32_t>(kPoly) << (bit - 10);
    }
  }
  return static_cast<std::uint16_t>(reg & 0x3FF);
}

std::vector<RdsGroup> make_ps_groups(const std::string& ps_name,
                                     std::uint16_t program_id) {
  std::string ps = ps_name;
  ps.resize(8, ' ');
  std::vector<RdsGroup> groups(4);
  for (std::uint16_t seg = 0; seg < 4; ++seg) {
    RdsGroup g;
    g.blocks[0] = program_id;
    // Group type 0A: type=0, version A=0, TP=1, PTY=0, segment address.
    g.blocks[1] = static_cast<std::uint16_t>((0x0 << 12) | (0x1 << 10) | seg);
    g.blocks[2] = 0xCDCD;  // alternative-frequency placeholder
    g.blocks[3] = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(ps[seg * 2]) << 8) |
        static_cast<std::uint16_t>(ps[seg * 2 + 1]));
    groups[seg] = g;
  }
  return groups;
}

std::vector<RdsGroup> make_radiotext_groups(const std::string& text,
                                            std::uint16_t program_id) {
  std::string rt = text.substr(0, 64);
  // Terminate short messages with a carriage return (per the standard), then
  // pad to a whole number of 4-character segments.
  if (rt.size() < 64) rt.push_back('\r');
  rt.resize((rt.size() + 3) / 4 * 4, ' ');
  const std::size_t segments = rt.size() / 4;
  std::vector<RdsGroup> groups(segments);
  for (std::size_t seg = 0; seg < segments; ++seg) {
    RdsGroup g;
    g.blocks[0] = program_id;
    // Group type 2, version A, TP=1, text A/B flag 0, segment address.
    g.blocks[1] = static_cast<std::uint16_t>((0x2 << 12) | (0x1 << 10) |
                                             (seg & 0xF));
    g.blocks[2] = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(rt[seg * 4]) << 8) |
        static_cast<std::uint16_t>(rt[seg * 4 + 1]));
    g.blocks[3] = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(rt[seg * 4 + 2]) << 8) |
        static_cast<std::uint16_t>(rt[seg * 4 + 3]));
    groups[seg] = g;
  }
  return groups;
}

std::vector<unsigned char> serialize_groups(std::span<const RdsGroup> groups) {
  std::vector<unsigned char> bits;
  bits.reserve(groups.size() * 4 * kBlockBits);
  for (const RdsGroup& g : groups) {
    for (std::size_t b = 0; b < 4; ++b) {
      const std::uint32_t word = block_bits(g.blocks[b], kGroupOffsets[b]);
      for (int bit = kBlockBits - 1; bit >= 0; --bit) {
        bits.push_back(static_cast<unsigned char>((word >> bit) & 1U));
      }
    }
  }
  return bits;
}

dsp::rvec modulate_rds_subcarrier(std::span<const unsigned char> bits,
                                  std::size_t num_samples, double sample_rate) {
  if (bits.empty()) throw std::invalid_argument("modulate_rds: empty bitstream");
  if (sample_rate <= 0.0) throw std::invalid_argument("modulate_rds: bad rate");
  const double bit_period = sample_rate / kRdsBitRateHz;

  dsp::Oscillator carrier(kRdsCarrierHz, sample_rate);
  dsp::rvec out(num_samples);
  unsigned char diff_state = 0;
  std::size_t bit_index = 0;
  unsigned char current = 0;
  double next_boundary = 0.0;
  for (std::size_t i = 0; i < num_samples; ++i) {
    if (static_cast<double>(i) >= next_boundary) {
      diff_state ^= bits[bit_index % bits.size()];
      current = diff_state;
      ++bit_index;
      next_boundary += bit_period;
    }
    // Biphase-L: first half-bit carries the symbol, second half inverted.
    const double bit_start = next_boundary - bit_period;
    const bool second_half =
        static_cast<double>(i) - bit_start >= bit_period / 2.0;
    const float symbol = (current ^ (second_half ? 1 : 0)) ? 1.0F : -1.0F;
    out[i] = symbol * carrier.next_real();
  }
  return out;
}

RdsDecodeResult decode_rds(std::span<const float> mpx, double sample_rate) {
  // 1) Complex downconversion of the 57 kHz subcarrier. The simulation
  // shares one sample clock, so the residual is a constant phase rotation,
  // recovered below with a BPSK squaring estimator. Too-short captures
  // return an empty result from decode_rds_baseband's length guards.
  dsp::Mixer mixer(kRdsFrontEndMixHz, sample_rate);
  dsp::cvec z(mpx.size());
  for (std::size_t i = 0; i < mpx.size(); ++i) z[i] = dsp::cfloat(mpx[i], 0.0F);
  mixer.process_inplace(z);
  dsp::FirFilter<dsp::cfloat> lp(dsp::fir_design_lowpass(
      kRdsFrontEndTaps, kRdsFrontEndCutoffHz / sample_rate));
  return decode_rds_baseband(lp.process(z), sample_rate);
}

RdsDecodeResult decode_rds_baseband(std::span<const dsp::cfloat> base,
                                    double sample_rate) {
  RdsDecodeResult result;
  if (base.empty()) return result;
  const double bit_period = sample_rate / kRdsBitRateHz;
  if (static_cast<double>(base.size()) < 8.0 * bit_period) return result;

  // 2) Phase estimate: 0.5 arg E[z^2].
  std::complex<double> acc{0.0, 0.0};
  for (const auto& v : base) {
    const std::complex<double> d(v.real(), v.imag());
    acc += d * d;
  }
  const double phi = 0.5 * std::arg(acc);
  const dsp::cfloat derot(static_cast<float>(std::cos(-phi)),
                          static_cast<float>(std::sin(-phi)));
  dsp::rvec w(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) w[i] = (base[i] * derot).real();

  // 3) Symbol timing: search bit-phase offsets, maximize the *mean* |soft
  // bit| where soft = integral(first half) - integral(second half). Each
  // phase integrates every bit whose full period fits the capture, so a
  // phase with a larger tau may fit one bit fewer — the metric must be the
  // per-bit mean, because a raw sum would structurally penalize later
  // phases and bias the sync toward phase 0.
  const auto num_bits_max =
      static_cast<std::size_t>(static_cast<double>(w.size()) / bit_period) - 2;
  if (num_bits_max < 4) return result;
  constexpr int kPhases = 16;
  double best_metric = -1.0;
  std::vector<float> best_soft;
  std::vector<float> soft;
  for (int p = 0; p < kPhases; ++p) {
    const double tau = bit_period * static_cast<double>(p) / kPhases;
    soft.clear();
    soft.reserve(num_bits_max + 2);
    double sum = 0.0;
    for (std::size_t b = 0;; ++b) {
      const double t0 = tau + static_cast<double>(b) * bit_period;
      const auto i0 = static_cast<std::size_t>(t0);
      const auto i1 = static_cast<std::size_t>(t0 + bit_period / 2.0);
      const auto i2 = static_cast<std::size_t>(t0 + bit_period);
      if (i2 > w.size()) break;
      double first = 0.0, second = 0.0;
      for (std::size_t i = i0; i < i1; ++i) first += w[i];
      for (std::size_t i = i1; i < i2; ++i) second += w[i];
      const double s = first - second;
      soft.push_back(static_cast<float>(s));
      sum += std::abs(s);
    }
    if (soft.empty()) continue;
    const double metric = sum / static_cast<double>(soft.size());
    if (metric > best_metric) {
      best_metric = metric;
      best_soft = soft;
    }
  }

  // 4) Differential decode (removes BPSK polarity ambiguity as well).
  std::vector<unsigned char> bits(best_soft.size());
  unsigned char prev = 0;
  for (std::size_t i = 0; i < best_soft.size(); ++i) {
    const unsigned char d = best_soft[i] > 0.0F ? 1 : 0;
    bits[i] = static_cast<unsigned char>(d ^ prev);
    prev = d;
  }
  result.bits_decoded = bits.size();

  // 5) Block sync + error accounting. Acquisition scans for the first bit
  // alignment where four consecutive 26-bit windows carry offsets A, B, C
  // (or C'), D with zero syndrome; from that anchor the decoder strides
  // group by group (the simulation shares one bit clock, so sync cannot
  // drift) and checks every block against its expected offset word. Only
  // these post-sync blocks are tallied — a misaligned scan offset probed
  // during acquisition is not a "failed block" (the historical accounting
  // charged all ~104 of them per group found, so a perfectly clean signal
  // reported hundreds of failures).
  auto read_block = [&bits](std::size_t start) {
    std::uint32_t v = 0;
    for (int i = 0; i < kBlockBits; ++i) {
      v = (v << 1) | bits[start + static_cast<std::size_t>(i)];
    }
    return v;
  };
  const std::array<std::uint16_t, 4> want{
      static_cast<std::uint16_t>(RdsOffset::kA),
      static_cast<std::uint16_t>(RdsOffset::kB),
      static_cast<std::uint16_t>(RdsOffset::kC),
      static_cast<std::uint16_t>(RdsOffset::kD)};
  auto check_block = [&](std::size_t group_start, std::size_t b,
                         std::uint16_t* info) {
    const std::uint32_t raw = read_block(group_start + b * kBlockBits);
    const std::uint16_t syn = syndrome(raw);
    const bool ok =
        syn == want[b] ||
        (b == 2 && syn == static_cast<std::uint16_t>(RdsOffset::kCPrime));
    if (ok && info != nullptr) *info = static_cast<std::uint16_t>(raw >> 10);
    return ok;
  };

  std::size_t sync = bits.size();
  if (bits.size() >= 4 * kBlockBits) {
    for (std::size_t start = 0; start + 4 * kBlockBits <= bits.size();
         ++start) {
      bool ok = true;
      for (std::size_t b = 0; b < 4 && ok; ++b) {
        ok = check_block(start, b, nullptr);
      }
      if (ok) {
        sync = start;
        break;
      }
    }
  }

  std::string ps(8, ' ');
  std::string rt(64, ' ');
  bool got_ps = false;
  bool got_rt = false;
  std::size_t rt_max_end = 0;
  if (sync < bits.size()) {
    result.synced = true;
    for (std::size_t start = sync; start + 4 * kBlockBits <= bits.size();
         start += 4 * kBlockBits) {
      RdsGroup group;
      bool all_ok = true;
      for (std::size_t b = 0; b < 4; ++b) {
        if (check_block(start, b, &group.blocks[b])) {
          ++result.blocks_ok;
        } else {
          ++result.blocks_failed;
          all_ok = false;
        }
      }
      if (!all_ok) continue;
      result.groups.push_back(group);
      const std::uint16_t b1 = group.blocks[1];
      if ((b1 >> 12) == 0x0) {
        // Group 0A/0B PS segments: two characters per group.
        const std::uint16_t seg = b1 & 0x3;
        ps[seg * 2] = static_cast<char>(group.blocks[3] >> 8);
        ps[seg * 2 + 1] = static_cast<char>(group.blocks[3] & 0xFF);
        got_ps = true;
      } else if ((b1 >> 12) == 0x2) {
        // Group 2A RadioText: four characters per group.
        const std::uint16_t seg = b1 & 0xF;
        rt[seg * 4] = static_cast<char>(group.blocks[2] >> 8);
        rt[seg * 4 + 1] = static_cast<char>(group.blocks[2] & 0xFF);
        rt[seg * 4 + 2] = static_cast<char>(group.blocks[3] >> 8);
        rt[seg * 4 + 3] = static_cast<char>(group.blocks[3] & 0xFF);
        rt_max_end = std::max<std::size_t>(rt_max_end, (seg + 1) * 4);
        got_rt = true;
      }
    }
  }
  if (got_ps) result.ps_name = ps;
  if (got_rt) {
    rt.resize(rt_max_end);
    // Trim at the carriage-return terminator and trailing padding.
    const auto cr = rt.find('\r');
    if (cr != std::string::npos) rt.resize(cr);
    while (!rt.empty() && rt.back() == ' ') rt.pop_back();
    result.radiotext = rt;
  }
  return result;
}

}  // namespace fmbs::fm
