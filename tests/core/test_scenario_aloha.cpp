// PHY-vs-analytic ALOHA cross-check: the paper's section-8 MAC claim has so
// far been modeled only analytically (core/aloha.h Monte-Carlo). Here the
// same offered load is run through the signal-level ScenarioEngine — every
// attempt is a real burst, and collisions happen in the MPX spectrum — and
// the two models must agree:
//  * per attempt, the PHY outcome matches the ALOHA vulnerability rule
//    (overlap => lost, clear => delivered) except for sub-symbol grazes,
//  * aggregate success probability sits within Monte-Carlo tolerance of the
//    closed forms S = G e^{-2G} (pure) / G e^{-G} (slotted) and of
//    core::simulate_aloha at the same load.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "core/aloha.h"
#include "core/scenario.h"
#include "tag/mac.h"

namespace fmbs::core {
namespace {

// One attempt = 96 bits at 1.6 kbps = 60 ms on the air.
constexpr std::size_t kBitsPerFrame = 96;
constexpr double kFrameSeconds = 0.06;
/// The engine keeps the switch on kBurstGuardSeconds around the burst;
/// that carrier time interferes like payload time does.
constexpr double kGuardSeconds = kBurstGuardSeconds;
/// One FDM-4FSK symbol at 1.6 kbps; overlaps shorter than this may or may
/// not flip a bit, so such grazes are excluded from the exact comparison.
constexpr double kSymbolSeconds = 1.0 / 200.0;

struct PhyAloha {
  std::size_t attempts = 0;
  std::size_t successes = 0;
  std::size_t marginal = 0;   // grazing overlaps excluded from exact check
  double offered_load = 0.0;  // G: attempts per frame-time
  double success_probability = 0.0;
};

PhyAloha run_phy_aloha(bool slotted, double window_seconds,
                       std::size_t num_attempts, std::uint64_t seed) {
  // Attempt schedule. Poisson arrivals conditioned on their count are
  // uniform, so uniform starts reproduce the analytic model's statistics.
  std::mt19937_64 rng(seed);
  std::vector<double> starts(num_attempts);
  if (slotted) {
    const double pitch = kFrameSeconds + 2.0 * kGuardSeconds + 0.005;
    const auto slots =
        static_cast<std::size_t>((window_seconds - kFrameSeconds) / pitch);
    std::uniform_int_distribution<std::size_t> slot(0, slots - 1);
    for (auto& s : starts) s = static_cast<double>(slot(rng)) * pitch;
  } else {
    std::uniform_real_distribution<double> at(0.0,
                                              window_seconds - kFrameSeconds);
    for (auto& s : starts) s = at(rng);
  }

  // The shared-channel scenario: silence program isolates tag-vs-tag
  // interference (the paper's Fig. 6 methodology), one phone listening.
  Scenario sc;
  sc.name = slotted ? "aloha-slotted" : "aloha-pure";
  ScenarioStation station;
  station.config.program.genre = audio::ProgramGenre::kSilence;
  station.config.program.stereo = false;
  station.config.seed = seed;
  station.power = units::Dbm{-25.0};
  sc.stations = {station};
  sc.seed = seed;
  sc.duration = units::Seconds{window_seconds};
  for (std::size_t i = 0; i < num_attempts; ++i) {
    ScenarioTag t;
    t.name = "attempt" + std::to_string(i);
    t.rate = tag::DataRate::k1600bps;
    t.num_bits = kBitsPerFrame;
    t.distance_override = units::Feet{3.0};
    t.start = units::Seconds{starts[i]};
    sc.tags.push_back(std::move(t));
  }
  sc.receivers.push_back(
      phone_listening_to(sc.tags.empty() ? tag::SubcarrierConfig{}
                                         : sc.tags[0].subcarrier));

  const ScenarioResult result = ScenarioEngine({.keep_captures = false}).run(sc);
  EXPECT_EQ(result.best_per_tag.size(), num_attempts);

  // The analytic vulnerability rule, shared with the fleet engine's
  // contention classifier (tag::classify_vulnerability): the worst verdict
  // against any neighbor decides the burst.
  auto verdict_of = [&](std::size_t i) {
    const tag::BurstWindow mine{units::Seconds{starts[i]}, units::Seconds{kFrameSeconds},
                                units::Seconds{kGuardSeconds}};
    tag::Vulnerability worst = tag::Vulnerability::kClear;
    for (std::size_t j = 0; j < starts.size(); ++j) {
      if (j == i) continue;
      const tag::BurstWindow other{units::Seconds{starts[j]}, units::Seconds{kFrameSeconds},
                                   units::Seconds{kGuardSeconds}};
      worst = std::max(
          worst, tag::classify_vulnerability(mine, other, units::Seconds{kSymbolSeconds}));
    }
    return worst;
  };

  PhyAloha out;
  out.attempts = num_attempts;
  for (const TagLinkReport& link : result.best_per_tag) {
    const bool delivered = link.burst.packets_ok == link.burst.packets;
    if (delivered) ++out.successes;
    const tag::Vulnerability v = verdict_of(link.tag_index);
    if (v == tag::Vulnerability::kGraze) {
      ++out.marginal;  // grazing: either outcome is physical
      continue;
    }
    EXPECT_EQ(delivered, v == tag::Vulnerability::kClear)
        << "attempt " << link.tag_index << " start "
        << sc.tags[link.tag_index].start.raw() << " verdict "
        << tag::to_string(v)
        << ": PHY disagrees with the ALOHA vulnerability rule";
  }
  const double frames = window_seconds / kFrameSeconds;
  out.offered_load = static_cast<double>(num_attempts) / frames;
  out.success_probability =
      static_cast<double>(out.successes) / static_cast<double>(num_attempts);
  return out;
}

/// 3-sigma binomial Monte-Carlo band around p for n samples, plus the
/// marginal attempts whose outcome is legitimately either way.
double tolerance(double p, std::size_t n, std::size_t marginal) {
  return 3.0 * std::sqrt(p * (1.0 - p) / static_cast<double>(n)) +
         static_cast<double>(marginal) / static_cast<double>(n);
}

TEST(ScenarioAloha, PureAlohaLowLoadMatchesAnalytic) {
  const PhyAloha phy = run_phy_aloha(false, 1.8, 6, 2024);
  // G = 0.2: success prob e^{-2G} = 0.67.
  const double p = std::exp(-2.0 * phy.offered_load);
  EXPECT_NEAR(phy.success_probability, p,
              tolerance(p, phy.attempts, phy.marginal));
}

TEST(ScenarioAloha, PureAlohaMediumLoadMatchesAnalyticAndMonteCarlo) {
  const PhyAloha phy = run_phy_aloha(false, 1.8, 15, 77);
  const double p = std::exp(-2.0 * phy.offered_load);
  EXPECT_NEAR(phy.success_probability, p,
              tolerance(p, phy.attempts, phy.marginal));

  // Converged core::aloha Monte-Carlo at the same offered load: the two
  // simulations of one MAC must tell the same story.
  AlohaConfig mc;
  mc.num_tags = 15;
  mc.frame = units::Seconds{kFrameSeconds};
  mc.duration = units::Seconds{3600.0};
  mc.per_tag_rate = units::Hertz{phy.offered_load / (mc.frame.raw() *
                                           static_cast<double>(mc.num_tags))};
  const AlohaResult ref = simulate_aloha(mc);
  EXPECT_NEAR(phy.success_probability, ref.success_probability,
              tolerance(ref.success_probability, phy.attempts, phy.marginal));
}

TEST(ScenarioAloha, SlottedAlohaMatchesAnalytic) {
  const PhyAloha phy = run_phy_aloha(true, 1.7, 10, 9);
  // Slotted collisions are total overlaps: no marginal attempts at all.
  EXPECT_EQ(phy.marginal, 0U);
  const double p = std::exp(-phy.offered_load);
  // Slot pitch exceeds the frame time, so the effective per-slot load is
  // G_slot = attempts / num_slots; compare in slot units.
  const double pitch = kFrameSeconds + 2.0 * kGuardSeconds + 0.005;
  const auto slots = static_cast<std::size_t>((1.7 - kFrameSeconds) / pitch);
  const double g_slot =
      static_cast<double>(phy.attempts) / static_cast<double>(slots);
  const double p_slot = std::exp(-g_slot);
  (void)p;
  EXPECT_NEAR(phy.success_probability, p_slot,
              tolerance(p_slot, phy.attempts, 0));
}

}  // namespace
}  // namespace fmbs::core
