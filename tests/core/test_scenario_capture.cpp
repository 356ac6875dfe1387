// Capture-effect / near-far study (ROADMAP's named next step): two tags
// sharing one backscatter channel with very unequal link budgets. FM
// receivers demodulate the strongest in-channel carrier and suppress the
// weaker one (the capture effect) — so unlike an additive-noise channel,
// the collision is asymmetric: the strong tag's payload survives while the
// weak tag's collapses. The engine reproduces this physically because both
// reflections land in the same MPX spectrum before one shared FM demod.
#include "core/scenario.h"

#include <gtest/gtest.h>

#include <cmath>

namespace fmbs::core {
namespace {

/// Both tags see the station at `strong_dbm`; the far tag sits farther from
/// the phone by the free-space gap (20 log10 of the distance ratio) between
/// `strong_dbm` and `weak_dbm`, so its backscatter arrives as if its own
/// ambient power were `weak_dbm` at 3 ft.
Scenario near_far_scenario(double strong_dbm, double weak_dbm) {
  Scenario sc;
  sc.name = "near-far";
  // Overlay FSK over real program audio, as deployed tags run; over a
  // silent carrier the tone detector captures even at a ~1 dB gap, which
  // would make the near-equal control below vacuous.
  ScenarioStation station;
  station.config.program.genre = audio::ProgramGenre::kNews;
  station.config.program.stereo = false;
  station.config.seed = 71;
  station.power = units::Dbm{strong_dbm};
  sc.stations = {station};
  sc.seed = 71;
  sc.duration = units::Seconds{0.35};
  const double powers[2] = {strong_dbm, weak_dbm};
  for (int i = 0; i < 2; ++i) {
    ScenarioTag t;
    t.name = i == 0 ? "near" : "far";
    t.rate = tag::DataRate::k1600bps;  // robust solo at either power
    t.num_bits = 128;
    t.packet_bits = 64;
    t.distance_override =
        units::Feet{3.0 * std::pow(10.0, (strong_dbm - powers[i]) / 20.0)};
    t.start = units::Seconds{0.0};  // fully overlapping bursts, one channel
    sc.tags.push_back(std::move(t));
  }
  sc.receivers.push_back(phone_listening_to(sc.tags[0].subcarrier));
  return sc;
}

TEST(ScenarioCapture, StrongTagCapturesTheChannelWeakTagCollapses) {
  const ScenarioEngine engine({.keep_captures = false});
  const ScenarioResult r = engine.run(near_far_scenario(-18.0, -45.0));
  ASSERT_EQ(r.best_per_tag.size(), 2U);
  const TagLinkReport& strong = r.best_per_tag[0];
  const TagLinkReport& weak = r.best_per_tag[1];

  // The 27 dB power gap puts the receiver firmly in capture: the near tag
  // decodes as if it were alone...
  EXPECT_LT(strong.burst.ber.ber, 0.02) << "capture effect should protect the "
                                           "strong tag";
  EXPECT_EQ(strong.burst.packets_ok, strong.burst.packets);
  // ...while the far tag is suppressed outright, not merely degraded.
  EXPECT_GT(weak.burst.ber.ber, 0.2) << "weak same-channel tag should collapse";
  EXPECT_EQ(weak.burst.packets_ok, 0U);
  EXPECT_GT(strong.goodput_bps, 0.0);
  EXPECT_EQ(weak.goodput_bps, 0.0);
}

TEST(ScenarioCapture, EqualPowersDestroyBothTags) {
  // Control: at equal powers capture gives way to a mutual collision — the
  // scenario the ALOHA model assumes. (FM's capture ratio is famously small,
  // ~1 dB, so even a slightly unequal pair resolves toward the stronger
  // tag; only the symmetric case truly destroys both.)
  const ScenarioEngine engine({.keep_captures = false});
  const ScenarioResult r = engine.run(near_far_scenario(-20.0, -20.0));
  ASSERT_EQ(r.best_per_tag.size(), 2U);
  for (const TagLinkReport& link : r.best_per_tag) {
    EXPECT_GT(link.burst.ber.ber, 0.08) << link.tag_index;
    EXPECT_EQ(link.burst.packets_ok, 0U) << link.tag_index;
  }
}

}  // namespace
}  // namespace fmbs::core
