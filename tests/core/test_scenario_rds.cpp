// The RDS data plane through the scenario stack (paper §4.2, §8, Fig. 3):
// a tag's RadioText burst travels tag -> subcarrier switch -> shared RF
// scene -> receiver tuner -> FM demod -> 57 kHz decode, and a scene
// station's own RDS (PS name) is recovered by a receiver parked on its
// channel — both end-to-end through the real receiver chain, no shortcuts.
#include "core/scenario.h"

#include <gtest/gtest.h>

#include "fm/constants.h"
#include "tag/channel_plan.h"

namespace fmbs::core {
namespace {

Scenario radiotext_scenario(const std::string& text) {
  Scenario sc;
  sc.name = "rds-loopback";
  sc.seed = 71;
  ScenarioStation station;
  station.config.program.genre = audio::ProgramGenre::kSilence;
  station.config.program.stereo = false;
  station.config.seed = 71;
  station.power = units::Dbm{-25.0};
  sc.stations = {station};
  sc.duration = units::Seconds{0.35};

  ScenarioTag t;
  t.name = "ad-poster";
  t.rds_radiotext = text;
  t.distance_override = units::Feet{4.0};
  sc.tags.push_back(std::move(t));
  sc.receivers.push_back(phone_listening_to(sc.tags[0].subcarrier));
  return sc;
}

TEST(ScenarioRds, TagRadiotextLoopbackThroughPhoneChain) {
  const Scenario sc = radiotext_scenario("GIG TONIGHT");
  const ScenarioResult result = ScenarioEngine().run(sc);

  ASSERT_EQ(result.best_per_tag.size(), 1U);
  const TagLinkReport& link = result.best_per_tag[0];
  ASSERT_TRUE(link.rds.has_value());
  EXPECT_TRUE(link.rds->synced);
  EXPECT_EQ(link.rds->radiotext, "GIG TONIGHT");
  EXPECT_EQ(link.rds->blocks_failed, 0U);
  EXPECT_DOUBLE_EQ(link.rds->bler, 0.0);
  // Uniform reporting: BLER rides in burst.ber.ber, info bits in goodput.
  EXPECT_DOUBLE_EQ(link.burst.ber.ber, 0.0);
  EXPECT_GT(link.goodput_bps, 0.0);
  EXPECT_GT(result.aggregate_goodput_bps, 0.0);
}

TEST(ScenarioRds, StationPsRecoveredOnTunedChannel) {
  Scenario sc;
  sc.name = "rds-station";
  sc.seed = 73;
  ScenarioStation station;
  station.config.program.genre = audio::ProgramGenre::kNews;
  station.config.program.stereo = false;
  station.config.seed = 73;
  station.config.rds_level = 0.06;
  station.config.rds_ps_name = "CITYRADI";
  sc.stations = {station};
  sc.duration = units::Seconds{0.45};  // >= 4 PS groups plus sync slack

  ScenarioReceiver radio;
  radio.name = "radio";
  radio.tune_offset = units::Hertz{0.0};  // parked on the station carrier
  sc.receivers.push_back(std::move(radio));

  const ScenarioResult result = ScenarioEngine().run(sc);
  ASSERT_TRUE(result.receivers[0].station_rds.has_value());
  const rx::RdsLinkReport& rds = *result.receivers[0].station_rds;
  EXPECT_TRUE(rds.synced);
  EXPECT_EQ(rds.ps_name, "CITYRADI");
  EXPECT_EQ(rds.blocks_failed, 0U);
}

TEST(ScenarioRds, RdsBurstDefersUnderCarrierSense) {
  // The RDS burst is a MAC citizen like any FSK burst: a carrier-sensing
  // RadioText tag sharing a channel with an early FSK neighbor defers to a
  // segment boundary and still delivers its text.
  Scenario sc;
  sc.name = "rds-lbt";
  sc.seed = 79;
  ScenarioStation station;
  station.config.program.genre = audio::ProgramGenre::kSilence;
  station.config.program.stereo = false;
  station.config.seed = 79;
  station.power = units::Dbm{-25.0};
  sc.stations = {station};
  sc.duration = units::Seconds{0.6};
  sc.timeline.segment = units::Seconds{0.1};

  ScenarioTag neighbor;
  neighbor.name = "fsk-neighbor";
  neighbor.rate = tag::DataRate::k1600bps;
  neighbor.num_bits = 96;
  neighbor.distance_override = units::Feet{4.0};
  neighbor.start = units::Seconds{0.0};
  sc.tags.push_back(std::move(neighbor));

  ScenarioTag ad;
  ad.name = "ad-poster";
  ad.rds_radiotext = "GO!";  // 1 group, ~0.09 s burst
  ad.distance_override = units::Feet{4.0};
  ad.start = units::Seconds{0.0};
  ad.mac.kind = tag::MacKind::kCarrierSense;
  sc.tags.push_back(std::move(ad));

  sc.receivers.push_back(phone_listening_to(sc.tags[0].subcarrier));

  const ScenarioResult result = ScenarioEngine().run(sc);
  EXPECT_TRUE(result.mac[1].transmitted);
  EXPECT_GE(result.mac[1].deferrals, 1U);
  bool found = false;
  for (const TagLinkReport& link : result.best_per_tag) {
    if (link.tag_index != 1) continue;
    found = true;
    ASSERT_TRUE(link.rds.has_value());
    EXPECT_EQ(link.rds->radiotext, "GO!");
    EXPECT_DOUBLE_EQ(link.rds->bler, 0.0);
  }
  EXPECT_TRUE(found) << "no RDS link for the deferring tag";
}

TEST(ScenarioRds, RejectsConflictingPayloadModes) {
  Scenario sc = radiotext_scenario("X");
  sc.tags[0].custom_baseband = dsp::rvec(100, 0.0F);
  EXPECT_THROW(ScenarioEngine().run(sc), std::invalid_argument);

  Scenario bad_level = radiotext_scenario("X");
  bad_level.tags[0].rds_level = 1.5;
  EXPECT_THROW(ScenarioEngine().run(bad_level), std::invalid_argument);
}

}  // namespace
}  // namespace fmbs::core
