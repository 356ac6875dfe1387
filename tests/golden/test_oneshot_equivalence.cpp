// Stream decoders vs their one-shot references, over the six golden scenes.
// Both engines decode through the scene pipeline's block-fed chains
// (rx::StreamingBurstDemodulator, rx::RdsStreamDecoder,
// fm::StereoStreamDecoder), so comparing the engines with each other cannot
// catch a stream decoder drifting from the one-shot decoder it replaces.
// This suite re-decodes every link from ScenarioEngine's kept capture with
// the one-shot references — rx::demodulate_burst on the device-chain mono,
// rx::decode_rds_link and fm::decode_stereo on the post-demod MPX — and
// demands the exact same result.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "core/scene_pipeline.h"
#include "fm/stereo_decoder.h"
#include "golden_scenarios.h"
#include "rx/multitag.h"
#include "rx/rds_path.h"
#include "tag/fsk.h"

namespace fmbs::golden {
namespace {

void expect_same_rds(const rx::RdsLinkReport& stream,
                     const rx::RdsLinkReport& oneshot,
                     const std::string& where) {
  EXPECT_EQ(stream.synced, oneshot.synced) << where;
  EXPECT_EQ(stream.blocks_ok, oneshot.blocks_ok) << where;
  EXPECT_EQ(stream.blocks_failed, oneshot.blocks_failed) << where;
  EXPECT_EQ(stream.bler, oneshot.bler) << where;
  EXPECT_EQ(stream.ps_name, oneshot.ps_name) << where;
  EXPECT_EQ(stream.radiotext, oneshot.radiotext) << where;
}

void expect_oneshot_equivalent(const core::Scenario& sc) {
  SCOPED_TRACE(sc.name);
  const core::ScenarioPlan plan = core::resolve_scenario_plan(sc);
  const core::ScenarioResult result =
      core::ScenarioEngine({.keep_captures = true}).run(sc);
  ASSERT_EQ(result.receivers.size(), sc.receivers.size());
  std::size_t links = 0;
  for (std::size_t r = 0; r < sc.receivers.size(); ++r) {
    const core::ScenarioReceiverResult& rr = result.receivers[r];
    const core::ReceiverCapture& capture = rr.capture;
    ASSERT_FALSE(capture.fm.mpx.empty()) << "receiver " << r;

    fm::StereoDecoderConfig sdc = sc.receivers[r].stereo_decoder;
    sdc.mpx_rate = fm::kMpxRate;
    const fm::StereoDecodeResult stereo =
        fm::decode_stereo(capture.fm.mpx, sdc);
    EXPECT_EQ(capture.fm.audio.left, stereo.audio.left) << "receiver " << r;
    EXPECT_EQ(capture.fm.audio.right, stereo.audio.right) << "receiver " << r;
    EXPECT_EQ(capture.fm.audio.sample_rate, stereo.audio.sample_rate);
    EXPECT_EQ(capture.fm.stereo_mode, stereo.pilot_detected);
    EXPECT_EQ(capture.fm.pilot_snr_db, stereo.pilot_snr_db);

    if (rr.station_rds) {
      expect_same_rds(*rr.station_rds,
                      rx::decode_rds_link(capture.fm.mpx, fm::kMpxRate),
                      "station RDS @ receiver " + std::to_string(r));
    }

    for (const core::TagLinkReport& link : rr.links) {
      const std::size_t t = link.tag_index;
      const core::ScenarioTagPlan& tp = plan.tags[t];
      const std::string where = "tag " + std::to_string(t) +
                                " @ receiver " + std::to_string(r);
      ++links;
      if (link.rds) {
        expect_same_rds(
            *link.rds,
            rx::decode_rds_link(
                capture.fm.mpx, fm::kMpxRate, tp.start_seconds,
                tp.burst_seconds + core::kRdsDecodeSlackSeconds),
            where);
        continue;
      }
      rx::BurstSpec burst;
      burst.rate = sc.tags[t].rate;
      burst.bits = tag::random_bits(sc.tags[t].num_bits, tp.content_seed);
      burst.start_seconds = tp.start_seconds;
      burst.packet_bits = sc.tags[t].packet_bits;
      const rx::BurstReport oneshot =
          rx::demodulate_burst(capture.mono, burst);
      EXPECT_EQ(link.burst.ber.bit_errors, oneshot.ber.bit_errors) << where;
      EXPECT_EQ(link.burst.ber.bits_compared, oneshot.ber.bits_compared)
          << where;
      EXPECT_EQ(link.burst.ber.ber, oneshot.ber.ber) << where;
      EXPECT_EQ(link.burst.packets, oneshot.packets) << where;
      EXPECT_EQ(link.burst.packets_ok, oneshot.packets_ok) << where;
      EXPECT_EQ(link.burst.bits_delivered, oneshot.bits_delivered) << where;
      EXPECT_EQ(link.burst.per, oneshot.per) << where;
      EXPECT_EQ(link.burst.mean_confidence, oneshot.mean_confidence) << where;
    }
  }
  EXPECT_GT(links, 0U) << "a golden scene with no decoded link checks nothing";
}

TEST(OneShotEquivalence, SoloPoster) {
  expect_oneshot_equivalent(solo_poster());
}
TEST(OneShotEquivalence, CityDisjoint) {
  expect_oneshot_equivalent(city_disjoint());
}
TEST(OneShotEquivalence, AlohaBurst) {
  expect_oneshot_equivalent(aloha_burst());
}
TEST(OneShotEquivalence, TwoStationCity) {
  expect_oneshot_equivalent(two_station_city());
}
TEST(OneShotEquivalence, MobileHandoff) {
  expect_oneshot_equivalent(mobile_handoff());
}
TEST(OneShotEquivalence, RdsCity) { expect_oneshot_equivalent(rds_city()); }

}  // namespace
}  // namespace fmbs::golden
