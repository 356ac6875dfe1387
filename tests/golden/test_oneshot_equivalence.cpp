// Stream decoders vs the frozen one-shot references, over the six golden
// scenes. Both engines decode through the scene pipeline's block-fed chains
// (rx::StreamingBurstDemodulator, rx::RdsStreamDecoder,
// fm::StereoStreamDecoder, rx::PhoneChainStream, rx::CabinAcousticsStream),
// and the library's one-shot entry points are wrappers over the same
// classes, so neither the engines nor the wrappers can catch a stream class
// drifting. This suite re-runs every receive stage over ScenarioEngine's
// kept capture with the whole-buffer bodies frozen in
// tests/reference/oneshot_chains.h — decode_stereo and decode_rds_link on
// the post-demod MPX, the phone/cabin chain on the decoded audio,
// demodulate_burst on the device-chain mono — and demands the exact same
// result.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "core/scene_pipeline.h"
#include "fm/stereo_decoder.h"
#include "golden_scenarios.h"
#include "reference/oneshot_chains.h"
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
        reference::decode_stereo(capture.fm.mpx, sdc);
    EXPECT_EQ(capture.fm.audio.left, stereo.audio.left) << "receiver " << r;
    EXPECT_EQ(capture.fm.audio.right, stereo.audio.right) << "receiver " << r;
    EXPECT_EQ(capture.fm.audio.sample_rate, stereo.audio.sample_rate);
    EXPECT_EQ(capture.fm.stereo_mode, stereo.pilot_detected);
    EXPECT_EQ(capture.fm.pilot_snr_db, stereo.pilot_snr_db);

    // The kept device-chain audio: the mono is the stream the FSK
    // collectors decoded, the stereo is recorded per channel (phone) or as
    // the cabin microphone's one mono mix (car).
    const core::ScenarioReceiver& receiver = sc.receivers[r];
    const audio::MonoBuffer heard = capture.fm.mono();
    const audio::MonoBuffer mono =
        receiver.kind == core::ReceiverKind::kCar
            ? reference::apply_cabin_acoustics(heard, receiver.cabin)
            : reference::apply_phone_chain(heard, receiver.phone);
    EXPECT_EQ(capture.mono.samples, mono.samples) << "receiver " << r;
    EXPECT_EQ(capture.mono.sample_rate, mono.sample_rate);
    const audio::StereoBuffer stereo_audio =
        receiver.kind == core::ReceiverKind::kCar
            ? audio::StereoBuffer::dual_mono(mono)
            : reference::apply_phone_chain(capture.fm.audio, receiver.phone);
    EXPECT_EQ(capture.stereo.left, stereo_audio.left) << "receiver " << r;
    EXPECT_EQ(capture.stereo.right, stereo_audio.right) << "receiver " << r;

    if (rr.station_rds) {
      expect_same_rds(*rr.station_rds,
                      reference::decode_rds_link(capture.fm.mpx, fm::kMpxRate),
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
            reference::decode_rds_link(
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
          reference::demodulate_burst(capture.mono, burst);
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
