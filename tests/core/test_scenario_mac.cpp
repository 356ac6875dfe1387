// The segmented timeline and the MAC layer through the full engine:
//  * a static scenario renders bit-identically with and without timeline
//    segmentation (geometry re-evaluation must be a no-op when nothing
//    moves),
//  * a walking tag hands off between stations mid-run (the segments record
//    the flip) and a burst spanning a segment boundary decodes seam-free,
//  * carrier-sense LBT defers around a neighbor's burst and beats pure
//    ALOHA's collision BER in a 2-tag contention scene,
//  * slotted ALOHA quantizes the burst start inside the engine,
//  * timeline/MAC misconfigurations are rejected loudly.
#include "core/scenario.h"

#include <gtest/gtest.h>

#include <cmath>

namespace fmbs::core {
namespace {

// ---- Waypoint geometry ------------------------------------------------------

TEST(ScenarioTimeline, PathPositionWalksTheWaypoints) {
  const ScenePosition anchor{0.0, 0.0};
  EXPECT_DOUBLE_EQ(path_position(anchor, {}, 0.7).x_m, 0.0);

  const std::vector<ScenePosition> one{{10.0, -4.0}};
  EXPECT_DOUBLE_EQ(path_position(anchor, one, 0.0).x_m, 0.0);
  EXPECT_DOUBLE_EQ(path_position(anchor, one, 0.5).x_m, 5.0);
  EXPECT_DOUBLE_EQ(path_position(anchor, one, 0.5).y_m, -2.0);
  EXPECT_DOUBLE_EQ(path_position(anchor, one, 1.0).x_m, 10.0);
  // Clamped outside [0, 1].
  EXPECT_DOUBLE_EQ(path_position(anchor, one, 1.7).x_m, 10.0);
  EXPECT_DOUBLE_EQ(path_position(anchor, one, -0.2).x_m, 0.0);

  // Two legs, equal time each: u = 0.5 is the first waypoint.
  const std::vector<ScenePosition> two{{10.0, 0.0}, {10.0, 20.0}};
  EXPECT_DOUBLE_EQ(path_position(anchor, two, 0.5).x_m, 10.0);
  EXPECT_DOUBLE_EQ(path_position(anchor, two, 0.5).y_m, 0.0);
  EXPECT_DOUBLE_EQ(path_position(anchor, two, 0.75).y_m, 10.0);
}

// ---- Segmentation is bit-identical when nothing moves -----------------------

Scenario static_two_station_scene() {
  Scenario sc;
  sc.name = "static-scene";
  sc.seed = 71;
  sc.duration = units::Seconds{0.3};
  ScenarioStation west;
  west.name = "west";
  west.config.program.genre = audio::ProgramGenre::kNews;
  west.config.program.stereo = false;
  west.config.seed = 71;
  west.power = units::Dbm{-28.0};
  west.position = ScenePosition{-60.0, 0.0};
  ScenarioStation east = west;
  east.name = "east";
  east.config.program.genre = audio::ProgramGenre::kPop;
  east.config.seed = 72;
  east.offset = units::Hertz{800e3};
  east.power = units::Dbm{-30.0};
  east.position = ScenePosition{60.0, 0.0};
  sc.stations = {west, east};

  ScenarioTag t;
  t.name = "tag";
  t.rate = tag::DataRate::k1600bps;
  t.num_bits = 96;
  t.position = {-10.0, 0.0};
  sc.tags.push_back(std::move(t));
  ScenarioReceiver rx = phone_listening_to(sc.tags[0].subcarrier);
  rx.position = {-10.0, 1.5};
  sc.receivers.push_back(std::move(rx));
  return sc;
}

TEST(ScenarioTimeline, SegmentingAStaticSceneIsBitIdentical) {
  const Scenario flat = static_two_station_scene();
  Scenario segmented = flat;
  segmented.timeline.segment = units::Seconds{0.1};

  const ScenarioEngine engine;
  const ScenarioResult a = engine.run(flat);
  const ScenarioResult b = engine.run(segmented);

  ASSERT_EQ(a.segments.size(), 1U);
  EXPECT_EQ(b.segments.size(), 4U);  // 0.38 s total -> 4 x 0.1 s segments
  for (const auto& seg : b.segments) {
    ASSERT_EQ(seg.selected_station.size(), 1U);
    EXPECT_EQ(seg.selected_station[0], a.segments[0].selected_station[0]);
  }
  const audio::MonoBuffer& ma = a.receivers[0].capture.mono;
  const audio::MonoBuffer& mb = b.receivers[0].capture.mono;
  ASSERT_EQ(ma.size(), mb.size());
  for (std::size_t i = 0; i < ma.size(); ++i) {
    ASSERT_EQ(ma.samples[i], mb.samples[i]) << "sample " << i;
  }
  ASSERT_EQ(a.best_per_tag.size(), 1U);
  ASSERT_EQ(b.best_per_tag.size(), 1U);
  EXPECT_EQ(a.best_per_tag[0].burst.ber.bit_errors,
            b.best_per_tag[0].burst.ber.bit_errors);
}

// ---- Mobility: handoff and seam-free bursts ---------------------------------

TEST(ScenarioTimeline, WalkingTagHandsOffBetweenStations) {
  Scenario sc = static_two_station_scene();
  sc.name = "walking";
  sc.duration = units::Seconds{0.4};  // 0.48 s total -> 5 segments
  sc.timeline.segment = units::Seconds{0.1};
  sc.tags[0].position = {-20.0, 0.0};
  sc.tags[0].waypoints = {{20.0, 0.0}};  // west side to east side
  sc.tags[0].distance_override = units::Feet{4.0};  // constant link, moving selection
  sc.tags[0].start = units::Seconds{0.0};           // burst while still west-side

  const ScenarioResult r = ScenarioEngine().run(sc);
  ASSERT_EQ(r.segments.size(), 5U);
  EXPECT_EQ(r.segments.front().selected_station[0], 0);  // starts west
  EXPECT_EQ(r.segments.back().selected_station[0], 1);   // ends east
  // Exactly one handoff along a monotone walk.
  int flips = 0;
  for (std::size_t k = 1; k < r.segments.size(); ++k) {
    if (r.segments[k].selected_station[0] !=
        r.segments[k - 1].selected_station[0]) {
      ++flips;
    }
  }
  EXPECT_EQ(flips, 1);
  // The early burst (while west-selected) still decodes on west's channel.
  ASSERT_EQ(r.best_per_tag.size(), 1U);
  EXPECT_EQ(r.best_per_tag[0].burst.ber.bit_errors, 0U);
}

TEST(ScenarioTimeline, BurstSpanningASegmentBoundaryDecodesSeamFree) {
  // One far-field station, geometric link (no distance override): the
  // tag walks away from the phone, so g_back really changes at every
  // segment boundary while one burst straddles two of them.
  Scenario sc;
  sc.name = "seam";
  ScenarioStation station;
  station.config.program.genre = audio::ProgramGenre::kNews;
  station.config.program.stereo = false;
  station.config.seed = 81;
  station.power = units::Dbm{-25.0};
  sc.stations = {station};
  sc.seed = 81;
  sc.duration = units::Seconds{0.4};
  sc.timeline.segment = units::Seconds{0.1};
  ScenarioTag t;
  t.name = "walker";
  t.rate = tag::DataRate::k1600bps;
  t.num_bits = 128;  // 80 ms: starts in one segment, ends in the next
  t.position = {0.0, 0.0};
  t.waypoints = {{1.5, 0.0}};
  t.start = units::Seconds{0.05};  // absolute 0.13 -> payload spans the 0.2 s boundary
  sc.tags.push_back(std::move(t));
  ScenarioReceiver rx = phone_listening_to(sc.tags[0].subcarrier);
  rx.position = {0.6, 0.9};
  sc.receivers.push_back(std::move(rx));

  const ScenarioResult r = ScenarioEngine({.keep_captures = false}).run(sc);
  ASSERT_EQ(r.best_per_tag.size(), 1U);
  EXPECT_EQ(r.best_per_tag[0].burst.ber.bit_errors, 0U)
      << "a geometry switch at a segment boundary must not corrupt a burst";
}

// ---- Carrier sense beats pure ALOHA on a contended channel ------------------

Scenario contention_scene(tag::MacKind second_tag_mac) {
  Scenario sc;
  sc.name = "contention";
  ScenarioStation station;
  station.config.program.genre = audio::ProgramGenre::kSilence;
  station.config.program.stereo = false;
  station.config.seed = 41;
  station.power = units::Dbm{-25.0};
  sc.stations = {station};
  sc.seed = 41;
  sc.duration = units::Seconds{0.45};
  sc.timeline.segment = units::Seconds{0.1};
  const double starts[2] = {0.0, 0.03};  // overlapping nominal bursts
  for (int i = 0; i < 2; ++i) {
    ScenarioTag t;
    // assign(1, ch) rather than `= i == 0 ? "a" : "b"`: GCC 12 at -O2 emits
    // a bogus -Wrestrict through the inlined literal operator= (PR 105329).
    t.name.assign(1, i == 0 ? 'a' : 'b');
    t.rate = tag::DataRate::k1600bps;
    t.num_bits = 128;  // 80 ms on the air
    t.distance_override = units::Feet{3.0};
    t.position = {static_cast<double>(i), 0.0};  // 1 m apart: B hears A
    t.start = units::Seconds{starts[i]};
    if (i == 1) t.mac.kind = second_tag_mac;
    sc.tags.push_back(std::move(t));
  }
  sc.receivers.push_back(phone_listening_to(sc.tags[0].subcarrier));
  return sc;
}

TEST(ScenarioMac, CarrierSenseAvoidsTheCollisionPureAlohaSuffers) {
  const ScenarioEngine engine({.keep_captures = false});

  const ScenarioResult aloha = engine.run(contention_scene(tag::MacKind::kPureAloha));
  ASSERT_EQ(aloha.best_per_tag.size(), 2U);
  for (const auto& link : aloha.best_per_tag) {
    EXPECT_GT(link.burst.ber.ber, 0.08)
        << "equal-power overlap should corrupt tag " << link.tag_index;
  }
  EXPECT_EQ(aloha.mac[1].deferrals, 0U);

  const ScenarioResult lbt =
      engine.run(contention_scene(tag::MacKind::kCarrierSense));
  ASSERT_EQ(lbt.best_per_tag.size(), 2U);
  // B sensed A's burst across two segments and deferred clear of it.
  EXPECT_TRUE(lbt.mac[1].transmitted);
  EXPECT_EQ(lbt.mac[1].deferrals, 2U);
  EXPECT_DOUBLE_EQ(lbt.mac[1].start_seconds, 0.3);
  for (const auto& link : lbt.best_per_tag) {
    EXPECT_EQ(link.burst.ber.bit_errors, 0U)
        << "LBT should clear the channel for tag " << link.tag_index;
  }
  EXPECT_GT(lbt.aggregate_goodput_bps, aloha.aggregate_goodput_bps);
}

TEST(ScenarioMac, SlottedAlohaQuantizesTheStartInsideTheEngine) {
  Scenario sc;
  sc.name = "slotted";
  ScenarioStation station;
  station.config.program.genre = audio::ProgramGenre::kSilence;
  station.config.program.stereo = false;
  station.config.seed = 43;
  station.power = units::Dbm{-25.0};
  sc.stations = {station};
  sc.seed = 43;
  sc.duration = units::Seconds{0.4};
  ScenarioTag t;
  t.name = "s";
  t.rate = tag::DataRate::k1600bps;
  t.num_bits = 96;
  t.distance_override = units::Feet{3.0};
  t.start = units::Seconds{0.0};  // nominal absolute start 0.08 (the settle window)
  t.mac.kind = tag::MacKind::kSlottedAloha;
  t.mac.slot = units::Seconds{0.15};
  sc.tags.push_back(std::move(t));
  sc.receivers.push_back(phone_listening_to(sc.tags[0].subcarrier));

  const ScenarioResult r = ScenarioEngine({.keep_captures = false}).run(sc);
  // Slot grid is absolute (settle included): 0.08 quantizes up to 0.15.
  ASSERT_EQ(r.mac.size(), 1U);
  EXPECT_DOUBLE_EQ(r.mac[0].start_seconds, 0.15);
  ASSERT_EQ(r.best_per_tag.size(), 1U);
  EXPECT_EQ(r.best_per_tag[0].burst.ber.bit_errors, 0U)
      << "the demodulator must follow the slotted start";
}

TEST(ScenarioMac, CarrierSenseGivesUpWhenTheWindowCloses) {
  // A hogs the channel with one long burst; B carrier-senses and runs out
  // of scenario before the channel clears — silent, reported, no throw.
  Scenario sc = contention_scene(tag::MacKind::kCarrierSense);
  sc.tags[0].num_bits = 512;  // 320 ms: busy until t = 0.41 of 0.53 total
  const ScenarioResult r = ScenarioEngine({.keep_captures = false}).run(sc);
  EXPECT_FALSE(r.mac[1].transmitted);
  EXPECT_GT(r.mac[1].deferrals, 0U);
  // The silent tag produces no link report; A decodes clean.
  ASSERT_EQ(r.best_per_tag.size(), 1U);
  EXPECT_EQ(r.best_per_tag[0].tag_index, 0U);
  EXPECT_EQ(r.best_per_tag[0].burst.ber.bit_errors, 0U);
}

// ---- Validation -------------------------------------------------------------

TEST(ScenarioTimeline, RejectsBadSegmentLengthsAndTimelessCarrierSense) {
  const ScenarioEngine engine;
  Scenario sc = contention_scene(tag::MacKind::kPureAloha);

  sc.timeline.segment = units::Seconds{0.05};  // below the 0.1 s streaming block
  EXPECT_THROW(engine.run(sc), std::invalid_argument);
  sc.timeline.segment = units::Seconds{0.15};  // not a block multiple
  EXPECT_THROW(engine.run(sc), std::invalid_argument);
  sc.timeline.segment = units::Seconds{-0.1};
  EXPECT_THROW(engine.run(sc), std::invalid_argument);

  // Carrier sense with no timeline cannot listen to anything.
  Scenario cs = contention_scene(tag::MacKind::kCarrierSense);
  cs.timeline.segment = units::Seconds{0.0};
  EXPECT_THROW(engine.run(cs), std::invalid_argument);
}

}  // namespace
}  // namespace fmbs::core
