// The six golden-trace scenarios, shared between the trace-diff harness
// (test_golden_traces.cpp) and the sparse-vs-dense equivalence suite
// (test_sparse_dense_equivalence.cpp): the exact deployments whose decoded
// outcomes are committed under tests/golden/traces/ are also the deployments
// demand-driven rendering must reproduce bit-for-bit.
#pragma once

#include <cstddef>
#include <string>
#include <utility>

#include "core/scenario.h"
#include "tag/channel_plan.h"

namespace fmbs::golden {

/// One poster tag, one phone: the paper's basic deployment, clean link.
inline core::Scenario solo_poster() {
  core::Scenario sc;
  sc.name = "solo_poster";
  core::ScenarioStation station;
  station.config.program.genre = audio::ProgramGenre::kNews;
  station.config.program.stereo = false;
  station.config.seed = 21;
  station.power = units::Dbm{-25.0};
  sc.stations = {station};
  sc.seed = 21;
  sc.duration = units::Seconds{0.25};
  core::ScenarioTag t;
  t.name = "poster";
  t.rate = tag::DataRate::k1600bps;
  t.num_bits = 320;
  t.packet_bits = 80;
  t.distance_override = units::Feet{4.0};
  sc.tags.push_back(std::move(t));
  sc.receivers.push_back(core::phone_listening_to(sc.tags[0].subcarrier));
  return sc;
}

/// Four tags on four planned disjoint channels; a phone and a car listen to
/// two of them (the others transmit as pure adjacent-channel neighbors).
inline core::Scenario city_disjoint() {
  core::Scenario sc;
  sc.name = "city_disjoint";
  core::ScenarioStation station;
  station.config.program.genre = audio::ProgramGenre::kNews;
  station.config.program.stereo = false;
  station.config.seed = 23;
  station.power = units::Dbm{-32.0};
  sc.stations = {station};
  sc.seed = 23;
  sc.duration = units::Seconds{0.2};
  const auto plan = tag::plan_subcarrier_channels(4);
  for (std::size_t i = 0; i < 4; ++i) {
    core::ScenarioTag t;
    t.name = "sign" + std::to_string(i);
    t.subcarrier = plan[i].subcarrier;
    t.rate = tag::DataRate::k1600bps;
    t.num_bits = 128;
    t.packet_bits = 64;
    t.distance_override = units::Feet{5.0};
    sc.tags.push_back(std::move(t));
  }
  sc.receivers.push_back(core::phone_listening_to(plan[0].subcarrier));
  sc.receivers.push_back(core::car_listening_to(plan[1].subcarrier));
  return sc;
}

/// Three tags sharing one channel: two overlap (physical collision), one is
/// staggered clear — the ALOHA story in a single deterministic trace.
inline core::Scenario aloha_burst() {
  core::Scenario sc;
  sc.name = "aloha_burst";
  core::ScenarioStation station;
  station.config.program.genre = audio::ProgramGenre::kSilence;
  station.config.program.stereo = false;
  station.config.seed = 31;
  station.power = units::Dbm{-25.0};
  sc.stations = {station};
  sc.seed = 31;
  sc.duration = units::Seconds{0.3};
  const double starts[3] = {0.0, 0.02, 0.18};
  for (int i = 0; i < 3; ++i) {
    core::ScenarioTag t;
    t.name = "node" + std::to_string(i);
    t.rate = tag::DataRate::k1600bps;
    t.num_bits = 96;
    t.distance_override = units::Feet{3.0};
    t.start = units::Seconds{starts[i]};
    sc.tags.push_back(std::move(t));
  }
  sc.receivers.push_back(core::phone_listening_to(sc.tags[0].subcarrier));
  return sc;
}

/// Two stations, two tags (paper sections 2/6: posters backscatter whichever
/// ambient signal is strongest): a west and an east station at opposite ends
/// of the scene, each geometrically captured by the tag nearest it; two
/// phones decode the two resulting backscatter channels out of one shared
/// spectrum.
inline core::Scenario two_station_city() {
  core::Scenario sc;
  sc.name = "two_station_city";
  sc.seed = 37;
  sc.duration = units::Seconds{0.25};

  core::ScenarioStation west;
  west.name = "west-news";
  west.config.program.genre = audio::ProgramGenre::kNews;
  west.config.program.stereo = false;
  west.config.seed = 37;
  west.offset = units::Hertz{0.0};
  west.power = units::Dbm{-28.0};
  west.position = core::ScenePosition{-60.0, 0.0};
  core::ScenarioStation east;
  east.name = "east-pop";
  east.config.program.genre = audio::ProgramGenre::kPop;
  east.config.program.stereo = false;
  east.config.seed = 38;
  east.offset = units::Hertz{800e3};
  east.power = units::Dbm{-30.0};
  east.position = core::ScenePosition{60.0, 0.0};
  sc.stations = {west, east};

  core::ScenarioTag poster_w;
  poster_w.name = "west-poster";
  poster_w.subcarrier.shift = units::Hertz{600e3};  // west channel: 0 + 600 kHz
  poster_w.rate = tag::DataRate::k1600bps;
  poster_w.num_bits = 192;
  poster_w.packet_bits = 96;
  poster_w.position = {-10.0, 0.0};
  core::ScenarioTag poster_e;
  poster_e.name = "east-poster";
  poster_e.subcarrier.shift = units::Hertz{-600e3};  // east channel: 800 - 600 kHz
  poster_e.subcarrier.mode = tag::SubcarrierMode::kSingleSideband;
  poster_e.rate = tag::DataRate::k1600bps;
  poster_e.num_bits = 192;
  poster_e.packet_bits = 96;
  poster_e.position = {10.0, 0.0};
  sc.tags = {poster_w, poster_e};

  core::ScenarioReceiver phone_w = core::phone_listening_to(poster_w.subcarrier);
  phone_w.name = "phone-west";
  phone_w.position = {-10.0, 1.5};
  core::ScenarioReceiver phone_e;
  phone_e.name = "phone-east";
  phone_e.tune_offset = units::Hertz{east.offset.raw() + poster_e.subcarrier.shift.raw()};
  phone_e.position = {10.0, 1.5};
  sc.receivers = {phone_w, phone_e};
  return sc;
}

/// One tag walking between two stations on a segmented timeline (paper
/// section 8's mobility story): the tag starts west-side backscattering the
/// west station, crosses the midpoint mid-run, and the per-segment
/// selected_station record flips — the handoff this trace pins down. The
/// burst goes out early (while still west-selected) so the link also stays
/// decodable.
inline core::Scenario mobile_handoff() {
  core::Scenario sc;
  sc.name = "mobile_handoff";
  sc.seed = 53;
  sc.duration = units::Seconds{0.4};
  sc.timeline.segment = units::Seconds{0.1};  // 0.48 s total -> 5 segments

  core::ScenarioStation west;
  west.name = "west-news";
  west.config.program.genre = audio::ProgramGenre::kNews;
  west.config.program.stereo = false;
  west.config.seed = 53;
  west.offset = units::Hertz{0.0};
  west.power = units::Dbm{-28.0};
  west.position = core::ScenePosition{-60.0, 0.0};
  core::ScenarioStation east;
  east.name = "east-pop";
  east.config.program.genre = audio::ProgramGenre::kPop;
  east.config.program.stereo = false;
  east.config.seed = 54;
  east.offset = units::Hertz{800e3};
  east.power = units::Dbm{-30.0};
  east.position = core::ScenePosition{60.0, 0.0};
  sc.stations = {west, east};

  core::ScenarioTag walker;
  walker.name = "walker";
  walker.subcarrier.shift = units::Hertz{600e3};
  walker.rate = tag::DataRate::k1600bps;
  walker.num_bits = 128;
  walker.packet_bits = 64;
  walker.position = {-20.0, 0.0};
  walker.waypoints = {{20.0, 0.0}};  // west side to east side
  walker.distance_override = units::Feet{4.0};  // constant link, moving selection
  walker.start = units::Seconds{0.0};
  sc.tags = {walker};

  core::ScenarioReceiver phone =
      core::phone_listening_to(walker.subcarrier);
  phone.name = "phone";
  sc.receivers = {phone};
  return sc;
}

/// The RDS data plane in one deterministic trace (paper sections 4.2 and 8):
/// a city station broadcasting its PS name on the 57 kHz subcarrier, a
/// poster pushing a RadioText ad over its backscatter channel, and an FSK
/// neighbor on a disjoint channel — the RDS tag's BLER rides the trace's
/// `ber` field, so a decoder or engine regression that degrades the data
/// plane moves a committed number.
inline core::Scenario rds_city() {
  core::Scenario sc;
  sc.name = "rds_city";
  sc.seed = 59;
  sc.duration = units::Seconds{0.3};
  core::ScenarioStation station;
  station.config.program.genre = audio::ProgramGenre::kNews;
  station.config.program.stereo = false;
  station.config.seed = 59;
  station.config.rds_level = 0.05;
  station.config.rds_ps_name = "GOLDENFM";
  station.power = units::Dbm{-25.0};
  sc.stations = {station};

  const auto plan = tag::plan_subcarrier_channels(2);
  core::ScenarioTag ad;
  ad.name = "ad-poster";
  ad.subcarrier = plan[0].subcarrier;
  ad.rds_radiotext = "RDS CITY";  // 3 groups, ~0.26 s burst
  ad.distance_override = units::Feet{4.0};
  core::ScenarioTag sign;
  sign.name = "fsk-sign";
  sign.subcarrier = plan[1].subcarrier;
  sign.rate = tag::DataRate::k1600bps;
  sign.num_bits = 128;
  sign.packet_bits = 64;
  sign.distance_override = units::Feet{5.0};
  sc.tags = {ad, sign};

  sc.receivers.push_back(core::phone_listening_to(plan[0].subcarrier));
  sc.receivers.push_back(core::phone_listening_to(plan[1].subcarrier));
  return sc;
}

}  // namespace fmbs::golden
