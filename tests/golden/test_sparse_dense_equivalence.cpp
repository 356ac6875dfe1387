// Sparse-vs-dense equivalence over the six golden scenarios: demand-driven
// rendering (SceneRendering::kSparse, the default) must reproduce the
// exhaustive engine's decoded outcomes *exactly* — station selection and
// handoffs, MAC schedules, every link's bit errors, PER, RDS text and
// goodput. What the sparse engine drops sits >70 dB down in every receiver's
// tuner stopband, below every modeled noise floor, so the decoded-outcome
// comparison is EXPECT_EQ, not EXPECT_NEAR: a single flipped bit anywhere
// means the pruning rule reached into the audible scene and is a bug.
#include <gtest/gtest.h>

#include <cstddef>

#include "golden_scenarios.h"

namespace fmbs::golden {
namespace {

void expect_same_link(const core::TagLinkReport& sparse,
                      const core::TagLinkReport& dense,
                      const std::string& where) {
  EXPECT_EQ(sparse.tag_index, dense.tag_index) << where;
  EXPECT_EQ(sparse.receiver_index, dense.receiver_index) << where;
  EXPECT_EQ(sparse.burst.ber.bit_errors, dense.burst.ber.bit_errors) << where;
  EXPECT_EQ(sparse.burst.ber.bits_compared, dense.burst.ber.bits_compared)
      << where;
  EXPECT_EQ(sparse.burst.ber.ber, dense.burst.ber.ber) << where;
  EXPECT_EQ(sparse.burst.packets, dense.burst.packets) << where;
  EXPECT_EQ(sparse.burst.packets_ok, dense.burst.packets_ok) << where;
  EXPECT_EQ(sparse.burst.bits_delivered, dense.burst.bits_delivered) << where;
  EXPECT_EQ(sparse.burst.per, dense.burst.per) << where;
  EXPECT_EQ(sparse.goodput_bps, dense.goodput_bps) << where;
  ASSERT_EQ(sparse.rds.has_value(), dense.rds.has_value()) << where;
  if (sparse.rds.has_value()) {
    EXPECT_EQ(sparse.rds->synced, dense.rds->synced) << where;
    EXPECT_EQ(sparse.rds->blocks_ok, dense.rds->blocks_ok) << where;
    EXPECT_EQ(sparse.rds->blocks_failed, dense.rds->blocks_failed) << where;
    EXPECT_EQ(sparse.rds->bler, dense.rds->bler) << where;
    EXPECT_EQ(sparse.rds->ps_name, dense.rds->ps_name) << where;
    EXPECT_EQ(sparse.rds->radiotext, dense.rds->radiotext) << where;
  }
}

void expect_equivalent(const core::Scenario& sc) {
  SCOPED_TRACE(sc.name);
  const core::ScenarioResult sparse =
      core::ScenarioEngine(
          {.keep_captures = false,
           .scene_rendering = core::SceneRendering::kSparse})
          .run(sc);
  const core::ScenarioResult dense =
      core::ScenarioEngine(
          {.keep_captures = false,
           .scene_rendering = core::SceneRendering::kDense})
          .run(sc);

  // The dense engine renders everything; sparse never renders *more*.
  EXPECT_EQ(dense.scene.stations_rendered, dense.scene.stations_total);
  EXPECT_EQ(dense.scene.tags_rendered, dense.scene.tags_total);
  EXPECT_EQ(sparse.scene.stations_total, dense.scene.stations_total);
  EXPECT_EQ(sparse.scene.tags_total, dense.scene.tags_total);
  EXPECT_LE(sparse.scene.stations_rendered, dense.scene.stations_rendered);
  EXPECT_LE(sparse.scene.tags_rendered, dense.scene.tags_rendered);
  EXPECT_GE(sparse.scene.stations_rendered, 1U);  // station 0 always renders

  // Geometry and handoffs.
  ASSERT_EQ(sparse.segments.size(), dense.segments.size());
  for (std::size_t k = 0; k < sparse.segments.size(); ++k) {
    EXPECT_EQ(sparse.segments[k].start_seconds,
              dense.segments[k].start_seconds) << k;
    EXPECT_EQ(sparse.segments[k].end_seconds, dense.segments[k].end_seconds)
        << k;
    EXPECT_EQ(sparse.segments[k].selected_station,
              dense.segments[k].selected_station) << k;
  }

  // MAC outcomes (carrier sense listens to the rendered scene — pruning
  // must not change what a tag's sensor hears on its own channel).
  ASSERT_EQ(sparse.mac.size(), dense.mac.size());
  for (std::size_t t = 0; t < sparse.mac.size(); ++t) {
    EXPECT_EQ(sparse.mac[t].transmitted, dense.mac[t].transmitted) << t;
    EXPECT_EQ(sparse.mac[t].deferrals, dense.mac[t].deferrals) << t;
    EXPECT_EQ(sparse.mac[t].start_seconds, dense.mac[t].start_seconds) << t;
  }

  // Every decoded link, at every receiver.
  ASSERT_EQ(sparse.receivers.size(), dense.receivers.size());
  for (std::size_t r = 0; r < sparse.receivers.size(); ++r) {
    const auto& sr = sparse.receivers[r];
    const auto& dr = dense.receivers[r];
    ASSERT_EQ(sr.links.size(), dr.links.size()) << "receiver " << r;
    for (std::size_t l = 0; l < sr.links.size(); ++l) {
      expect_same_link(sr.links[l], dr.links[l],
                       "receiver " + std::to_string(r) + " link " +
                           std::to_string(l));
    }
    ASSERT_EQ(sr.station_rds.has_value(), dr.station_rds.has_value())
        << "receiver " << r;
    if (sr.station_rds.has_value()) {
      EXPECT_EQ(sr.station_rds->bler, dr.station_rds->bler) << r;
      EXPECT_EQ(sr.station_rds->ps_name, dr.station_rds->ps_name) << r;
    }
  }

  // Best-link selection and the headline aggregate.
  ASSERT_EQ(sparse.best_per_tag.size(), dense.best_per_tag.size());
  for (std::size_t i = 0; i < sparse.best_per_tag.size(); ++i) {
    expect_same_link(sparse.best_per_tag[i], dense.best_per_tag[i],
                     "best_per_tag " + std::to_string(i));
  }
  EXPECT_EQ(sparse.aggregate_goodput_bps, dense.aggregate_goodput_bps);
}

TEST(SparseDenseEquivalence, SoloPoster) { expect_equivalent(solo_poster()); }
TEST(SparseDenseEquivalence, CityDisjoint) {
  expect_equivalent(city_disjoint());
}
TEST(SparseDenseEquivalence, AlohaBurst) { expect_equivalent(aloha_burst()); }
TEST(SparseDenseEquivalence, TwoStationCity) {
  expect_equivalent(two_station_city());
}
TEST(SparseDenseEquivalence, MobileHandoff) {
  expect_equivalent(mobile_handoff());
}
TEST(SparseDenseEquivalence, RdsCity) { expect_equivalent(rds_city()); }

// A scene with genuinely out-of-neighborhood emitters: the poster's channel
// (and the only tune) is at +600 kHz, and two extra stations are parked at
// -800 kHz and -1 MHz — 1.4 and 1.6 MHz away from the tune, far outside the
// two-channel neighborhood — so the sparse engine must skip them. This is
// the case where the dense and sparse engines actually run different
// amounts of work, so the stats must show real pruning, not vacuous
// equality.
TEST(SparseDenseEquivalence, FarStationsArePruned) {
  core::Scenario sc = solo_poster();
  sc.name = "far_stations";
  core::ScenarioStation center;
  center.name = "center";
  center.config = sc.stations[0].config;
  center.offset = units::Hertz{0.0};
  center.power = units::Dbm{-28.0};
  core::ScenarioStation far_a;
  far_a.name = "far-a";
  far_a.config.program.genre = audio::ProgramGenre::kPop;
  far_a.config.program.stereo = false;
  far_a.config.seed = 91;
  far_a.offset = units::Hertz{-800e3};
  far_a.power = units::Dbm{-30.0};
  core::ScenarioStation far_b = far_a;
  far_b.name = "far-b";
  far_b.config.seed = 92;
  far_b.offset = units::Hertz{-1000e3};
  sc.stations = {center, far_a, far_b};
  // Pin the poster to the center station; add a second tag pinned to far-a
  // whose channel (-800k + 100k) no receiver tunes near.
  sc.tags[0].station_index = 0;
  core::ScenarioTag ghost = sc.tags[0];
  ghost.name = "ghost";
  ghost.station_index = 1;
  ghost.subcarrier.shift = units::Hertz{100e3};
  sc.tags.push_back(ghost);

  const core::ScenarioResult sparse =
      core::ScenarioEngine({.keep_captures = false}).run(sc);
  EXPECT_EQ(sparse.scene.stations_total, 3U);
  EXPECT_EQ(sparse.scene.stations_rendered, 1U);
  EXPECT_EQ(sparse.scene.tags_total, 2U);
  EXPECT_EQ(sparse.scene.tags_rendered, 1U);
  EXPECT_EQ(sparse.station_renders[1], nullptr);
  EXPECT_EQ(sparse.station_renders[2], nullptr);
  // The ghost's MAC outcome is still reported even though its waveform was
  // never composed.
  ASSERT_EQ(sparse.mac.size(), 2U);
  EXPECT_TRUE(sparse.mac[1].transmitted);

  // And the poster's decode matches the dense render of the same scene.
  const core::ScenarioResult dense =
      core::ScenarioEngine(
          {.keep_captures = false,
           .scene_rendering = core::SceneRendering::kDense})
          .run(sc);
  EXPECT_EQ(dense.scene.stations_rendered, 3U);
  ASSERT_FALSE(sparse.best_per_tag.empty());
  ASSERT_FALSE(dense.best_per_tag.empty());
  expect_same_link(sparse.best_per_tag[0], dense.best_per_tag[0], "poster");
}

}  // namespace
}  // namespace fmbs::golden
