// Slow-lane RDS loopback sweep (paper §4.2, §8): one RadioText poster heard
// by the full phone receiver chain across a distance (i.e. SNR) sweep. At
// the near end the data plane is perfect — station PS name and tag
// RadioText both recovered, zero failed blocks — and the block error rate
// degrades monotonically to 1.0 (sync lost) as the link budget collapses,
// the RDS twin of the FSK BER-vs-distance story.
#include "core/scenario.h"

#include <gtest/gtest.h>

#include <vector>

#include "tag/channel_plan.h"

namespace fmbs::core {
namespace {

constexpr const char* kAdText = "SIMPLY THREE - TICKETS 50% OFF";

Scenario sweep_point(double distance_ft) {
  Scenario sc;
  sc.name = "rds-sweep";
  sc.seed = 5;
  ScenarioStation station;
  station.config.program.genre = audio::ProgramGenre::kNews;
  station.config.program.stereo = false;
  station.config.seed = 5;
  station.config.rds_level = 0.05;
  station.config.rds_ps_name = "SWEEPFMX";
  station.power = units::Dbm{-35.0};
  sc.stations = {station};
  sc.duration = units::Seconds{0.75};  // 8 RadioText groups at 1187.5 bps

  ScenarioTag t;
  t.name = "ad-poster";
  t.rds_radiotext = kAdText;
  t.distance_override = units::Feet{distance_ft};
  sc.tags.push_back(std::move(t));
  sc.receivers.push_back(phone_listening_to(sc.tags[0].subcarrier));
  // A radio parked on the station carrier itself: the ambient channel's
  // own RDS (PS name) rides the same scene render.
  ScenarioReceiver parked;
  parked.name = "parked-radio";
  parked.tune_offset = units::Hertz{0.0};
  sc.receivers.push_back(std::move(parked));
  return sc;
}

TEST(ScenarioRdsSweep, BlerDegradesMonotonicallyWithDistance) {
  const std::vector<double> distances_ft{4, 64, 192, 256, 384};
  const ScenarioEngine engine({.keep_captures = false});

  std::vector<double> bler;
  for (std::size_t i = 0; i < distances_ft.size(); ++i) {
    const ScenarioResult result = engine.run(sweep_point(distances_ft[i]));
    ASSERT_EQ(result.best_per_tag.size(), 1U) << distances_ft[i];
    const TagLinkReport& link = result.best_per_tag[0];
    ASSERT_TRUE(link.rds.has_value()) << distances_ft[i];
    bler.push_back(link.rds->bler);

    if (i == 0) {
      // High SNR: the whole data plane is clean end to end.
      EXPECT_TRUE(link.rds->synced);
      EXPECT_EQ(link.rds->radiotext, kAdText);
      EXPECT_EQ(link.rds->blocks_failed, 0U);
      ASSERT_TRUE(result.receivers[1].station_rds.has_value());
      EXPECT_EQ(result.receivers[1].station_rds->ps_name, "SWEEPFMX");
    }
  }
  for (std::size_t i = 1; i < bler.size(); ++i) {
    EXPECT_GE(bler[i] + 1e-9, bler[i - 1])
        << "BLER must not improve as the link stretches ("
        << distances_ft[i - 1] << " ft -> " << distances_ft[i] << " ft)";
  }
  EXPECT_DOUBLE_EQ(bler.front(), 0.0);
  EXPECT_DOUBLE_EQ(bler.back(), 1.0) << "far end should lose block sync";
}

}  // namespace
}  // namespace fmbs::core
