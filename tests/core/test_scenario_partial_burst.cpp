// End-of-run partial-burst accounting: a burst whose *requested* start fits
// the run but whose MAC-quantized start pushes it past the run boundary
// would be truncated on the air. Both engines must treat it as never sent —
// excluded from the scene and from goodput — rather than throwing (the old
// behaviour) or silently scoring a truncated airtime. A burst that could
// never fit at its requested start is still a configuration error.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/streaming.h"
#include "tag/fsk.h"

namespace fmbs::core {
namespace {

// 64 bits at 1600 bps = 40 ms on the air.
Scenario partial_burst_scene(double tag_start_seconds,
                             tag::MacKind mac = tag::MacKind::kSlottedAloha) {
  Scenario sc;
  sc.name = "partial_burst";
  sc.duration = units::Seconds{0.5};  // plus 0.08 s settle: 0.58 s total
  ScenarioStation station;
  station.config.program.stereo = false;
  station.power = units::Dbm{-25.0};
  sc.stations = {station};
  ScenarioTag tag;
  tag.name = "late";
  tag.num_bits = 64;
  tag.distance_override = units::Feet{4.0};
  tag.start = units::Seconds{tag_start_seconds};
  tag.mac.kind = mac;
  tag.mac.slot = units::Seconds{0.2};
  sc.tags.push_back(tag);
  sc.receivers.push_back(phone_listening_to(sc.tags[0].subcarrier));
  return sc;
}

TEST(ScenarioPartialBurst, MacPushedPastEndIsNeverSentNotAnError) {
  // Nominal start 0.49 s + 40 ms fits the 0.58 s run; slot quantization
  // (pitch 0.2 s) rounds the start up to 0.6 s, past the boundary.
  const Scenario sc = partial_burst_scene(0.41);
  const ScenarioPlan plan = resolve_scenario_plan(sc);  // must not throw
  ASSERT_EQ(plan.tags.size(), 1U);
  EXPECT_FALSE(plan.tags[0].transmitted);

  const ScenarioResult result = ScenarioEngine(ScenarioEngineConfig{}).run(sc);
  ASSERT_EQ(result.mac.size(), 1U);
  EXPECT_FALSE(result.mac[0].transmitted);
  // Never sent: no scored link, no goodput, nothing rendered for the tag.
  EXPECT_TRUE(result.best_per_tag.empty());
  EXPECT_EQ(result.aggregate_goodput_bps, 0.0);
  ASSERT_EQ(result.receivers.size(), 1U);
  EXPECT_TRUE(result.receivers[0].links.empty());
  EXPECT_EQ(result.scene.tags_rendered, 0U);
}

TEST(ScenarioPartialBurst, SameNominalStartTransmitsUnderPureAloha) {
  // The identical request under pure ALOHA keeps its nominal start and fits:
  // proof the exclusion above is the MAC's doing, not the request's.
  const Scenario sc =
      partial_burst_scene(0.41, tag::MacKind::kPureAloha);
  const ScenarioResult result = ScenarioEngine(ScenarioEngineConfig{}).run(sc);
  ASSERT_EQ(result.mac.size(), 1U);
  EXPECT_TRUE(result.mac[0].transmitted);
  // The burst went on the air and was scored over its full payload — every
  // bit of the 64 was on the air before the run ended.
  ASSERT_EQ(result.best_per_tag.size(), 1U);
  EXPECT_EQ(result.best_per_tag[0].burst.ber.bits_compared, 64U);
  EXPECT_GT(result.best_per_tag[0].burst.packets, 0U);
  EXPECT_EQ(result.scene.tags_rendered, 1U);
}

TEST(ScenarioPartialBurst, NominallyUnfittableBurstStillThrows) {
  // Requested start 0.56 s + 40 ms overruns 0.58 s at the *nominal* time:
  // a configuration error regardless of MAC policy.
  const Scenario sc = partial_burst_scene(0.56, tag::MacKind::kPureAloha);
  EXPECT_THROW(resolve_scenario_plan(sc), std::invalid_argument);
}

TEST(ScenarioPartialBurst, BatchAndStreamingAgree) {
  const Scenario sc = partial_burst_scene(0.41);
  const ScenarioResult batch = ScenarioEngine(ScenarioEngineConfig{}).run(sc);
  const ScenarioResult stream = StreamingEngine(StreamingConfig{}).run(sc);
  ASSERT_EQ(stream.mac.size(), 1U);
  EXPECT_EQ(stream.mac[0].transmitted, batch.mac[0].transmitted);
  EXPECT_EQ(stream.aggregate_goodput_bps, batch.aggregate_goodput_bps);
  EXPECT_EQ(stream.best_per_tag.size(), batch.best_per_tag.size());
  ASSERT_EQ(stream.receivers.size(), batch.receivers.size());
  EXPECT_EQ(stream.receivers[0].links.size(), batch.receivers[0].links.size());
}

}  // namespace
}  // namespace fmbs::core
