// O(1)-memory soak property (slow lane): the streaming engine's bounded
// buffering must not grow with the run duration. A 120 s simulated run's
// streaming_peak_buffer_bytes must land within 1.1x of a 5 s run's — the
// whole point of the pipeline is that nothing scales with simulated time
// once the run outgrows the station horizon and decision windows.
#include <gtest/gtest.h>

#include <cstddef>

#include "core/streaming.h"

namespace fmbs::core {
namespace {

// Minimal city-like scene that still exercises every bounded buffer class:
// one station with RDS (station RDS decision window), one mono receiver, one
// FSK tag (burst collector).
Scenario soak_scene(double duration_seconds) {
  Scenario sc;
  sc.name = "soak";
  sc.duration = units::Seconds{duration_seconds};
  ScenarioStation station;
  station.config.program.stereo = false;
  station.config.rds_level = 0.04;
  station.config.rds_ps_name = "SOAKTEST";
  sc.stations = {station};
  ScenarioTag tag;
  tag.name = "poster";
  tag.num_bits = 96;
  sc.tags.push_back(tag);
  ScenarioReceiver rx;
  rx.name = "car";
  rx.kind = ReceiverKind::kCar;
  rx.stereo_decoder.force_mono = true;
  sc.receivers.push_back(rx);
  return sc;
}

TEST(StreamingMemory, PeakBufferBytesAreDurationInvariant) {
  const ScenarioResult short_run =
      StreamingEngine(StreamingConfig{}).run(soak_scene(5.0));
  const ScenarioResult long_run =
      StreamingEngine(StreamingConfig{}).run(soak_scene(120.0));
  ASSERT_GT(short_run.scene.streaming_peak_buffer_bytes, 0U);
  ASSERT_GT(long_run.scene.streaming_peak_buffer_bytes, 0U);
  // The 24x longer run may cost at most 10% more bounded buffering.
  EXPECT_LE(static_cast<double>(long_run.scene.streaming_peak_buffer_bytes),
            1.1 * static_cast<double>(
                      short_run.scene.streaming_peak_buffer_bytes))
      << "5 s run: " << short_run.scene.streaming_peak_buffer_bytes
      << " bytes, 120 s run: " << long_run.scene.streaming_peak_buffer_bytes
      << " bytes";
  // And the long run still decodes: the tag's burst link exists.
  ASSERT_FALSE(long_run.receivers.empty());
  EXPECT_FALSE(long_run.receivers[0].links.empty());
}

TEST(StreamingMemory, BufferScalesWithRingNotDuration) {
  // Doubling the ring should show up in the ledger; doubling the duration
  // should not. This pins the ledger to the knobs that actually allocate.
  const Scenario sc = soak_scene(10.0);
  StreamingConfig small_ring;
  small_ring.ring_blocks = 4;
  StreamingConfig big_ring;
  big_ring.ring_blocks = 64;
  const auto small_bytes =
      StreamingEngine(small_ring).run(sc).scene.streaming_peak_buffer_bytes;
  const auto big_bytes =
      StreamingEngine(big_ring).run(sc).scene.streaming_peak_buffer_bytes;
  EXPECT_GT(big_bytes, small_bytes);
}

}  // namespace
}  // namespace fmbs::core
