// StreamingBurstDemodulator vs the frozen whole-capture reference
// demodulate_burst (tests/reference/oneshot_chains.h): the collector must
// capture exactly the window the reference slices out of the full audio
// capture and score it identically — including windows truncated by the end
// of the capture and windows that start mid-block.
#include "rx/fsk_stream.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "audio/tone.h"
#include "fm/constants.h"
#include "reference/oneshot_chains.h"
#include "rx/multitag.h"
#include "tag/fsk.h"

namespace fmbs::rx {
namespace {

audio::MonoBuffer burst_capture(const BurstSpec& burst, double total_seconds,
                                double noise_rms = 0.002) {
  const audio::MonoBuffer payload =
      tag::modulate_fsk(burst.bits, burst.rate, fm::kAudioRate);
  audio::MonoBuffer capture = audio::concat(
      audio::make_silence(burst.start_seconds, fm::kAudioRate), payload);
  const auto total =
      static_cast<std::size_t>(total_seconds * fm::kAudioRate + 0.5);
  capture.samples.resize(total, 0.0F);
  const audio::MonoBuffer noise =
      audio::make_noise(noise_rms, total_seconds, fm::kAudioRate, 17);
  for (std::size_t i = 0; i < capture.samples.size() && i < noise.size();
       ++i) {
    capture.samples[i] += noise.samples[i];
  }
  return capture;
}

void expect_same_report(const BurstReport& stream, const BurstReport& one,
                        const std::string& where) {
  EXPECT_EQ(stream.ber.bit_errors, one.ber.bit_errors) << where;
  EXPECT_EQ(stream.ber.bits_compared, one.ber.bits_compared) << where;
  EXPECT_EQ(stream.ber.ber, one.ber.ber) << where;
  EXPECT_EQ(stream.packets, one.packets) << where;
  EXPECT_EQ(stream.packets_ok, one.packets_ok) << where;
  EXPECT_EQ(stream.bits_delivered, one.bits_delivered) << where;
  EXPECT_EQ(stream.per, one.per) << where;
  EXPECT_EQ(stream.mean_confidence, one.mean_confidence) << where;
}

void expect_stream_matches_one_shot(const audio::MonoBuffer& capture,
                                    const BurstSpec& burst,
                                    std::size_t block) {
  const BurstReport one = reference::demodulate_burst(capture, burst);
  StreamingBurstDemodulator dec(burst, capture.sample_rate,
                                capture.samples.size());
  for (std::size_t i = 0; i < capture.samples.size(); i += block) {
    const std::size_t n = std::min(block, capture.samples.size() - i);
    dec.push(std::span<const float>(capture.samples.data() + i, n));
  }
  expect_same_report(dec.finish(), one, "block=" + std::to_string(block));
}

BurstSpec test_burst(double start_seconds = 0.12) {
  BurstSpec burst;
  burst.rate = tag::DataRate::k1600bps;
  burst.bits = tag::random_bits(96, 0xB0B5);
  burst.start_seconds = start_seconds;
  burst.packet_bits = 16;
  return burst;
}

TEST(FskStream, BlockFedMatchesOneShot) {
  const BurstSpec burst = test_burst();
  const audio::MonoBuffer capture = burst_capture(burst, 0.6);
  expect_stream_matches_one_shot(capture, burst, 997);
  expect_stream_matches_one_shot(capture, burst, 4800);
  expect_stream_matches_one_shot(capture, burst, capture.samples.size());
  // The decode is real: clean capture delivers every packet.
  const BurstReport one = reference::demodulate_burst(capture, burst);
  EXPECT_EQ(one.packets_ok, one.packets);
  EXPECT_GT(one.bits_delivered, 0U);
}

TEST(FskStream, WindowCompletesMidStream) {
  const BurstSpec burst = test_burst(0.05);
  const audio::MonoBuffer capture = burst_capture(burst, 1.0);
  StreamingBurstDemodulator dec(burst, capture.sample_rate,
                                capture.samples.size());
  // The window (burst + tail slack) ends well before the capture does: the
  // collector must report completion without seeing the rest of the stream.
  std::size_t fed = 0;
  const std::size_t block = 2400;
  while (!dec.window_complete() && fed < capture.samples.size()) {
    const std::size_t n = std::min(block, capture.samples.size() - fed);
    dec.push(std::span<const float>(capture.samples.data() + fed, n));
    fed += n;
  }
  EXPECT_TRUE(dec.window_complete());
  EXPECT_LT(fed, capture.samples.size());
  expect_same_report(dec.finish(), reference::demodulate_burst(capture, burst),
                     "mid-stream completion");
}

TEST(FskStream, TruncatedWindowMatchesOneShot) {
  // Capture ends before the burst window does (the end-of-run case): both
  // paths clamp the window to the capture and score the same samples.
  BurstSpec burst = test_burst(0.3);
  const double burst_len =
      tag::fsk_burst_seconds(burst.bits.size(), burst.rate, fm::kAudioRate);
  const audio::MonoBuffer capture =
      burst_capture(burst, 0.3 + 0.5 * burst_len);
  expect_stream_matches_one_shot(capture, burst, 997);
}

TEST(FskStream, WindowEntirelyPastCaptureMatchesOneShot) {
  // Burst starts after the capture ends: the one-shot router scores an
  // invalid window (no packets, BER 1); the collector must agree.
  BurstSpec burst = test_burst(2.0);
  const audio::MonoBuffer capture = burst_capture(test_burst(0.05), 0.5);
  const BurstReport one = reference::demodulate_burst(capture, burst);
  StreamingBurstDemodulator dec(burst, capture.sample_rate,
                                capture.samples.size());
  dec.push(capture.samples);
  expect_same_report(dec.finish(), one, "window past capture");
  EXPECT_EQ(one.packets_ok, 0U);
}

TEST(FskStream, BufferIsWindowSizedNotCaptureSized) {
  const BurstSpec burst = test_burst(0.1);
  const double payload_seconds = static_cast<double>(burst.bits.size()) /
                                 tag::bits_per_second(burst.rate);
  // A long capture must not grow the collector: it holds the window only.
  StreamingBurstDemodulator dec(
      burst, fm::kAudioRate,
      static_cast<std::size_t>(100.0 * fm::kAudioRate));
  const auto window_cap = static_cast<std::size_t>(
      (payload_seconds + kBurstTailSlackSeconds) * fm::kAudioRate + 1.0);
  EXPECT_LE(dec.buffer_bytes(), window_cap * sizeof(float));
  EXPECT_GT(dec.buffer_bytes(), 0U);
}

}  // namespace
}  // namespace fmbs::rx
