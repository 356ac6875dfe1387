// StereoStreamDecoder vs the frozen whole-buffer reference decoder
// (tests/reference/oneshot_chains.h): the block-fed decoder must emit the
// reference's audio bit for bit — any block size, any split — as long as
// its decision window covers the capture. This is the per-receiver
// equivalence the streaming scenario engine's golden tests rest on. Every
// case also pins the library's fm::decode_stereo wrapper to the reference.
#include "fm/stereo_stream.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "audio/tone.h"
#include "fm/mpx.h"
#include "fm/stereo_decoder.h"
#include "reference/oneshot_chains.h"

namespace fmbs::fm {
namespace {

using audio::make_tone;
using audio::MonoBuffer;
using audio::StereoBuffer;

dsp::rvec test_mpx(bool stereo, double seconds = 0.5) {
  const MonoBuffer l = make_tone(1000.0, 0.6, seconds, kAudioRate);
  const MonoBuffer r = make_tone(3000.0, 0.6, seconds, kAudioRate);
  MpxConfig cfg;
  cfg.stereo = stereo;
  return compose_mpx(StereoBuffer(l.samples, r.samples, kAudioRate), cfg);
}

void expect_stream_matches_one_shot(const dsp::rvec& mpx,
                                    const StereoDecoderConfig& cfg,
                                    std::size_t block,
                                    double decision_window_seconds = -1.0) {
  SCOPED_TRACE("block=" + std::to_string(block));
  const StereoDecodeResult one_shot = reference::decode_stereo(mpx, cfg);

  // The library's one-shot wrapper: the same class fed one block.
  const StereoDecodeResult wrapped = decode_stereo(mpx, cfg);
  EXPECT_EQ(wrapped.pilot_detected, one_shot.pilot_detected);
  EXPECT_EQ(wrapped.pilot_snr_db, one_shot.pilot_snr_db);
  EXPECT_EQ(wrapped.audio.sample_rate, one_shot.audio.sample_rate);
  EXPECT_EQ(wrapped.audio.left, one_shot.audio.left);
  EXPECT_EQ(wrapped.audio.right, one_shot.audio.right);

  StereoStreamDecoder stream(cfg, mpx.size(), units::Seconds{decision_window_seconds});
  dsp::rvec left;
  dsp::rvec right;
  for (std::size_t i = 0; i < mpx.size(); i += block) {
    const std::size_t n = std::min(block, mpx.size() - i);
    stream.push(std::span<const float>(mpx.data() + i, n), left, right);
  }
  stream.finish(left, right);

  EXPECT_EQ(stream.stereo_mode(), one_shot.pilot_detected);
  EXPECT_EQ(stream.pilot_snr_db(), one_shot.pilot_snr_db);
  ASSERT_EQ(left.size(), one_shot.audio.left.size());
  ASSERT_EQ(right.size(), one_shot.audio.right.size());
  for (std::size_t i = 0; i < left.size(); ++i) {
    ASSERT_EQ(left[i], one_shot.audio.left[i]) << "left sample " << i;
    ASSERT_EQ(right[i], one_shot.audio.right[i]) << "right sample " << i;
  }
}

TEST(StereoStream, BlockFedMatchesOneShotStereo) {
  const dsp::rvec mpx = test_mpx(true);
  // Prime, tiny, block-aligned and whole-capture splits all hit the same
  // samples through the same state machines.
  expect_stream_matches_one_shot(mpx, StereoDecoderConfig{}, 7919);
  expect_stream_matches_one_shot(mpx, StereoDecoderConfig{}, 24000);
  expect_stream_matches_one_shot(mpx, StereoDecoderConfig{}, mpx.size());
}

TEST(StereoStream, BlockFedMatchesOneShotMonoFallback) {
  const dsp::rvec mpx = test_mpx(false);  // no pilot: decoder stays mono
  expect_stream_matches_one_shot(mpx, StereoDecoderConfig{}, 7919);
}

TEST(StereoStream, ForceMonoMatches) {
  const dsp::rvec mpx = test_mpx(true);
  StereoDecoderConfig cfg;
  cfg.force_mono = true;
  expect_stream_matches_one_shot(mpx, cfg, 10007);
}

TEST(StereoStream, DeemphasisMatches) {
  const dsp::rvec mpx = test_mpx(true);
  StereoDecoderConfig cfg;
  cfg.deemphasis = true;
  expect_stream_matches_one_shot(mpx, cfg, 7919);
}

TEST(StereoStream, DecisionWindowCoveringCaptureMatches) {
  const dsp::rvec mpx = test_mpx(true);
  // Window (10 s) far exceeds the 0.5 s capture: clamped to the capture, so
  // the decision is made from exactly what the one-shot decoder sees.
  expect_stream_matches_one_shot(mpx, StereoDecoderConfig{}, 7919, 10.0);
}

TEST(StereoStream, NoisyCapturesMatch) {
  for (const bool stereo : {true, false}) {
    for (const double rms : {0.0, 0.05, 0.3}) {
      SCOPED_TRACE("stereo=" + std::to_string(stereo) +
                   " rms=" + std::to_string(rms));
      dsp::rvec mpx = test_mpx(stereo, 0.2);
      const MonoBuffer noise = audio::make_noise(
          rms, static_cast<double>(mpx.size()) / kMpxRate, kMpxRate, 3);
      for (std::size_t i = 0; i < mpx.size() && i < noise.size(); ++i) {
        mpx[i] += noise.samples[i];
      }
      expect_stream_matches_one_shot(mpx, StereoDecoderConfig{}, 7919);
      StereoDecoderConfig de;
      de.deemphasis = true;
      expect_stream_matches_one_shot(mpx, de, 7919);
    }
  }
}

TEST(StereoStream, TinyCapturesMatch) {
  // Shorter than the realignment delay, the decimation stride and the 8 ms
  // pilot window: every edge of the tail handling.
  const dsp::rvec full = test_mpx(true, 0.01);
  StereoDecoderConfig mono;
  mono.force_mono = true;
  // Pilot gate forced open, so the stereo chain runs on the tiny capture.
  StereoDecoderConfig open;
  open.pilot_detect_threshold = units::Db{-1000.0};
  for (const std::size_t n : {std::size_t{1}, std::size_t{4}, std::size_t{5},
                              std::size_t{62}, std::size_t{63},
                              std::size_t{64}, std::size_t{127},
                              std::size_t{200}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const dsp::rvec mpx(full.begin(),
                        full.begin() + static_cast<std::ptrdiff_t>(n));
    expect_stream_matches_one_shot(mpx, StereoDecoderConfig{}, 7);
    expect_stream_matches_one_shot(mpx, mono, 7);
    expect_stream_matches_one_shot(mpx, open, 7);
  }
}

TEST(StereoStream, BoundedDecisionWindowIsBoundedMemory) {
  const dsp::rvec mpx = test_mpx(true, 1.0);
  StereoStreamDecoder stream(StereoDecoderConfig{}, mpx.size(), units::Seconds{0.25});
  EXPECT_EQ(stream.decision_buffer_bytes(),
            static_cast<std::size_t>(0.25 * kMpxRate) * sizeof(float));
  dsp::rvec left;
  dsp::rvec right;
  stream.push(mpx, left, right);
  stream.finish(left, right);
  // The pilot is strong throughout, so the bounded decision agrees with the
  // whole-capture one, and the full audio stream still comes out.
  EXPECT_TRUE(stream.stereo_mode());
  EXPECT_EQ(left.size(), mpx.size() / 5);
}

}  // namespace
}  // namespace fmbs::fm
