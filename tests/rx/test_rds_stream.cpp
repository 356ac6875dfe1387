// RdsStreamDecoder vs the frozen whole-capture reference decode_rds_link
// (tests/reference/oneshot_chains.h): the block-fed front end (persistent
// mixer + low-pass over the window) plus the window-close global stages
// must report exactly what the reference reports on the same window slice —
// PS name, RadioText, block counts, BLER — for whole-capture windows, offset
// burst windows, and windows truncated by the end of the capture.
#include "rx/rds_stream.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>

#include "audio/tone.h"
#include "fm/constants.h"
#include "fm/mpx.h"
#include "fm/rds.h"
#include "reference/oneshot_chains.h"
#include "rx/rds_path.h"

namespace fmbs::rx {
namespace {

dsp::rvec rds_mpx(double seconds, const std::string& ps = "STREAMFM") {
  const audio::MonoBuffer l =
      audio::make_tone(800.0, 0.4, seconds, fm::kAudioRate);
  const audio::MonoBuffer r =
      audio::make_tone(2200.0, 0.4, seconds, fm::kAudioRate);
  fm::MpxConfig cfg;
  cfg.rds_level = 0.05;
  const auto groups = fm::make_ps_groups(ps);
  return fm::compose_mpx(
      audio::StereoBuffer(l.samples, r.samples, fm::kAudioRate), cfg,
      fm::serialize_groups(groups));
}

void expect_same_report(const RdsLinkReport& stream, const RdsLinkReport& one,
                        const std::string& where) {
  EXPECT_EQ(stream.synced, one.synced) << where;
  EXPECT_EQ(stream.blocks_ok, one.blocks_ok) << where;
  EXPECT_EQ(stream.blocks_failed, one.blocks_failed) << where;
  EXPECT_EQ(stream.bler, one.bler) << where;
  EXPECT_EQ(stream.ps_name, one.ps_name) << where;
  EXPECT_EQ(stream.radiotext, one.radiotext) << where;
}

void feed_blocks(RdsStreamDecoder& dec, const dsp::rvec& mpx,
                 std::size_t block) {
  for (std::size_t i = 0; i < mpx.size(); i += block) {
    const std::size_t n = std::min(block, mpx.size() - i);
    dec.push(std::span<const float>(mpx.data() + i, n));
  }
}

TEST(RdsStream, WholeCaptureMatchesOneShot) {
  const dsp::rvec mpx = rds_mpx(1.0);
  const RdsLinkReport one = reference::decode_rds_link(mpx, fm::kMpxRate);
  for (const std::size_t block : {std::size_t{7919}, std::size_t{24000}}) {
    RdsStreamDecoder dec(fm::kMpxRate, mpx.size());
    feed_blocks(dec, mpx, block);
    EXPECT_TRUE(dec.window_complete());
    expect_same_report(dec.finish(), one, "block=" + std::to_string(block));
  }
  EXPECT_TRUE(one.synced);
  EXPECT_EQ(one.ps_name, "STREAMFM");
}

TEST(RdsStream, OffsetBurstWindowMatchesOneShot) {
  const dsp::rvec mpx = rds_mpx(1.2);
  const double start = 0.3;
  const double dur = 0.7;
  const RdsLinkReport one =
      reference::decode_rds_link(mpx, fm::kMpxRate, start, dur);
  RdsStreamDecoder dec(fm::kMpxRate, mpx.size(), start, dur);
  feed_blocks(dec, mpx, 10007);
  EXPECT_TRUE(dec.window_complete());
  expect_same_report(dec.finish(), one, "offset window");
}

TEST(RdsStream, WindowTruncatedByCaptureMatchesOneShot) {
  const dsp::rvec mpx = rds_mpx(0.8);
  // Requested duration runs past the capture; both paths clamp to the end.
  const double start = 0.5;
  const double dur = 2.0;
  const RdsLinkReport one =
      reference::decode_rds_link(mpx, fm::kMpxRate, start, dur);
  RdsStreamDecoder dec(fm::kMpxRate, mpx.size(), start, dur);
  feed_blocks(dec, mpx, 7919);
  EXPECT_TRUE(dec.window_complete());
  expect_same_report(dec.finish(), one, "truncated window");
}

TEST(RdsStream, MaxWindowCapBoundsBufferAndStillDecodes) {
  const dsp::rvec mpx = rds_mpx(2.0);
  RdsStreamDecoder dec(fm::kMpxRate, mpx.size(), 0.0, -1.0, 0.5);
  EXPECT_EQ(dec.buffer_bytes(),
            static_cast<std::size_t>(0.5 * fm::kMpxRate) * sizeof(dsp::cfloat));
  feed_blocks(dec, mpx, 24000);
  EXPECT_TRUE(dec.window_complete());
  // The capped window is itself a valid decode window: identical to the
  // one-shot decode of the first 0.5 s.
  const RdsLinkReport one =
      reference::decode_rds_link(mpx, fm::kMpxRate, 0.0, 0.5);
  expect_same_report(dec.finish(), one, "capped window");
  EXPECT_EQ(dec.finish().ps_name, "STREAMFM");
}

TEST(RdsStream, FinishBeforeWindowCompleteScoresCollectedPrefix) {
  const dsp::rvec mpx = rds_mpx(1.0);
  RdsStreamDecoder dec(fm::kMpxRate, mpx.size());
  dec.push(std::span<const float>(mpx.data(), mpx.size() / 2));
  EXPECT_FALSE(dec.window_complete());
  // End-of-stream drain: report what was collected, don't crash or hang.
  const RdsLinkReport partial = dec.finish();
  EXPECT_LE(partial.blocks_ok,
            reference::decode_rds_link(mpx, fm::kMpxRate).blocks_ok);
}

TEST(RdsStream, WrapperMatchesReference) {
  const dsp::rvec mpx = rds_mpx(1.2);
  expect_same_report(decode_rds_link(mpx, fm::kMpxRate),
                     reference::decode_rds_link(mpx, fm::kMpxRate),
                     "whole capture");
  expect_same_report(
      decode_rds_link(mpx, fm::kMpxRate, units::Seconds{0.3},
                      units::Seconds{0.7}),
      reference::decode_rds_link(mpx, fm::kMpxRate, 0.3, 0.7), "offset");
  expect_same_report(
      decode_rds_link(mpx, fm::kMpxRate, units::Seconds{0.9},
                      units::Seconds{2.0}),
      reference::decode_rds_link(mpx, fm::kMpxRate, 0.9, 2.0), "truncated");
  expect_same_report(
      decode_rds_link(mpx, fm::kMpxRate, units::Seconds{5.0}),
      reference::decode_rds_link(mpx, fm::kMpxRate, 5.0), "past the end");
}

TEST(RdsStream, WrapperReturnsEmptyReportOnBadInput) {
  // The one-shot contract: no capture or no sample rate decodes to nothing
  // (unsynced, BLER 1) instead of throwing.
  const dsp::rvec mpx = rds_mpx(0.5);
  for (const double rate : {0.0, -fm::kMpxRate}) {
    const RdsLinkReport report = decode_rds_link(mpx, rate);
    EXPECT_FALSE(report.synced);
    EXPECT_EQ(report.blocks_ok, 0U);
    EXPECT_EQ(report.bler, 1.0);
  }
  const RdsLinkReport empty = decode_rds_link({}, fm::kMpxRate);
  EXPECT_FALSE(empty.synced);
  EXPECT_EQ(empty.bler, 1.0);
}

TEST(RdsStream, DecoderRejectsNonPositiveRate) {
  // Rejected up front, by the decoder itself (not by its mixer).
  for (const double rate : {0.0, -fm::kMpxRate}) {
    std::string what;
    try {
      const RdsStreamDecoder dec(rate, 1000);
      ADD_FAILURE() << "rate " << rate << " accepted";
    } catch (const std::invalid_argument& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("RdsStreamDecoder"), std::string::npos) << what;
  }
}

TEST(RdsStream, EmptyCaptureHasEmptyWindow) {
  RdsStreamDecoder dec(fm::kMpxRate, 0);
  EXPECT_TRUE(dec.window_complete());
  EXPECT_EQ(dec.buffer_bytes(), 0U);
  const RdsLinkReport report = dec.finish();
  EXPECT_FALSE(report.synced);
  EXPECT_EQ(report.bler, 1.0);
}

}  // namespace
}  // namespace fmbs::rx
