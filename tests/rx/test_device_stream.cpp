// PhoneChainStream and CabinAcousticsStream vs the frozen whole-buffer
// reference chains (tests/reference/oneshot_chains.h): any block split of
// the input — single samples, odd chunks, 10 ms blocks, the whole buffer —
// must produce the reference's samples bit for bit, across the chain
// options that change the per-sample loop (AGC, codec noise off, a
// zero-delay reflection, engine noise off). The library's
// apply_phone_chain / apply_cabin_acoustics wrappers are pinned against the
// same references.
#include "rx/device_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "audio/tone.h"
#include "reference/oneshot_chains.h"
#include "rx/car.h"
#include "rx/phone_chain.h"

namespace fmbs::rx {
namespace {

constexpr double kRate = 48000.0;

audio::MonoBuffer test_audio(std::uint64_t seed = 11) {
  audio::MonoBuffer a = audio::make_tone(1000.0, 0.3, 0.25, kRate);
  const audio::MonoBuffer hi = audio::make_tone(15000.0, 0.2, 0.25, kRate);
  const audio::MonoBuffer noise = audio::make_noise(0.05, 0.25, kRate, seed);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.samples[i] += hi.samples[i] + noise.samples[i];
  }
  return a;
}

/// Runs `in` through a fresh chain from `make`, fed in blocks of `chunk`.
template <typename Make>
std::vector<float> run_chunked(const audio::MonoBuffer& in, std::size_t chunk,
                               Make make) {
  auto chain = make();
  std::vector<float> out = in.samples;
  for (std::size_t i = 0; i < out.size(); i += chunk) {
    const std::size_t n = std::min(chunk, out.size() - i);
    chain.process_inplace(std::span<float>(out.data() + i, n));
  }
  return out;
}

void expect_phone_matches(const PhoneChainConfig& cfg,
                          const std::string& where) {
  SCOPED_TRACE(where);
  const audio::MonoBuffer in = test_audio();
  const audio::MonoBuffer want = reference::apply_phone_chain(in, cfg, 42);
  // Single samples, odd chunks, 10 ms blocks and the whole buffer.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{480}, in.size()}) {
    EXPECT_EQ(run_chunked(in, chunk,
                          [&] { return PhoneChainStream(cfg, kRate, 42); }),
              want.samples)
        << "chunk=" << chunk;
  }
  EXPECT_EQ(apply_phone_chain(in, cfg, 42).samples, want.samples);
  // Stereo: matched chains, the right channel seeded one above the left.
  const audio::StereoBuffer st(in.samples, test_audio(12).samples, kRate);
  const audio::StereoBuffer st_want = reference::apply_phone_chain(st, cfg, 42);
  const audio::StereoBuffer st_got = apply_phone_chain(st, cfg, 42);
  EXPECT_EQ(st_got.left, st_want.left);
  EXPECT_EQ(st_got.right, st_want.right);
  EXPECT_EQ(st_got.sample_rate, st_want.sample_rate);
}

void expect_cabin_matches(const CabinConfig& cfg, const std::string& where) {
  SCOPED_TRACE(where);
  const audio::MonoBuffer in = test_audio();
  const audio::MonoBuffer want = reference::apply_cabin_acoustics(in, cfg, 5);
  // Single samples, odd chunks, 10 ms blocks and the whole buffer.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{480}, in.size()}) {
    EXPECT_EQ(run_chunked(in, chunk,
                          [&] { return CabinAcousticsStream(cfg, kRate, 5); }),
              want.samples)
        << "chunk=" << chunk;
  }
  EXPECT_EQ(apply_cabin_acoustics(in, cfg, 5).samples, want.samples);
}

TEST(DeviceStream, PhoneDefaultMatchesReference) {
  expect_phone_matches(PhoneChainConfig{}, "default");
}

TEST(DeviceStream, PhoneAgcMatchesReference) {
  PhoneChainConfig cfg;
  cfg.enable_agc = true;
  expect_phone_matches(cfg, "agc on");
}

TEST(DeviceStream, PhoneNoCodecNoiseMatchesReference) {
  PhoneChainConfig cfg;
  cfg.codec_noise_rms = 0.0;
  expect_phone_matches(cfg, "codec noise off");
  cfg.enable_agc = true;
  expect_phone_matches(cfg, "codec noise off, agc on");
}

TEST(DeviceStream, CabinDefaultMatchesReference) {
  expect_cabin_matches(CabinConfig{}, "default");
}

TEST(DeviceStream, CabinZeroReflectionDelayMatchesReference) {
  CabinConfig cfg;
  cfg.reflection1_delay_s = 0.0;
  expect_cabin_matches(cfg, "reflection 1 at zero delay");
  cfg.reflection2_delay_s = 0.0;
  expect_cabin_matches(cfg, "both reflections at zero delay");
}

TEST(DeviceStream, CabinNoEngineNoiseMatchesReference) {
  CabinConfig cfg;
  cfg.engine_noise_rms = 0.0;
  expect_cabin_matches(cfg, "engine off");
  cfg.reflection1_delay_s = 0.0;
  expect_cabin_matches(cfg, "engine off, reflection 1 at zero delay");
}

TEST(DeviceStream, PhoneRejectsCutoffAboveNyquist) {
  PhoneChainConfig cfg;
  cfg.cutoff_hz = kRate;
  EXPECT_THROW({ const PhoneChainStream chain(cfg, kRate); },
               std::invalid_argument);
}

}  // namespace
}  // namespace fmbs::rx
