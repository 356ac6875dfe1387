// Single-link physics through the ScenarioEngine: one tag backscattering a
// silent station into one receiver, checked for capture shape, link-budget
// scaling, determinism and the receiver device chains.
#include <gtest/gtest.h>

#include "audio/tone.h"
#include "core/scenario.h"
#include "dsp/spectrum.h"
#include "reference/oneshot_chains.h"
#include "support/one_tag_scene.h"
#include "tag/baseband.h"

namespace fmbs::core {
namespace {

dsp::rvec tone_baseband(double freq, double seconds) {
  return tag::compose_overlay_baseband(
      audio::make_tone(freq, 1.0, seconds, fm::kAudioRate), 0.95);
}

/// A silent mono station at -20 dBm, tag 4 ft from the phone.
Scenario quiet_scene(const dsp::rvec& baseband, double seconds) {
  Scenario sc = test::one_tag_scene(baseband, units::Seconds{seconds},
                                    units::Dbm{-20.0}, units::Feet{4.0});
  sc.stations[0].config.program.genre = audio::ProgramGenre::kSilence;
  sc.stations[0].config.program.stereo = false;
  return sc;
}

Scenario quiet_tone_scene(double freq, double seconds) {
  return quiet_scene(tone_baseband(freq, seconds), seconds);
}

const audio::MonoBuffer& mono_of(const ScenarioResult& r) {
  return r.receivers[0].capture.mono;
}

TEST(Simulator, OutputLengthsConsistent) {
  const ScenarioResult r = ScenarioEngine().run(quiet_tone_scene(1000.0, 0.5));
  EXPECT_NEAR(mono_of(r).duration_seconds(), 0.5, 0.05);
  EXPECT_EQ(mono_of(r).sample_rate, fm::kAudioRate);
  EXPECT_EQ(r.receivers.size(), 1U);
  EXPECT_EQ(r.station_renders[0]->program.sample_rate, fm::kAudioRate);
}

TEST(Simulator, AmbientCaptureOptional) {
  Scenario sc = quiet_tone_scene(1000.0, 0.4);
  ScenarioReceiver ambient = sc.receivers[0];
  ambient.tune_offset = units::Hertz{0.0};
  ambient.noise_seed = 42 + 0x9e3779b9ULL;
  sc.receivers.push_back(ambient);
  const ScenarioResult r = ScenarioEngine().run(sc);
  ASSERT_EQ(r.receivers.size(), 2U);
  EXPECT_EQ(r.receivers[1].capture.mono.size(), mono_of(r).size());
}

TEST(Simulator, BackscatterPowerTracksBudget) {
  Scenario sc = quiet_tone_scene(1000.0, 0.3);
  const double near = resolve_scenario_plan(sc).rx_power_dbm[0][0][0];
  sc.tags[0].distance_override = units::Feet{16.0};
  const double far = resolve_scenario_plan(sc).rx_power_dbm[0][0][0];
  // 4x the distance: 12 dB weaker backscatter at the receiver.
  EXPECT_NEAR(near - far, 12.0, 0.5);
}

TEST(Simulator, ToneSnrDropsWithDistance) {
  Scenario sc = quiet_tone_scene(1000.0, 0.6);
  sc.stations[0].power = units::Dbm{-50.0};
  const ScenarioResult near = ScenarioEngine().run(sc);
  sc.tags[0].distance_override = units::Feet{20.0};
  const ScenarioResult far = ScenarioEngine().run(sc);
  const double snr_near = dsp::tone_snr_db(mono_of(near).samples,
                                           fm::kAudioRate, 1000.0, 100.0, 15000.0);
  const double snr_far = dsp::tone_snr_db(mono_of(far).samples,
                                          fm::kAudioRate, 1000.0, 100.0, 15000.0);
  EXPECT_GT(snr_near, snr_far + 5.0);
}

TEST(Simulator, DeterministicPerSeeds) {
  const Scenario sc = quiet_tone_scene(2000.0, 0.3);
  const ScenarioResult a = ScenarioEngine().run(sc);
  const ScenarioResult b = ScenarioEngine().run(sc);
  ASSERT_EQ(mono_of(a).size(), mono_of(b).size());
  for (std::size_t i = 0; i < mono_of(a).size(); i += 479) {
    EXPECT_EQ(mono_of(a).samples[i], mono_of(b).samples[i]);
  }
}

TEST(Simulator, NoiseSeedChangesRealization) {
  Scenario sc = quiet_tone_scene(2000.0, 0.2);
  sc.stations[0].power = units::Dbm{-60.0};  // noise-visible regime
  const ScenarioResult a = ScenarioEngine().run(sc);
  sc.seed = 777;
  sc.receivers[0].noise_seed = 777;
  sc.tags[0].fading_seed = 778;
  const ScenarioResult b = ScenarioEngine().run(sc);
  bool any_diff = false;
  for (std::size_t i = 0; i < mono_of(a).size(); ++i) {
    if (mono_of(a).samples[i] != mono_of(b).samples[i]) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Simulator, EmptyTagBasebandYieldsNoTone) {
  // An always-on, unmodulated switch (one zero sample, zero-padded).
  const ScenarioResult r =
      ScenarioEngine().run(quiet_scene(dsp::rvec(1, 0.0F), 0.3));
  // Unmodulated subcarrier only: no audio tone in the output.
  const double p = dsp::band_power(mono_of(r).samples, fm::kAudioRate, 500.0,
                                   12000.0);
  EXPECT_LT(p, 1e-4);
}

TEST(Simulator, CarReceiverAppliesCabin) {
  Scenario sc = quiet_tone_scene(1000.0, 0.5);
  sc.receivers[0].kind = ReceiverKind::kCar;
  sc.receivers[0].noise_200khz = channel::ReceiverNoise::kCarPer200kHz;
  const ScenarioResult r = ScenarioEngine().run(sc);
  // Engine rumble present below 200 Hz.
  const double p_rumble = dsp::band_power(mono_of(r).samples, fm::kAudioRate,
                                          25.0, 200.0);
  EXPECT_GT(p_rumble, 1e-8);
  // Tone still present.
  const double p_tone = dsp::band_power(mono_of(r).samples, fm::kAudioRate,
                                        900.0, 1100.0);
  EXPECT_GT(p_tone, 1e-3);
}

TEST(Simulator, CaptureIsDeviceChainOfReceiverAudio) {
  // The kept capture is the streamed device-chain audio; it must equal the
  // whole-buffer reference chains run over the receiver's decoded audio.
  for (const ReceiverKind kind : {ReceiverKind::kPhone, ReceiverKind::kCar}) {
    Scenario sc = quiet_tone_scene(1000.0, 0.3);
    sc.receivers[0].kind = kind;
    const ScenarioReceiver& rx = sc.receivers[0];
    const ReceiverCapture cap = ScenarioEngine().run(sc).receivers[0].capture;
    const bool car = kind == ReceiverKind::kCar;
    const audio::MonoBuffer mono =
        car ? reference::apply_cabin_acoustics(cap.fm.mono(), rx.cabin)
            : reference::apply_phone_chain(cap.fm.mono(), rx.phone);
    const audio::StereoBuffer stereo =
        car ? audio::StereoBuffer::dual_mono(mono)
            : reference::apply_phone_chain(cap.fm.audio, rx.phone);
    EXPECT_EQ(cap.mono.samples, mono.samples) << "car=" << car;
    EXPECT_EQ(cap.mono.sample_rate, mono.sample_rate) << "car=" << car;
    EXPECT_EQ(cap.stereo.left, stereo.left) << "car=" << car;
    EXPECT_EQ(cap.stereo.right, stereo.right) << "car=" << car;
  }
}

TEST(Simulator, FadingReducesMeanSnr) {
  Scenario sc = quiet_tone_scene(1000.0, 0.8);
  sc.stations[0].power = units::Dbm{-55.0};
  sc.tags[0].distance_override = units::Feet{8.0};
  const ScenarioResult still = ScenarioEngine().run(sc);
  sc.tags[0].fading = channel::fading_for_mobility(channel::Mobility::kRunning);
  const ScenarioResult moving = ScenarioEngine().run(sc);
  const double snr_still = dsp::tone_snr_db(mono_of(still).samples,
                                            fm::kAudioRate, 1000.0, 100.0, 15000.0);
  const double snr_moving = dsp::tone_snr_db(mono_of(moving).samples,
                                             fm::kAudioRate, 1000.0, 100.0, 15000.0);
  EXPECT_LT(snr_moving, snr_still + 1.0);
}

TEST(Simulator, Validation) {
  const ScenarioEngine engine;
  EXPECT_THROW(engine.run(quiet_scene(dsp::rvec(1, 0.0F), 0.0)),
               std::invalid_argument);
  EXPECT_THROW(engine.run(quiet_scene(dsp::rvec(1, 0.0F), -1.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace fmbs::core
