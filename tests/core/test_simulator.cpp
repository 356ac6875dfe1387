#include "core/simulator.h"

#include <gtest/gtest.h>

#include "audio/tone.h"
#include "dsp/math_util.h"
#include "dsp/spectrum.h"
#include "reference/oneshot_chains.h"
#include "tag/baseband.h"

namespace fmbs::core {
namespace {

SystemConfig quiet_system() {
  SystemConfig cfg;
  cfg.station.program.genre = audio::ProgramGenre::kSilence;
  cfg.station.program.stereo = false;
  cfg.scene.tag_power = units::Dbm{-20.0};
  cfg.scene.tag_rx_distance = units::Feet{4.0};
  return cfg;
}

dsp::rvec tone_baseband(double freq, double seconds) {
  return tag::compose_overlay_baseband(
      audio::make_tone(freq, 1.0, seconds, fm::kAudioRate), 0.95);
}

TEST(Simulator, OutputLengthsConsistent) {
  const SystemConfig cfg = quiet_system();
  const SimulationResult sim = simulate(cfg, tone_baseband(1000.0, 0.5), units::Seconds{0.5});
  EXPECT_NEAR(sim.backscatter_rx.mono.duration_seconds(), 0.5, 0.05);
  EXPECT_EQ(sim.backscatter_rx.mono.sample_rate, fm::kAudioRate);
  EXPECT_FALSE(sim.ambient_rx.has_value());
  EXPECT_EQ(sim.station->program.sample_rate, fm::kAudioRate);
}

TEST(Simulator, AmbientCaptureOptional) {
  SystemConfig cfg = quiet_system();
  cfg.capture_ambient_receiver = true;
  const SimulationResult sim = simulate(cfg, tone_baseband(1000.0, 0.4), units::Seconds{0.4});
  ASSERT_TRUE(sim.ambient_rx.has_value());
  EXPECT_EQ(sim.ambient_rx->mono.size(), sim.backscatter_rx.mono.size());
}

TEST(Simulator, BackscatterPowerTracksBudget) {
  SystemConfig cfg = quiet_system();
  const SimulationResult near = simulate(cfg, tone_baseband(1000.0, 0.3), units::Seconds{0.3});
  cfg.scene.tag_rx_distance = units::Feet{16.0};
  const SimulationResult far = simulate(cfg, tone_baseband(1000.0, 0.3), units::Seconds{0.3});
  // 4x the distance: 12 dB weaker backscatter at the receiver.
  EXPECT_NEAR(near.backscatter_rx_power_dbm - far.backscatter_rx_power_dbm,
              12.0, 0.5);
}

TEST(Simulator, ToneSnrDropsWithDistance) {
  SystemConfig cfg = quiet_system();
  cfg.scene.tag_power = units::Dbm{-50.0};
  const SimulationResult near = simulate(cfg, tone_baseband(1000.0, 0.6), units::Seconds{0.6});
  cfg.scene.tag_rx_distance = units::Feet{20.0};
  const SimulationResult far = simulate(cfg, tone_baseband(1000.0, 0.6), units::Seconds{0.6});
  const double snr_near = dsp::tone_snr_db(near.backscatter_rx.mono.samples,
                                           fm::kAudioRate, 1000.0, 100.0, 15000.0);
  const double snr_far = dsp::tone_snr_db(far.backscatter_rx.mono.samples,
                                          fm::kAudioRate, 1000.0, 100.0, 15000.0);
  EXPECT_GT(snr_near, snr_far + 5.0);
}

TEST(Simulator, DeterministicPerSeeds) {
  const SystemConfig cfg = quiet_system();
  const SimulationResult a = simulate(cfg, tone_baseband(2000.0, 0.3), units::Seconds{0.3});
  const SimulationResult b = simulate(cfg, tone_baseband(2000.0, 0.3), units::Seconds{0.3});
  ASSERT_EQ(a.backscatter_rx.mono.size(), b.backscatter_rx.mono.size());
  for (std::size_t i = 0; i < a.backscatter_rx.mono.size(); i += 479) {
    EXPECT_EQ(a.backscatter_rx.mono.samples[i], b.backscatter_rx.mono.samples[i]);
  }
}

TEST(Simulator, NoiseSeedChangesRealization) {
  SystemConfig cfg = quiet_system();
  cfg.scene.tag_power = units::Dbm{-60.0};  // noise-visible regime
  const SimulationResult a = simulate(cfg, tone_baseband(2000.0, 0.2), units::Seconds{0.2});
  cfg.scene.noise_seed = 777;
  const SimulationResult b = simulate(cfg, tone_baseband(2000.0, 0.2), units::Seconds{0.2});
  bool any_diff = false;
  for (std::size_t i = 0; i < a.backscatter_rx.mono.size(); ++i) {
    if (a.backscatter_rx.mono.samples[i] != b.backscatter_rx.mono.samples[i]) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Simulator, EmptyTagBasebandYieldsNoTone) {
  const SystemConfig cfg = quiet_system();
  const SimulationResult sim = simulate(cfg, {}, units::Seconds{0.3});
  // Unmodulated subcarrier only: no audio tone in the output.
  const double p = dsp::band_power(sim.backscatter_rx.mono.samples,
                                   fm::kAudioRate, 500.0, 12000.0);
  EXPECT_LT(p, 1e-4);
}

TEST(Simulator, CarReceiverAppliesCabin) {
  SystemConfig cfg = quiet_system();
  cfg.receiver = ReceiverKind::kCar;
  cfg.scene.rx_noise_200khz = channel::ReceiverNoise::kCarPer200kHz;
  const SimulationResult sim = simulate(cfg, tone_baseband(1000.0, 0.5), units::Seconds{0.5});
  // Engine rumble present below 200 Hz.
  const double p_rumble = dsp::band_power(sim.backscatter_rx.mono.samples,
                                          fm::kAudioRate, 25.0, 200.0);
  EXPECT_GT(p_rumble, 1e-8);
  // Tone still present.
  const double p_tone = dsp::band_power(sim.backscatter_rx.mono.samples,
                                        fm::kAudioRate, 900.0, 1100.0);
  EXPECT_GT(p_tone, 1e-3);
}

TEST(Simulator, CaptureIsDeviceChainOfReceiverAudio) {
  // The kept capture is the streamed device-chain audio; it must equal the
  // whole-buffer reference chains run over the receiver's decoded audio.
  for (const ReceiverKind kind : {ReceiverKind::kPhone, ReceiverKind::kCar}) {
    SystemConfig cfg = quiet_system();
    cfg.receiver = kind;
    const ReceiverCapture cap =
        simulate(cfg, tone_baseband(1000.0, 0.3), units::Seconds{0.3})
            .backscatter_rx;
    const bool car = kind == ReceiverKind::kCar;
    const audio::MonoBuffer mono =
        car ? reference::apply_cabin_acoustics(cap.fm.mono(), cfg.cabin)
            : reference::apply_phone_chain(cap.fm.mono(), cfg.phone);
    const audio::StereoBuffer stereo =
        car ? audio::StereoBuffer::dual_mono(mono)
            : reference::apply_phone_chain(cap.fm.audio, cfg.phone);
    EXPECT_EQ(cap.mono.samples, mono.samples) << "car=" << car;
    EXPECT_EQ(cap.mono.sample_rate, mono.sample_rate) << "car=" << car;
    EXPECT_EQ(cap.stereo.left, stereo.left) << "car=" << car;
    EXPECT_EQ(cap.stereo.right, stereo.right) << "car=" << car;
  }
}

TEST(Simulator, FadingReducesMeanSnr) {
  SystemConfig cfg = quiet_system();
  cfg.scene.tag_power = units::Dbm{-55.0};
  cfg.scene.tag_rx_distance = units::Feet{8.0};
  const SimulationResult still = simulate(cfg, tone_baseband(1000.0, 0.8), units::Seconds{0.8});
  cfg.scene.fading = channel::fading_for_mobility(channel::Mobility::kRunning);
  const SimulationResult moving = simulate(cfg, tone_baseband(1000.0, 0.8), units::Seconds{0.8});
  const double snr_still = dsp::tone_snr_db(still.backscatter_rx.mono.samples,
                                            fm::kAudioRate, 1000.0, 100.0, 15000.0);
  const double snr_moving = dsp::tone_snr_db(moving.backscatter_rx.mono.samples,
                                             fm::kAudioRate, 1000.0, 100.0, 15000.0);
  EXPECT_LT(snr_moving, snr_still + 1.0);
}

TEST(Simulator, Validation) {
  const SystemConfig cfg = quiet_system();
  EXPECT_THROW(simulate(cfg, {}, units::Seconds{0.0}), std::invalid_argument);
  EXPECT_THROW(simulate(cfg, {}, units::Seconds{-1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace fmbs::core
