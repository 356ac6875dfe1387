// Frozen one-shot receive chains: the whole-buffer bodies of
// fm::decode_stereo, rx::apply_phone_chain, rx::apply_cabin_acoustics,
// rx::decode_rds_link and rx::demodulate_burst as they stood before the
// block-fed classes (fm::StereoStreamDecoder, rx::PhoneChainStream,
// rx::CabinAcousticsStream, rx::RdsStreamDecoder,
// rx::StreamingBurstDemodulator) became the library's only implementation.
// The library's one-shot entry points are now wrappers over those classes,
// so the equivalence tests compare the classes against these independent
// bodies instead — never a class against itself.
//
// Header-only: every tests/*.cpp builds into its own binary.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "audio/audio_buffer.h"
#include "dsp/fir.h"
#include "dsp/goertzel.h"
#include "dsp/iir.h"
#include "dsp/math_util.h"
#include "fm/constants.h"
#include "fm/emphasis.h"
#include "fm/rds.h"
#include "fm/stereo_decoder.h"
#include "rx/car.h"
#include "rx/multitag.h"
#include "rx/phone_chain.h"
#include "rx/rds_path.h"

namespace fmbs::reference {

namespace detail {

// Odd -> integer group delay.
inline constexpr std::size_t kChannelFilterTaps = 127;

inline std::vector<float> process_phone_channel(const std::vector<float>& in,
                                                double rate,
                                                const rx::PhoneChainConfig& cfg,
                                                std::uint64_t noise_seed) {
  dsp::BiquadCascade lp(
      rx::butterworth_lowpass(cfg.cutoff_hz / rate, cfg.filter_order));
  std::vector<float> out = lp.process(in);
  if (cfg.codec_noise_rms > 0.0) {
    std::mt19937_64 rng(noise_seed);
    std::normal_distribution<float> n(0.0F,
                                      static_cast<float>(cfg.codec_noise_rms));
    for (auto& v : out) v += n(rng);
  }
  if (cfg.enable_agc) {
    dsp::Agc agc(cfg.agc, rate);
    out = agc.process(out);
  }
  return out;
}

}  // namespace detail

/// Whole-buffer pilot-gated stereo decode (the pilot decision from the
/// median of 8 ms pilot-SNR windows over the whole capture).
inline fm::StereoDecodeResult decode_stereo(
    std::span<const float> mpx, const fm::StereoDecoderConfig& config) {
  using detail::kChannelFilterTaps;
  using fm::kMonoAudioHiHz;
  using fm::kPilotHz;
  using fm::kStereoBandHiHz;
  using fm::kStereoBandLoHz;
  if (mpx.empty()) throw std::invalid_argument("decode_stereo: empty mpx");
  const double rate = config.mpx_rate;
  const double audio_ratio = rate / config.audio_rate;
  const auto decim = static_cast<std::size_t>(audio_ratio + 0.5);
  if (std::abs(audio_ratio - static_cast<double>(decim)) > 1e-9 || decim == 0) {
    throw std::invalid_argument(
        "decode_stereo: mpx_rate must be an integer multiple of audio_rate");
  }

  fm::StereoDecodeResult result;

  // ---- Pilot measurement over 8 ms windows (a ~125 Hz detector).
  const double flank_lo = kPilotHz - 600.0;
  const double flank_hi = kPilotHz + 600.0;
  const auto window = static_cast<std::size_t>(0.008 * rate);
  std::vector<double> window_snr;
  for (std::size_t start = 0; start + window <= mpx.size(); start += window) {
    const auto block = mpx.subspan(start, window);
    const double p_pilot = dsp::goertzel_power(block, kPilotHz, rate);
    const double p_noise = 0.5 * (dsp::goertzel_power(block, flank_lo, rate) +
                                  dsp::goertzel_power(block, flank_hi, rate));
    window_snr.push_back(
        dsp::db_from_power_ratio(p_pilot / std::max(p_noise, 1e-30)));
  }
  result.pilot_snr_db =
      window_snr.empty()
          ? dsp::db_from_power_ratio(
                dsp::goertzel_power(mpx, kPilotHz, rate) /
                std::max(0.5 * (dsp::goertzel_power(mpx, flank_lo, rate) +
                                dsp::goertzel_power(mpx, flank_hi, rate)),
                         1e-30))
          : dsp::quantile(window_snr, 0.5);
  const bool stereo_mode =
      !config.force_mono &&
      result.pilot_snr_db >= config.pilot_detect_threshold.raw();
  result.pilot_detected = stereo_mode;

  // ---- Mono path: L+R below 15 kHz. ----
  dsp::FirFilter<float> mono_lp(
      dsp::fir_design_lowpass(kChannelFilterTaps, kMonoAudioHiHz / rate));
  dsp::rvec mid = mono_lp.process(mpx);

  dsp::rvec side(mid.size(), 0.0F);
  if (stereo_mode) {
    // ---- Pilot extraction and 38 kHz carrier regeneration. ----
    dsp::Biquad pilot_bp(dsp::biquad_bandpass(kPilotHz / rate, 40.0));
    dsp::OnePoleLowpass env_lp = dsp::OnePoleLowpass::from_corner(200.0, rate);
    dsp::rvec carrier38(mpx.size());
    for (std::size_t i = 0; i < mpx.size(); ++i) {
      const float p = pilot_bp.process_sample(mpx[i]);
      // Envelope: amplitude^2 = 2 * lowpass(p^2) for a sinusoid.
      const float e2 = env_lp.process_sample(p * p) * 2.0F;
      const float amp = std::sqrt(std::max(e2, 1e-12F));
      const float s = std::clamp(p / amp, -1.0F, 1.0F);  // ~cos(theta)
      carrier38[i] = 2.0F * s * s - 1.0F;                // cos(2 theta)
    }

    // ---- Stereo subband, synchronous demodulation. ----
    dsp::FirFilter<float> stereo_bp(dsp::fir_design_bandpass(
        kChannelFilterTaps, kStereoBandLoHz / rate, kStereoBandHiHz / rate));
    dsp::rvec sub = stereo_bp.process(mpx);
    // The band-pass delays the subcarrier by (N-1)/2 samples; delay the
    // regenerated carrier equally so the product is phase-coherent.
    const std::size_t delay = (kChannelFilterTaps - 1) / 2;
    dsp::rvec product(sub.size(), 0.0F);
    for (std::size_t i = delay; i < sub.size(); ++i) {
      product[i] = 2.0F * sub[i] * carrier38[i - delay];
    }
    dsp::FirFilter<float> side_lp(
        dsp::fir_design_lowpass(kChannelFilterTaps, kMonoAudioHiHz / rate));
    side = side_lp.process(product);
    // `side` now lags `mid` by one extra channel-filter delay; realign.
    dsp::rvec aligned(side.size(), 0.0F);
    const std::size_t lag = (kChannelFilterTaps - 1) / 2;
    for (std::size_t i = 0; i + lag < side.size(); ++i) {
      aligned[i] = side[i + lag];
    }
    side = std::move(aligned);
  }

  // ---- Matrix back to L/R, undo the program level, decimate to audio rate.
  const float inv_level = config.program_level > 0.0
                              ? static_cast<float>(1.0 / config.program_level)
                              : 1.0F;
  dsp::rvec left_mpx(mid.size()), right_mpx(mid.size());
  for (std::size_t i = 0; i < mid.size(); ++i) {
    const float m = mid[i] * inv_level;
    const float s = side[i] * inv_level;
    left_mpx[i] = m + s;
    right_mpx[i] = m - s;
  }

  const std::size_t trimmed = left_mpx.size() / decim * decim;
  left_mpx.resize(trimmed);
  right_mpx.resize(trimmed);
  const auto audio_taps = dsp::fir_design_lowpass(
      kChannelFilterTaps, 0.45 / static_cast<double>(decim));
  dsp::FirDecimator<float> dec_l(audio_taps, decim);
  dsp::FirDecimator<float> dec_r(audio_taps, decim);
  std::vector<float> left = dec_l.process(left_mpx);
  std::vector<float> right = dec_r.process(right_mpx);

  if (config.deemphasis) {
    const units::Seconds tau{fm::kDeemphasisSeconds};
    fm::DeEmphasis de_l(tau, config.audio_rate);
    fm::DeEmphasis de_r(tau, config.audio_rate);
    left = de_l.process(left);
    right = de_r.process(right);
  }

  result.audio =
      audio::StereoBuffer(std::move(left), std::move(right), config.audio_rate);
  return result;
}

/// Whole-buffer phone recording chain (mono).
inline audio::MonoBuffer apply_phone_chain(
    const audio::MonoBuffer& in, const rx::PhoneChainConfig& config = {},
    std::uint64_t noise_seed = 99) {
  if (in.empty()) throw std::invalid_argument("apply_phone_chain: empty input");
  if (config.cutoff_hz >= in.sample_rate / 2.0) {
    throw std::invalid_argument("apply_phone_chain: cutoff above Nyquist");
  }
  return audio::MonoBuffer(
      detail::process_phone_channel(in.samples, in.sample_rate, config,
                                    noise_seed),
      in.sample_rate);
}

/// Whole-buffer phone recording chain (stereo: matched per-channel chains).
inline audio::StereoBuffer apply_phone_chain(
    const audio::StereoBuffer& in, const rx::PhoneChainConfig& config = {},
    std::uint64_t noise_seed = 99) {
  if (in.empty()) throw std::invalid_argument("apply_phone_chain: empty input");
  return audio::StereoBuffer(
      detail::process_phone_channel(in.left, in.sample_rate, config,
                                    noise_seed),
      detail::process_phone_channel(in.right, in.sample_rate, config,
                                    noise_seed + 1),
      in.sample_rate);
}

/// Whole-buffer cabin speaker -> microphone path.
inline audio::MonoBuffer apply_cabin_acoustics(
    const audio::MonoBuffer& in, const rx::CabinConfig& config = {},
    std::uint64_t noise_seed = 7) {
  if (in.empty()) {
    throw std::invalid_argument("apply_cabin_acoustics: empty input");
  }
  const double rate = in.sample_rate;
  const auto d1 = static_cast<std::size_t>(config.reflection1_delay_s * rate);
  const auto d2 = static_cast<std::size_t>(config.reflection2_delay_s * rate);

  std::vector<float> out(in.size(), 0.0F);
  const auto g1 = static_cast<float>(config.reflection1_gain);
  const auto g2 = static_cast<float>(config.reflection2_gain);
  for (std::size_t i = 0; i < in.size(); ++i) {
    float v = in.samples[i];
    if (i >= d1) v += g1 * in.samples[i - d1];
    if (i >= d2) v += g2 * in.samples[i - d2];
    out[i] = v;
  }

  // Engine idle: fundamental + harmonics with amplitude jitter, plus a weak
  // broadband floor from the HVAC / road.
  if (config.engine_noise_rms > 0.0) {
    std::mt19937_64 rng(noise_seed);
    std::normal_distribution<float> g(0.0F, 1.0F);
    const double f0 = config.engine_fundamental_hz;
    double ph1 = 0.0, ph2 = 0.0, ph3 = 0.0;
    const double s1 = dsp::kTwoPi * f0 / rate;
    const double s2 = dsp::kTwoPi * 2.0 * f0 / rate;
    const double s3 = dsp::kTwoPi * 4.0 * f0 / rate;
    const auto rms = static_cast<float>(config.engine_noise_rms);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ph1 += s1;
      ph2 += s2;
      ph3 += s3;
      const float rumble = static_cast<float>(
          0.8 * std::sin(ph1) + 0.5 * std::sin(ph2) + 0.25 * std::sin(ph3));
      out[i] += rms * (rumble + 0.35F * g(rng));
    }
  }

  dsp::Biquad hp(dsp::biquad_highpass(config.mic_highpass_hz / rate, 0.707));
  dsp::Biquad lp(dsp::biquad_lowpass(config.mic_lowpass_hz / rate, 0.707));
  for (auto& v : out) v = lp.process_sample(hp.process_sample(v));
  return audio::MonoBuffer(std::move(out), rate);
}

/// Whole-capture RDS decode of the window [start, start + duration) (a
/// negative duration extends to the end of the capture).
inline rx::RdsLinkReport decode_rds_link(std::span<const float> mpx,
                                         double sample_rate,
                                         double start_seconds = 0.0,
                                         double duration_seconds = -1.0) {
  if (mpx.empty() || sample_rate <= 0.0) return rx::RdsLinkReport{};
  const std::size_t begin = std::min(
      mpx.size(),
      static_cast<std::size_t>(std::max(0.0, start_seconds) * sample_rate));
  std::size_t length = mpx.size() - begin;
  if (duration_seconds >= 0.0) {
    length = std::min(
        length, static_cast<std::size_t>(duration_seconds * sample_rate));
  }
  return rx::rds_link_report_from(
      fm::decode_rds(mpx.subspan(begin, length), sample_rate));
}

/// Slices one burst's window out of the whole capture and scores it.
inline rx::BurstReport demodulate_burst(const audio::MonoBuffer& capture,
                                        const rx::BurstSpec& burst) {
  const double fs = capture.sample_rate;
  const rx::BurstWindowBounds bounds =
      rx::burst_window_bounds(burst, fs, capture.size());
  audio::MonoBuffer window({}, fs);
  if (bounds.valid) {
    window = audio::MonoBuffer(
        std::vector<float>(
            capture.samples.begin() + static_cast<std::ptrdiff_t>(bounds.begin),
            capture.samples.begin() +
                static_cast<std::ptrdiff_t>(bounds.begin + bounds.length)),
        fs);
  }
  return rx::score_burst_window(window, burst, bounds.valid);
}

}  // namespace fmbs::reference
