#include "rx/device_stream.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/math_util.h"

namespace fmbs::rx {

PhoneChainStream::PhoneChainStream(const PhoneChainConfig& config,
                                   double sample_rate,
                                   std::uint64_t noise_seed)
    : lowpass_(butterworth_lowpass(config.cutoff_hz / sample_rate,
                                   config.filter_order)),
      add_noise_(config.codec_noise_rms > 0.0),
      rng_(noise_seed),
      noise_(0.0F, static_cast<float>(std::max(config.codec_noise_rms,
                                               1e-30))) {
  if (config.cutoff_hz >= sample_rate / 2.0) {
    throw std::invalid_argument("PhoneChainStream: cutoff above Nyquist");
  }
  if (config.enable_agc) agc_.emplace(config.agc, sample_rate);
}

void PhoneChainStream::process_inplace(std::span<float> audio) {
  // Three passes per block: the cascade never touches the RNG and the AGC
  // sees the noise-added stream, so the per-block passes produce the same
  // sequences as three passes over the whole stream.
  for (auto& v : audio) v = lowpass_.process_sample(v);
  if (add_noise_) {
    for (auto& v : audio) v += noise_(rng_);
  }
  if (agc_) {
    for (auto& v : audio) v = agc_->process_sample(v);
  }
}

CabinAcousticsStream::CabinAcousticsStream(const CabinConfig& config,
                                           double sample_rate,
                                           std::uint64_t noise_seed)
    : cfg_(config),
      d1_(static_cast<std::size_t>(config.reflection1_delay_s * sample_rate)),
      d2_(static_cast<std::size_t>(config.reflection2_delay_s * sample_rate)),
      engine_noise_(config.engine_noise_rms > 0.0),
      rng_(noise_seed),
      gauss_(0.0F, 1.0F),
      s1_(dsp::kTwoPi * config.engine_fundamental_hz / sample_rate),
      s2_(dsp::kTwoPi * 2.0 * config.engine_fundamental_hz / sample_rate),
      s3_(dsp::kTwoPi * 4.0 * config.engine_fundamental_hz / sample_rate),
      rms_(static_cast<float>(config.engine_noise_rms)),
      mic_hp_(dsp::biquad_highpass(config.mic_highpass_hz / sample_rate,
                                   0.707)),
      mic_lp_(dsp::biquad_lowpass(config.mic_lowpass_hz / sample_rate,
                                  0.707)) {
  hist_.assign(std::max({d1_, d2_, std::size_t{1}}), 0.0F);
}

void CabinAcousticsStream::process_inplace(std::span<float> audio) {
  const auto g1 = static_cast<float>(cfg_.reflection1_gain);
  const auto g2 = static_cast<float>(cfg_.reflection2_gain);
  const std::size_t cap = hist_.size();
  for (auto& sample : audio) {
    const std::size_t i = index_++;
    const float x = sample;
    float v = x;
    if (i >= d1_) v += g1 * (d1_ == 0 ? x : hist_[(i - d1_) % cap]);
    if (i >= d2_) v += g2 * (d2_ == 0 ? x : hist_[(i - d2_) % cap]);
    hist_[i % cap] = x;
    if (engine_noise_) {
      ph1_ += s1_;
      ph2_ += s2_;
      ph3_ += s3_;
      const float rumble =
          static_cast<float>(0.8 * std::sin(ph1_) + 0.5 * std::sin(ph2_) +
                             0.25 * std::sin(ph3_));
      v += rms_ * (rumble + 0.35F * gauss_(rng_));
    }
    sample = mic_lp_.process_sample(mic_hp_.process_sample(v));
  }
}

}  // namespace fmbs::rx
