#include "rx/phone_chain.h"

#include <cmath>
#include <stdexcept>

#include "dsp/iir.h"
#include "dsp/math_util.h"
#include "rx/device_stream.h"

namespace fmbs::rx {

// Butterworth Q values for a cascade of second-order sections.
std::vector<dsp::BiquadCoeffs> butterworth_lowpass(double cutoff_norm, int order) {
  if (order < 2 || order % 2 != 0) {
    throw std::invalid_argument("butterworth_lowpass: order must be even >= 2");
  }
  std::vector<dsp::BiquadCoeffs> sections;
  const int pairs = order / 2;
  for (int k = 0; k < pairs; ++k) {
    const double theta =
        dsp::kPi * (2.0 * k + 1.0) / (2.0 * order);
    const double q = 1.0 / (2.0 * std::cos(theta));
    sections.push_back(dsp::biquad_lowpass(cutoff_norm, q));
  }
  return sections;
}

audio::MonoBuffer apply_phone_chain(const audio::MonoBuffer& in,
                                    const PhoneChainConfig& config,
                                    std::uint64_t noise_seed) {
  if (in.empty()) throw std::invalid_argument("apply_phone_chain: empty input");
  audio::MonoBuffer out = in;
  PhoneChainStream(config, in.sample_rate, noise_seed)
      .process_inplace(out.samples);
  return out;
}

audio::StereoBuffer apply_phone_chain(const audio::StereoBuffer& in,
                                      const PhoneChainConfig& config,
                                      std::uint64_t noise_seed) {
  if (in.empty()) throw std::invalid_argument("apply_phone_chain: empty input");
  audio::StereoBuffer out = in;
  PhoneChainStream(config, in.sample_rate, noise_seed)
      .process_inplace(out.left);
  PhoneChainStream(config, in.sample_rate, noise_seed + 1)
      .process_inplace(out.right);
  return out;
}

}  // namespace fmbs::rx
