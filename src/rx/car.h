// Car receiver model (paper section 5.4 / Fig. 14). Differences from the
// phone: a proper whip antenna with the car body as ground plane (lower
// effective noise floor), a non-programmable stereo limited to overlay
// backscatter, and measurement through a microphone recording the cabin
// speakers "with the car's engine running and the windows closed".
#pragma once

#include <cstdint>

#include "audio/audio_buffer.h"

namespace fmbs::rx {

/// Cabin acoustics / measurement-chain options.
struct CabinConfig {
  /// Direct-plus-reflection impulse response of the cabin (seconds, gain).
  double reflection1_delay_s = 0.0021;
  double reflection1_gain = 0.35;
  double reflection2_delay_s = 0.0057;
  double reflection2_gain = 0.18;
  /// Engine-idle rumble level (the paper runs the engine).
  double engine_noise_rms = 0.004;
  double engine_fundamental_hz = 30.0;  // ~900 rpm idle
  /// Microphone band limits.
  double mic_highpass_hz = 80.0;
  double mic_lowpass_hz = 14000.0;
};

/// Applies the cabin speaker -> microphone path to receiver audio: the
/// whole buffer through one rx::CabinAcousticsStream (rx/device_stream.h).
/// Throws std::invalid_argument on empty input.
audio::MonoBuffer apply_cabin_acoustics(const audio::MonoBuffer& in,
                                        const CabinConfig& config = {},
                                        std::uint64_t noise_seed = 7);

}  // namespace fmbs::rx
