// Smartphone audio chain model: what happens to FM audio between the
// receiver chip and the recorded file on the phone (paper section 5.1).
// Fig. 6 measures "a good response below 13 kHz, after which there is a
// sharp drop" attributed to the receiver / recording app / AAC compression;
// this module reproduces that cutoff plus an optional hardware AGC — the
// gain control whose behaviour cooperative backscatter must calibrate out.
#pragma once

#include <vector>

#include "audio/audio_buffer.h"
#include "dsp/agc.h"
#include "dsp/iir.h"

namespace fmbs::rx {

/// Butterworth low-pass as cascaded second-order sections (even order >= 2;
/// throws otherwise). rx::PhoneChainStream's cutoff filter.
std::vector<dsp::BiquadCoeffs> butterworth_lowpass(double cutoff_norm,
                                                   int order);

/// Phone chain options.
struct PhoneChainConfig {
  double cutoff_hz = 13000.0;      // app/codec low-pass (Fig. 6)
  int filter_order = 8;            // cascaded-biquad order (steep cliff)
  double codec_noise_rms = 5e-4;   // AAC-ish coding noise floor (caps the
                                   // strongest-signal audio SNR near the
                                   // paper's ~55 dB, Fig. 7)
  bool enable_agc = false;         // hardware gain control
  dsp::Agc::Config agc;
};

/// Applies the phone recording chain to decoded FM audio: the whole buffer
/// through one rx::PhoneChainStream (rx/device_stream.h). Throws
/// std::invalid_argument on empty input or a cutoff at or above Nyquist.
audio::MonoBuffer apply_phone_chain(const audio::MonoBuffer& in,
                                    const PhoneChainConfig& config = {},
                                    std::uint64_t noise_seed = 99);

/// Stereo variant (both channels through matched chains; the right
/// channel's codec noise is seeded `noise_seed + 1`).
audio::StereoBuffer apply_phone_chain(const audio::StereoBuffer& in,
                                      const PhoneChainConfig& config = {},
                                      std::uint64_t noise_seed = 99);

}  // namespace fmbs::rx
