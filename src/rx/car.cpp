#include "rx/car.h"

#include <stdexcept>

#include "rx/device_stream.h"

namespace fmbs::rx {

audio::MonoBuffer apply_cabin_acoustics(const audio::MonoBuffer& in,
                                        const CabinConfig& config,
                                        std::uint64_t noise_seed) {
  if (in.empty()) throw std::invalid_argument("apply_cabin_acoustics: empty input");
  audio::MonoBuffer out = in;
  CabinAcousticsStream(config, in.sample_rate, noise_seed)
      .process_inplace(out.samples);
  return out;
}

}  // namespace fmbs::rx
