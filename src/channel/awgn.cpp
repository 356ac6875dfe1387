#include "channel/awgn.h"

#include <cmath>
#include <stdexcept>

#include "core/rng.h"
#include "dsp/simd.h"

namespace fmbs::channel {

AwgnSource::AwgnSource(units::Dbm noise_in_ref_bw, units::Hertz reference_bandwidth,
                       double sample_rate, std::uint64_t seed)
    : seed_(seed) {
  if (reference_bandwidth.raw() <= 0.0 || sample_rate <= 0.0) {
    throw std::invalid_argument("AwgnSource: bad bandwidth or rate");
  }
  const double ref_power = noise_in_ref_bw.to_watts().raw();
  variance_ = ref_power * sample_rate / reference_bandwidth.raw();
  sigma_per_component_ = static_cast<float>(std::sqrt(variance_ / 2.0));
}

void AwgnSource::add_to(std::span<dsp::cfloat> block) {
  float* iq = reinterpret_cast<float*>(block.data());
  const float sigma = sigma_per_component_;
  const std::uint64_t k0 = next_index_;
  const std::size_t n = block.size();
  std::size_t i = 0;
#if FMBS_SIMD_ENABLED
  const __m128 g = _mm_set1_ps(sigma);
  // The hashes of samples k and k + 1 as 32-bit lanes (lo_k, lo_k+1, hi_k,
  // hi_k+1), built in registers.
  const auto hash_pair = [this](std::uint64_t k) {
    return _mm_shuffle_epi32(
        _mm_set_epi64x(static_cast<long long>(core::derive_seed(seed_, k + 1)),
                       static_cast<long long>(core::derive_seed(seed_, k))),
        _MM_SHUFFLE(3, 1, 2, 0));
  };
  for (; i + 4 <= n; i += 4) {
    const __m128i h01 = hash_pair(k0 + i);
    const __m128i h23 = hash_pair(k0 + i + 2);
    __m128 zi;
    __m128 zq;
    dsp::simd::box_muller_ps(_mm_unpackhi_epi64(h01, h23),
                             _mm_unpacklo_epi64(h01, h23), &zi, &zq);
    float* p = iq + 2 * i;
    _mm_storeu_ps(p, _mm_add_ps(_mm_loadu_ps(p),
                                _mm_mul_ps(g, _mm_unpacklo_ps(zi, zq))));
    _mm_storeu_ps(p + 4, _mm_add_ps(_mm_loadu_ps(p + 4),
                                    _mm_mul_ps(g, _mm_unpackhi_ps(zi, zq))));
  }
#endif
  for (; i < n; ++i) {
    float zi = 0.0F;
    float zq = 0.0F;
    dsp::simd::box_muller(core::derive_seed(seed_, k0 + i), &zi, &zq);
    iq[2 * i] += sigma * zi;
    iq[2 * i + 1] += sigma * zq;
  }
  next_index_ = k0 + n;
}

}  // namespace fmbs::channel
