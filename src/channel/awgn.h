// Complex additive white Gaussian noise, specified the way receiver noise is
// quoted: dBm within a reference bandwidth (the 200 kHz FM channel).
//
// The noise is counter-keyed: complex sample k of a source seeded s is
// box_muller(core::derive_seed(s, k)) (dsp/simd.h) scaled by the
// per-component sigma. Sample k therefore depends only on (s, k), not on how
// the stream was cut into add_to() calls or on any earlier block — a block
// can be rendered without first rendering the ones before it. The Gaussian
// kernel is written out in dsp/simd.h (polynomial log and sincos) instead of
// using the normal distribution of <random>, whose algorithm differs between
// standard libraries; the SSE2 and scalar builds produce the same bits.
#pragma once

#include <cstdint>
#include <span>

#include "core/units.h"
#include "dsp/types.h"

namespace fmbs::channel {

/// Streaming complex AWGN source.
class AwgnSource {
 public:
  /// noise_in_ref_bw: noise power within reference_bandwidth.
  /// sample_rate: simulation rate; the generated noise is white across the
  /// whole rate, so total noise power is scaled by sample_rate / ref_bw.
  AwgnSource(units::Dbm noise_in_ref_bw, units::Hertz reference_bandwidth,
             double sample_rate, std::uint64_t seed);

  /// Adds the next block.size() noise samples in place.
  void add_to(std::span<dsp::cfloat> block);

  /// Per-sample complex noise variance (I^2 + Q^2 expectation).
  double variance() const { return variance_; }

 private:
  double variance_;
  float sigma_per_component_;
  std::uint64_t seed_;
  std::uint64_t next_index_ = 0;  // absolute index of the next complex sample
};

}  // namespace fmbs::channel
