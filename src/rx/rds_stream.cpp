#include "rx/rds_stream.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fm/rds.h"

namespace fmbs::rx {

namespace {

double checked_rate(double sample_rate) {
  if (!(sample_rate > 0.0)) {
    throw std::invalid_argument("RdsStreamDecoder: sample rate must be > 0");
  }
  return sample_rate;
}

}  // namespace

RdsStreamDecoder::RdsStreamDecoder(double sample_rate,
                                   std::size_t capture_samples,
                                   double start_seconds,
                                   double duration_seconds,
                                   double max_window_seconds)
    : sample_rate_(checked_rate(sample_rate)),
      mixer_(fm::kRdsFrontEndMixHz, sample_rate_),
      lowpass_(dsp::fir_design_lowpass(
          fm::kRdsFrontEndTaps, fm::kRdsFrontEndCutoffHz / sample_rate_)) {
  // The window, clamped to the capture (an empty capture has an empty one).
  begin_ = std::min(
      capture_samples,
      static_cast<std::size_t>(std::max(0.0, start_seconds) * sample_rate_));
  length_ = capture_samples - begin_;
  if (duration_seconds >= 0.0) {
    length_ = std::min(
        length_, static_cast<std::size_t>(duration_seconds * sample_rate_));
  }
  if (max_window_seconds > 0.0) {
    length_ = std::min(
        length_, static_cast<std::size_t>(max_window_seconds * sample_rate_));
  }
  base_.reserve(length_);
}

void RdsStreamDecoder::push(std::span<const float> mpx) {
  const std::size_t lo = begin_;
  const std::size_t hi = begin_ + length_;
  const std::size_t block_lo = cursor_;
  const std::size_t block_hi = cursor_ + mpx.size();
  cursor_ = block_hi;
  if (block_hi <= lo || block_lo >= hi) return;
  const std::size_t from = std::max(block_lo, lo);
  const std::size_t to = std::min(block_hi, hi);
  // Front end of fm::decode_rds, block-streamed: complex downconversion of
  // the 57 kHz subcarrier (the mixer's phase starts at the window begin)
  // into the persistent low-pass. Block-fed FIR state makes the chunked
  // output bit-identical to filtering the whole window at once.
  work_.resize(to - from);
  for (std::size_t i = 0; i < work_.size(); ++i) {
    work_[i] = dsp::cfloat(mpx[from - block_lo + i], 0.0F);
  }
  mixer_.process_inplace(work_);
  const dsp::cvec filtered = lowpass_.process(work_);
  base_.insert(base_.end(), filtered.begin(), filtered.end());
  filtered_ += to - from;
}

RdsLinkReport RdsStreamDecoder::finish() const {
  return rds_link_report_from(fm::decode_rds_baseband(base_, sample_rate_));
}

}  // namespace fmbs::rx
