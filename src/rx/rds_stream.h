// Block-fed RDS link decoder — the library's one RDS window decoder;
// rx::decode_rds_link is a push-everything-then-finish wrapper over it. The
// front end (fm/rds.h: mix the 57 kHz subcarrier to DC, 2.4 kHz low-pass)
// runs block by block with persistent mixer/filter state over the decode
// window, and the global stages (phase estimate, symbol timing search,
// differential decode, block sync) run once at window close via
// fm::decode_rds_baseband — the same result for any block split, at
// O(window) memory instead of O(run).
//
// Windows are bounded: a tag burst's window is its on-air time plus slack,
// and an unbounded station window (duration < 0: "decode the whole
// capture") can be capped with `max_window_seconds` so soak runs stay at
// O(1) memory — the station's PS name then decodes from the first cap
// seconds of the run, which is what a real radio's RDS display does anyway.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/fir.h"
#include "dsp/nco.h"
#include "dsp/types.h"
#include "rx/rds_path.h"

namespace fmbs::rx {

/// Accumulates one RDS decode window from sequential MPX blocks. Feed every
/// block of the receiver's post-demodulation MPX, in order, from sample 0.
class RdsStreamDecoder {
 public:
  /// The window starts at `start_seconds` (clamped to >= 0) and spans
  /// `duration_seconds` of a capture of `capture_samples`, clamped to the
  /// capture: the capture length must be known up front (the scene pipeline
  /// knows its padded block count before the first sample).
  /// `duration_seconds < 0` extends to the end of the capture;
  /// `max_window_seconds > 0` additionally caps the window. Throws
  /// std::invalid_argument when `sample_rate` is not > 0.
  RdsStreamDecoder(double sample_rate, std::size_t capture_samples,
                   double start_seconds = 0.0, double duration_seconds = -1.0,
                   double max_window_seconds = -1.0);

  /// Consumes the next MPX block (arbitrary length; samples outside the
  /// window are skipped, samples inside stream through the front end).
  void push(std::span<const float> mpx);

  /// True once every window sample has been filtered (the link can be
  /// reported mid-stream).
  bool window_complete() const { return filtered_ == length_; }

  /// Bytes of baseband buffer this decoder holds at peak.
  std::size_t buffer_bytes() const { return length_ * sizeof(dsp::cfloat); }

  /// Runs the global decode stages over the collected baseband and reports
  /// link statistics (call after window_complete() or at end of stream).
  RdsLinkReport finish() const;

 private:
  double sample_rate_;
  std::size_t begin_ = 0;
  std::size_t length_ = 0;
  std::size_t cursor_ = 0;    // absolute stream position
  std::size_t filtered_ = 0;  // window samples through the front end
  dsp::Mixer mixer_;
  dsp::FirFilter<dsp::cfloat> lowpass_;
  std::vector<dsp::cfloat> base_;
  std::vector<dsp::cfloat> work_;
};

}  // namespace fmbs::rx
