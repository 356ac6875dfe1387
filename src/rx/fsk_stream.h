// Block-fed FSK burst decoder: a collector that watches a receiver's
// decoded-audio stream, keeps exactly the burst's demodulation window
// (rx::burst_window_bounds) and scores the burst once the window is
// complete, at O(burst) memory instead of O(run). The capture length must
// be known up front (the scene pipeline knows its padded block count before
// the first sample), so a window truncated by the end of the run resolves
// to the same bounds as one cut from the whole capture.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "rx/multitag.h"

namespace fmbs::rx {

/// Accumulates one burst's demodulation window from sequential audio blocks
/// and scores it with the shared window scorer. Feed every block of the
/// receiver's audio stream, in order, starting from sample 0.
class StreamingBurstDemodulator {
 public:
  StreamingBurstDemodulator(const BurstSpec& burst, double sample_rate,
                            std::size_t capture_samples);

  /// Consumes the next audio block (arbitrary length; the collector keeps
  /// only samples inside its window).
  void push(std::span<const float> audio);

  /// True once every sample of the window has been collected (the burst can
  /// be scored mid-stream — this is what makes live decode serving work).
  bool window_complete() const { return collected_ == bounds_.length; }

  /// Bytes of window buffer this collector holds at peak.
  std::size_t buffer_bytes() const { return bounds_.length * sizeof(float); }

  /// Scores the collected window (call once, after window_complete() or at
  /// end of stream — a truncated window scores like the same slice of the
  /// whole capture, because the bounds were clamped up front).
  BurstReport finish() const;

 private:
  BurstSpec burst_;
  double sample_rate_;
  BurstWindowBounds bounds_;
  std::vector<float> window_;
  std::size_t cursor_ = 0;     // absolute stream position
  std::size_t collected_ = 0;  // window samples captured so far
};

}  // namespace fmbs::rx
