// Per-tag link superposition kernels: the RF scene at a receiver is the
// direct station wave plus one scaled reflected wave per active tag,
//
//   rf[i] = g_direct * station[i] + sum_t g_t * reflected_t[i]
//
// computed with one scale pass and one scaled-accumulate pass per tag. The
// operation order is fixed (scalar multiply rounds, then the add rounds), so
// a one-tag scene reproduces the committed golden traces bit for bit.
#pragma once

#include <span>

#include "dsp/types.h"

namespace fmbs::channel {

/// dst[i] = gain * src[i]. Spans must be the same length.
void scale_into(std::span<dsp::cfloat> dst, std::span<const dsp::cfloat> src,
                float gain);

/// dst[i] += gain * src[i] (complex axpy). Spans must be the same length.
void accumulate_scaled(std::span<dsp::cfloat> dst,
                       std::span<const dsp::cfloat> src, float gain);

}  // namespace fmbs::channel
