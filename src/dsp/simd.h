// SSE2 kernels for the hot DSP inner loops, behind the FMBS_SIMD gate
// (CMake option FMBS_SIMD, ON by default; scalar fallbacks compile when the
// gate is off or the target has no SSE2).
//
// Bit-compatibility contract: every kernel here vectorizes ACROSS OUTPUTS —
// each SIMD lane accumulates its output's taps serially, in exactly the
// scalar loop's order — so no floating-point reassociation happens and the
// results are bit-identical to the scalar implementations. (Vectorizing
// across taps would reassociate the accumulation and is deliberately
// avoided.) Baseline x86-64 SSE2 has no FMA, so there is no contraction
// risk either. The one tolerance-pinned exception in the codebase — the
// NCO rotator recurrence — lives in nco.cpp/subcarrier.cpp, not here, and
// is justified at its call sites and pinned by tests.
//
// The Gaussian-noise kernel (box_muller / box_muller_ps) is elementwise: each
// lane runs the scalar reference's float operations in the same order, so it
// is bit-identical too. Its log and sincos are polynomials written out here,
// not libm calls, which is what makes noise identical across builds and
// standard libraries.
//
// std::complex<float> arrays are addressed through reinterpret_cast<float*>:
// the standard guarantees array-of-complex is layout-compatible with
// interleaved re/im float pairs ([complex.numbers.general]).
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(FMBS_SIMD) && defined(__SSE2__)
#define FMBS_SIMD_ENABLED 1
#include <emmintrin.h>
#else
#define FMBS_SIMD_ENABLED 0
#endif

namespace fmbs::dsp::simd {

/// True when the SIMD kernels are compiled in (FMBS_SIMD + SSE2 target).
inline constexpr bool kEnabled = FMBS_SIMD_ENABLED == 1;

// ---- Gaussian pairs from 64 hash bits (scalar reference) ------------------
// box_muller(h) maps one 64-bit hash to two independent N(0, 1) floats:
//   u     = (hi32(h) + 1/2) / 2^32, in (0, 1]. All 32 bits are used and 0 is
//           excluded, so r = sqrt(-2 ln u) is finite and reaches 6.76 sigma.
//   theta = 2 pi lo32(h) / 2^32. The top two bits, rounded, pick the
//           quadrant exactly; the polynomials only see |x| <= pi/4.
//   (z0, z1) = r (cos theta, sin theta).

/// Natural log of a positive normal float: Cephes logf (split the exponent
/// around sqrt(1/2), degree-8 polynomial in the mantissa). On [2^-33, 1]
/// it is within 1.2e-7 of std::log, absolute below |ln x| = 1 and relative
/// above; pinned by test_simd_kernels.
inline float log_poly(float x) {
  const auto bits = std::bit_cast<std::uint32_t>(x);
  float e = static_cast<float>(static_cast<std::int32_t>(bits >> 23) - 126);
  float m = std::bit_cast<float>((bits & 0x007fffffU) | 0x3f000000U);  // [0.5, 1)
  if (m < 0.707106781186547524F) {
    e = e - 1.0F;
    m = (m - 1.0F) + m;
  } else {
    m = m - 1.0F;
  }
  const float z = m * m;
  float y = 7.0376836292E-2F;
  y = y * m + -1.1514610310E-1F;
  y = y * m + 1.1676998740E-1F;
  y = y * m + -1.2420140846E-1F;
  y = y * m + 1.4249322787E-1F;
  y = y * m + -1.6668057665E-1F;
  y = y * m + 2.0000714765E-1F;
  y = y * m + -2.4999993993E-1F;
  y = y * m + 3.3333331174E-1F;
  y = (y * m) * z;
  y = y + e * -2.12194440E-4F;
  y = y + z * -0.5F;
  return (m + y) + e * 0.693359375F;
}

/// sin and cos of the turn angle 2 pi a / 2^32, within 1.5e-7 of libm.
inline void sincos_turn(std::uint32_t a, float* s, float* c) {
  const std::uint32_t q = (a + 0x20000000U) >> 30;  // nearest quarter turn
  const auto off = static_cast<std::int32_t>(a - (q << 30));
  const float x = static_cast<float>(off) * 1.46291807926715968e-9F;  // 2pi/2^32
  const float z = x * x;
  float ps = -1.9515295891e-4F;
  ps = ps * z + 8.3321608736e-3F;
  ps = ps * z + -1.6666654611e-1F;
  ps = (ps * z) * x + x;
  float pc = 2.443315711809948e-5F;
  pc = pc * z + -1.388731625493765e-3F;
  pc = pc * z + 4.166664568298827e-2F;
  pc = ((pc * z) * z - z * 0.5F) + 1.0F;
  // Rotate (cos x, sin x) by q quarter turns.
  float cq = (q & 1U) != 0 ? ps : pc;
  float sq = (q & 1U) != 0 ? pc : ps;
  if (q == 1 || q == 2) cq = -cq;
  if (q >= 2) sq = -sq;
  *s = sq;
  *c = cq;
}

/// (m + 1/2) / 2^32 without losing the low bits of small m.
inline float unit_open_zero(std::uint32_t m) {
  const float f = static_cast<float>(m >> 16) * 65536.0F +
                  static_cast<float>(m & 0xffffU);
  return f * 2.3283064365386962890625e-10F + 1.16415321826934814453125e-10F;
}

inline void box_muller(std::uint64_t h, float* z0, float* z1) {
  const float r2 =
      -2.0F * log_poly(unit_open_zero(static_cast<std::uint32_t>(h >> 32)));
  const float r = std::sqrt(r2 > 0.0F ? r2 : 0.0F);
  float s = 0.0F;
  float c = 0.0F;
  sincos_turn(static_cast<std::uint32_t>(h), &s, &c);
  *z0 = r * c;
  *z1 = r * s;
}

#if FMBS_SIMD_ENABLED

/// dst[i] = gain * src[i] over n floats (a complex span is 2n floats).
inline void scale_f32(float* dst, const float* src, float gain,
                      std::size_t n) {
  const __m128 g = _mm_set1_ps(gain);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(dst + i, _mm_mul_ps(g, _mm_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] = gain * src[i];
}

/// dst[i] += gain * src[i] over n floats.
inline void axpy_f32(float* dst, const float* src, float gain,
                     std::size_t n) {
  const __m128 g = _mm_set1_ps(gain);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(dst + i, _mm_add_ps(_mm_loadu_ps(dst + i),
                                      _mm_mul_ps(g, _mm_loadu_ps(src + i))));
  }
  for (; i < n; ++i) dst[i] += gain * src[i];
}

/// Real FIR across outputs: out[i * out_stride] = sum_t x[i + t] * rt[t]
/// for i in [0, n), with rt the REVERSED tap vector (rt[t] = taps[nt-1-t])
/// so the scalar loop `acc += x[t] * taps[nt-1-t]` reads rt in ascending
/// order. Four outputs per vector; each lane accumulates taps serially.
inline void fir_f32(const float* x, const float* rt, std::size_t nt,
                    float* out, std::size_t out_stride, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128 acc = _mm_setzero_ps();
    const float* xi = x + i;
    for (std::size_t t = 0; t < nt; ++t) {
      acc = _mm_add_ps(acc, _mm_mul_ps(_mm_loadu_ps(xi + t),
                                       _mm_set1_ps(rt[t])));
    }
    if (out_stride == 1) {
      _mm_storeu_ps(out + i, acc);
    } else {
      alignas(16) float lanes[4];
      _mm_store_ps(lanes, acc);
      out[i * out_stride] = lanes[0];
      out[(i + 1) * out_stride] = lanes[1];
      out[(i + 2) * out_stride] = lanes[2];
      out[(i + 3) * out_stride] = lanes[3];
    }
  }
  for (; i < n; ++i) {
    float acc = 0.0F;
    const float* xi = x + i;
    for (std::size_t t = 0; t < nt; ++t) acc += xi[t] * rt[t];
    out[i * out_stride] = acc;
  }
}

/// Complex FIR across outputs with real taps: two complex outputs per
/// vector. x/out are interleaved re/im float arrays; strides are in complex
/// samples. in_stride > 1 implements the polyphase decimator (output o
/// reads x starting at complex index o * in_stride).
inline void fir_cx(const float* x, std::size_t in_stride, const float* rt,
                   std::size_t nt, float* out, std::size_t out_stride,
                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128 acc = _mm_setzero_ps();
    const float* x0 = x + 2 * (i * in_stride);
    const float* x1 = x + 2 * ((i + 1) * in_stride);
    for (std::size_t t = 0; t < nt; ++t) {
      __m128 xv;
      if (in_stride == 1) {
        xv = _mm_loadu_ps(x0 + 2 * t);
      } else {
        xv = _mm_loadl_pi(_mm_setzero_ps(),
                          reinterpret_cast<const __m64*>(x0 + 2 * t));
        xv = _mm_loadh_pi(xv, reinterpret_cast<const __m64*>(x1 + 2 * t));
      }
      acc = _mm_add_ps(acc, _mm_mul_ps(xv, _mm_set1_ps(rt[t])));
    }
    if (out_stride == 1) {
      _mm_storeu_ps(out + 2 * i, acc);
    } else {
      _mm_storel_pi(reinterpret_cast<__m64*>(out + 2 * (i * out_stride)), acc);
      _mm_storeh_pi(
          reinterpret_cast<__m64*>(out + 2 * ((i + 1) * out_stride)), acc);
    }
  }
  for (; i < n; ++i) {
    float re = 0.0F;
    float im = 0.0F;
    const float* xi = x + 2 * (i * in_stride);
    for (std::size_t t = 0; t < nt; ++t) {
      re += xi[2 * t] * rt[t];
      im += xi[2 * t + 1] * rt[t];
    }
    out[2 * (i * out_stride)] = re;
    out[2 * (i * out_stride) + 1] = im;
  }
}

/// 4-lane single-precision sin/cos (Cephes-style range reduction + minimax
/// polynomials, the classic sse_mathfun construction). Accurate to ~2 ulp
/// for |x| < 8192 — the subcarrier NCO feeds it phases below ~100 rad.
/// NOT bit-identical to libm cos/sin; call sites must be tolerance-pinned.
inline void sincos_ps(__m128 x, __m128* s, __m128* c) {
  const __m128 sign_mask = _mm_castsi128_ps(_mm_set1_epi32(
      static_cast<int>(0x80000000U)));
  __m128 sign_bit_sin = _mm_and_ps(x, sign_mask);
  x = _mm_andnot_ps(sign_mask, x);  // |x|

  // j = ((int)(x * 4/pi) + 1) & ~1 — quadrant counter, rounded to even.
  __m128 y = _mm_mul_ps(x, _mm_set1_ps(1.27323954473516F));
  __m128i j = _mm_cvttps_epi32(y);
  j = _mm_add_epi32(j, _mm_set1_epi32(1));
  j = _mm_and_si128(j, _mm_set1_epi32(~1));
  y = _mm_cvtepi32_ps(j);

  // sin sign flips when j & 4; the swap (j & 2) selects which polynomial
  // lands in which output; cos sign flips when exactly one of j&2, j&4.
  const __m128 flip_sin = _mm_castsi128_ps(
      _mm_slli_epi32(_mm_and_si128(j, _mm_set1_epi32(4)), 29));
  sign_bit_sin = _mm_xor_ps(sign_bit_sin, flip_sin);
  const __m128 sign_bit_cos = _mm_castsi128_ps(_mm_slli_epi32(
      _mm_and_si128(_mm_andnot_si128(_mm_sub_epi32(j, _mm_set1_epi32(2)),
                                     _mm_set1_epi32(4)),
                    _mm_set1_epi32(4)),
      29));
  const __m128 poly_mask = _mm_castsi128_ps(_mm_cmpeq_epi32(
      _mm_and_si128(j, _mm_set1_epi32(2)), _mm_setzero_si128()));

  // Extended-precision reduction: x -= j * pi/4 in three parts.
  x = _mm_add_ps(x, _mm_mul_ps(y, _mm_set1_ps(-0.78515625F)));
  x = _mm_add_ps(x, _mm_mul_ps(y, _mm_set1_ps(-2.4187564849853515625e-4F)));
  x = _mm_add_ps(x, _mm_mul_ps(y, _mm_set1_ps(-3.77489497744594108e-8F)));

  const __m128 z = _mm_mul_ps(x, x);
  // cos polynomial on the reduced argument.
  __m128 yc = _mm_set1_ps(2.443315711809948e-5F);
  yc = _mm_add_ps(_mm_mul_ps(yc, z), _mm_set1_ps(-1.388731625493765e-3F));
  yc = _mm_add_ps(_mm_mul_ps(yc, z), _mm_set1_ps(4.166664568298827e-2F));
  yc = _mm_mul_ps(_mm_mul_ps(yc, z), z);
  yc = _mm_sub_ps(yc, _mm_mul_ps(z, _mm_set1_ps(0.5F)));
  yc = _mm_add_ps(yc, _mm_set1_ps(1.0F));
  // sin polynomial.
  __m128 ys = _mm_set1_ps(-1.9515295891e-4F);
  ys = _mm_add_ps(_mm_mul_ps(ys, z), _mm_set1_ps(8.3321608736e-3F));
  ys = _mm_add_ps(_mm_mul_ps(ys, z), _mm_set1_ps(-1.6666654611e-1F));
  ys = _mm_add_ps(_mm_mul_ps(_mm_mul_ps(ys, z), x), x);

  const __m128 sin_sel = _mm_or_ps(_mm_and_ps(poly_mask, ys),
                                   _mm_andnot_ps(poly_mask, yc));
  const __m128 cos_sel = _mm_or_ps(_mm_and_ps(poly_mask, yc),
                                   _mm_andnot_ps(poly_mask, ys));
  *s = _mm_xor_ps(sin_sel, sign_bit_sin);
  *c = _mm_xor_ps(cos_sel, sign_bit_cos);
}

/// Four lanes of log_poly, bit-identical to it.
inline __m128 log_ps(__m128 x) {
  const __m128 one = _mm_set1_ps(1.0F);
  const __m128i bits = _mm_castps_si128(x);
  __m128 e = _mm_cvtepi32_ps(
      _mm_sub_epi32(_mm_srli_epi32(bits, 23), _mm_set1_epi32(126)));
  __m128 m = _mm_castsi128_ps(
      _mm_or_si128(_mm_and_si128(bits, _mm_set1_epi32(0x007fffff)),
                   _mm_set1_epi32(0x3f000000)));
  const __m128 low = _mm_cmplt_ps(m, _mm_set1_ps(0.707106781186547524F));
  e = _mm_sub_ps(e, _mm_and_ps(one, low));
  m = _mm_add_ps(_mm_sub_ps(m, one), _mm_and_ps(m, low));
  const __m128 z = _mm_mul_ps(m, m);
  __m128 y = _mm_set1_ps(7.0376836292E-2F);
  y = _mm_add_ps(_mm_mul_ps(y, m), _mm_set1_ps(-1.1514610310E-1F));
  y = _mm_add_ps(_mm_mul_ps(y, m), _mm_set1_ps(1.1676998740E-1F));
  y = _mm_add_ps(_mm_mul_ps(y, m), _mm_set1_ps(-1.2420140846E-1F));
  y = _mm_add_ps(_mm_mul_ps(y, m), _mm_set1_ps(1.4249322787E-1F));
  y = _mm_add_ps(_mm_mul_ps(y, m), _mm_set1_ps(-1.6668057665E-1F));
  y = _mm_add_ps(_mm_mul_ps(y, m), _mm_set1_ps(2.0000714765E-1F));
  y = _mm_add_ps(_mm_mul_ps(y, m), _mm_set1_ps(-2.4999993993E-1F));
  y = _mm_add_ps(_mm_mul_ps(y, m), _mm_set1_ps(3.3333331174E-1F));
  y = _mm_mul_ps(_mm_mul_ps(y, m), z);
  y = _mm_add_ps(y, _mm_mul_ps(e, _mm_set1_ps(-2.12194440E-4F)));
  y = _mm_add_ps(y, _mm_mul_ps(z, _mm_set1_ps(-0.5F)));
  return _mm_add_ps(_mm_add_ps(m, y),
                    _mm_mul_ps(e, _mm_set1_ps(0.693359375F)));
}

/// Four lanes of sincos_turn, bit-identical to it.
inline void sincos_turn_ps(__m128i a, __m128* s, __m128* c) {
  const __m128i q =
      _mm_srli_epi32(_mm_add_epi32(a, _mm_set1_epi32(0x20000000)), 30);
  const __m128 x =
      _mm_mul_ps(_mm_cvtepi32_ps(_mm_sub_epi32(a, _mm_slli_epi32(q, 30))),
                 _mm_set1_ps(1.46291807926715968e-9F));
  const __m128 z = _mm_mul_ps(x, x);
  __m128 ps = _mm_set1_ps(-1.9515295891e-4F);
  ps = _mm_add_ps(_mm_mul_ps(ps, z), _mm_set1_ps(8.3321608736e-3F));
  ps = _mm_add_ps(_mm_mul_ps(ps, z), _mm_set1_ps(-1.6666654611e-1F));
  ps = _mm_add_ps(_mm_mul_ps(_mm_mul_ps(ps, z), x), x);
  __m128 pc = _mm_set1_ps(2.443315711809948e-5F);
  pc = _mm_add_ps(_mm_mul_ps(pc, z), _mm_set1_ps(-1.388731625493765e-3F));
  pc = _mm_add_ps(_mm_mul_ps(pc, z), _mm_set1_ps(4.166664568298827e-2F));
  pc = _mm_add_ps(_mm_sub_ps(_mm_mul_ps(_mm_mul_ps(pc, z), z),
                             _mm_mul_ps(z, _mm_set1_ps(0.5F))),
                  _mm_set1_ps(1.0F));
  const __m128i bit0 = _mm_set1_epi32(1);
  const __m128 swap = _mm_castsi128_ps(
      _mm_cmpeq_epi32(_mm_and_si128(q, bit0), bit0));
  const __m128 cq =
      _mm_or_ps(_mm_and_ps(swap, ps), _mm_andnot_ps(swap, pc));
  const __m128 sq =
      _mm_or_ps(_mm_and_ps(swap, pc), _mm_andnot_ps(swap, ps));
  // cos flips sign for q in {1, 2}, sin for q in {2, 3}.
  const __m128 cos_sign = _mm_castsi128_ps(_mm_slli_epi32(
      _mm_and_si128(_mm_srli_epi32(_mm_add_epi32(q, bit0), 1), bit0), 31));
  const __m128 sin_sign = _mm_castsi128_ps(
      _mm_slli_epi32(_mm_srli_epi32(q, 1), 31));
  *s = _mm_xor_ps(sq, sin_sign);
  *c = _mm_xor_ps(cq, cos_sign);
}

/// Four lanes of box_muller from the hashes' high and low 32-bit halves,
/// bit-identical to it.
inline void box_muller_ps(__m128i hi, __m128i lo, __m128* z0, __m128* z1) {
  const __m128 f = _mm_add_ps(
      _mm_mul_ps(_mm_cvtepi32_ps(_mm_srli_epi32(hi, 16)),
                 _mm_set1_ps(65536.0F)),
      _mm_cvtepi32_ps(_mm_and_si128(hi, _mm_set1_epi32(0xffff))));
  const __m128 u =
      _mm_add_ps(_mm_mul_ps(f, _mm_set1_ps(2.3283064365386962890625e-10F)),
                 _mm_set1_ps(1.16415321826934814453125e-10F));
  const __m128 r2 = _mm_mul_ps(_mm_set1_ps(-2.0F), log_ps(u));
  const __m128 r = _mm_sqrt_ps(_mm_max_ps(r2, _mm_setzero_ps()));
  __m128 s;
  __m128 c;
  sincos_turn_ps(lo, &s, &c);
  *z0 = _mm_mul_ps(r, c);
  *z1 = _mm_mul_ps(r, s);
}

#endif  // FMBS_SIMD_ENABLED

}  // namespace fmbs::dsp::simd
