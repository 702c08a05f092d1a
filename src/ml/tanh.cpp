// tanh and expm1 after fdlibm's s_tanh.c and s_expm1.c, with the expm1
// polynomial in Estrin form and fused multiply-adds at these points only:
//   R1 = fma(hxs, Q1, 1), R2 = fma(hxs, Q3, Q2), R3 = fma(hxs, Q5, Q4),
//   r1 = fma(h4, R3, fma(h2, R2, R1));
//   k = trunc(fma(invln2, x, +-0.5)), hi = x - k * ln2_hi (fused);
//   t = 3 - r1 * hfx (fused), divisor 6 - x * t (fused);
//   k = 0: x - (x * e - hxs) (inner product fused);
//   otherwise e = x * (e - c) - c (fused), then e - hxs;
//   k = -1: 0.5 * (x - e) - 0.5 (fused); k = 1, x >= -0.25: 1 + 2 * (x - e)
//   (fused).
// Every other operation rounds on its own, so the library must be built
// with -ffp-contract=off (src/CMakeLists.txt).
//
// The fdlibm algorithms carry this notice:
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================
#include "ml/tanh.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RTLOCK_TANH_AVX2 1
#include <immintrin.h>
#endif

namespace rtlock::ml {

namespace {

constexpr double kLn2Hi = 0x1.62e42fee00000p-1;  // ln 2, top 32 bits
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;  // ln 2 - kLn2Hi
constexpr double kInvLn2 = 0x1.71547652b82fep+0;
constexpr double kOverflow = 0x1.62e42fefa39efp+9;  // log(DBL_MAX)
// Scaled coefficients of fdlibm's rational approximation of expm1.
constexpr double kQ1 = -0x1.11111111110f4p-5;
constexpr double kQ2 = 0x1.a01a019fe5585p-10;
constexpr double kQ3 = -0x1.4ce199eaadbb7p-14;
constexpr double kQ4 = 0x1.0cfca86e65239p-18;
constexpr double kQ5 = -0x1.afdb76e09c32dp-23;

// fdlibm branches on the high 32 bits of |x|; each threshold below is the
// double whose high word is the one fdlibm compares with and low word 0.
constexpr std::uint32_t kHighInfNan = 0x7ff00000;
constexpr std::uint32_t kHighOverflow = 0x40862e42;      // |x| >= 709.78
constexpr std::uint32_t kHighSaturate = 0x4043687a;      // |x| >= 56 ln 2
constexpr std::uint32_t kHighHalfLn2 = 0x3fd62e42;       // |x| > 0.5 ln 2
constexpr std::uint32_t kHighThreeHalvesLn2 = 0x3ff0a2b2;  // |x| < 1.5 ln 2
constexpr std::uint32_t kHighTiny = 0x3c900000;          // |x| < 2^-54

[[nodiscard]] std::uint32_t highWord(double x) noexcept {
  return static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(x) >> 32);
}

[[nodiscard]] double withHighWord(std::uint32_t high) noexcept {
  return std::bit_cast<double>(static_cast<std::uint64_t>(high) << 32);
}

/// y * 2^k by adding k to the exponent field, as fdlibm does.
[[nodiscard]] double addExponent(double y, int k) noexcept {
  const auto shifted = static_cast<std::uint64_t>(static_cast<std::int64_t>(k)) << 52;
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(y) + shifted);
}

}  // namespace

double expm1(double x) noexcept {
  const std::uint32_t high = highWord(x) & 0x7fffffffu;
  const bool negative = std::signbit(x);

  if (high >= kHighSaturate) {
    if (high >= kHighOverflow) {
      if (high >= kHighInfNan) {
        if (std::isnan(x)) return x + x;
        return negative ? -1.0 : x;
      }
      if (x > kOverflow) return std::numeric_limits<double>::infinity();
    }
    if (negative) return -1.0;
  }

  int k = 0;
  double c = 0.0;
  if (high > kHighHalfLn2) {
    double hi = 0.0;
    double lo = 0.0;
    if (high < kHighThreeHalvesLn2) {
      k = negative ? -1 : 1;
      hi = negative ? x + kLn2Hi : x - kLn2Hi;
      lo = negative ? -kLn2Lo : kLn2Lo;
    } else {
      k = static_cast<int>(std::fma(kInvLn2, x, negative ? -0.5 : 0.5));
      const auto kd = static_cast<double>(k);
      hi = std::fma(-kd, kLn2Hi, x);
      lo = kd * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (high < kHighTiny) {
    return x;
  }

  const double hfx = 0.5 * x;
  const double hxs = x * hfx;
  const double r1poly1 = std::fma(hxs, kQ1, 1.0);
  const double h2 = hxs * hxs;
  const double r1poly2 = std::fma(hxs, kQ3, kQ2);
  const double h4 = h2 * h2;
  const double r1poly3 = std::fma(hxs, kQ5, kQ4);
  const double r1 = std::fma(h4, r1poly3, std::fma(h2, r1poly2, r1poly1));
  const double t = std::fma(-r1, hfx, 3.0);
  double e = hxs * ((r1 - t) / std::fma(-x, t, 6.0));
  if (k == 0) return x - std::fma(x, e, -hxs);

  e = std::fma(x, e - c, -c);
  e -= hxs;
  if (k == -1) return std::fma(0.5, x - e, -0.5);
  if (k == 1) {
    if (x < -0.25) return -2.0 * (e - (x + 0.5));
    return std::fma(2.0, x - e, 1.0);
  }
  if (k <= -2 || k > 56) {
    double y = 1.0 - (e - x);
    y = k == 1024 ? y * 2.0 * 0x1p1023 : addExponent(y, k);
    return y - 1.0;
  }
  if (k < 20) {
    const double oneMinusPow = withHighWord(0x3ff00000u - (0x200000u >> k));  // 1 - 2^-k
    return addExponent(oneMinusPow - (e - x), k);
  }
  const double pow = withHighWord(static_cast<std::uint32_t>(0x3ff - k) << 20);  // 2^-k
  double y = x - (e + pow);
  y += 1.0;
  return addExponent(y, k);
}

double tanh(double x) noexcept {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  const std::uint32_t high = static_cast<std::uint32_t>(bits >> 32) & 0x7fffffffu;
  const bool negative = std::signbit(x);

  if (high >= kHighInfNan) return negative ? 1.0 / x - 1.0 : 1.0 / x + 1.0;
  double z = 1.0;
  if (high < 0x40360000u) {                              // |x| < 22
    if ((bits << 1) == 0) return x;                      // +-0
    if (high < 0x3c800000u) return x * (1.0 + x);        // |x| < 2^-55
    if (high >= 0x3ff00000u) {                           // |x| >= 1
      const double t = expm1(2.0 * std::fabs(x));
      z = 1.0 - 2.0 / (t + 2.0);
    } else {
      const double t = expm1(-2.0 * std::fabs(x));
      z = -t / (t + 2.0);
    }
  }
  return negative ? -z : z;
}

#ifdef RTLOCK_TANH_AVX2

namespace {

// The double at kHighHalfLn2 + 1 (low word 0).
constexpr double kHalfLn2 = 0x1.62e4300000000p-2;

/// The lanewise addExponent: exponent fields plus k << 52.
__attribute__((target("avx2,fma"), always_inline)) inline __m256d addExponent(
    __m256d y, __m256i kExponent) noexcept {
  return _mm256_castsi256_pd(_mm256_add_epi64(_mm256_castpd_si256(y), kExponent));
}

/// Four tanh lanes.  Lanes with 2^-54 <= |x| < 22 reduce to expm1 of
/// -2|x| in (-2, -2^-53] (k in {0, -1, -2, -3}) or of 2|x| in [2, 44)
/// (k in [3, 63]), so k = 1 never occurs; every branch is computed and the
/// lane's k selects one.  Other lanes come back unspecified.
__attribute__((target("avx2,fma"), always_inline)) inline __m256d tanhLanes(__m256d x) noexcept {
  const __m256d signMask = _mm256_set1_pd(-0.0);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d half = _mm256_set1_pd(0.5);

  const __m256d ax = _mm256_andnot_pd(signMask, x);
  const __m256d big = _mm256_cmp_pd(ax, one, _CMP_GE_OQ);
  const __m256d ay = _mm256_add_pd(ax, ax);
  // expm1's argument: 2|x| when |x| >= 1, else -2|x|.
  const __m256d ySign = _mm256_andnot_pd(big, signMask);
  const __m256d y = _mm256_xor_pd(ay, ySign);

  // Argument reduction: k = 0 below 0.5 ln 2, else the rounded quotient.
  // fdlibm sets k = -+1 below 1.5 ln 2 instead; the quotient is -+1 there
  // too (both edges in high-word form), and hi, lo match for |k| = 1.
  const __m256d mid = _mm256_cmp_pd(ay, _mm256_set1_pd(kHalfLn2), _CMP_GE_OQ);
  const __m256d rounded =
      _mm256_round_pd(_mm256_fmadd_pd(_mm256_set1_pd(kInvLn2), y, _mm256_xor_pd(half, ySign)),
                      _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256d k = _mm256_and_pd(mid, rounded);

  const __m256d hi = _mm256_fnmadd_pd(k, _mm256_set1_pd(kLn2Hi), y);
  const __m256d lo = _mm256_mul_pd(k, _mm256_set1_pd(kLn2Lo));
  const __m256d r = _mm256_sub_pd(hi, lo);
  const __m256d c = _mm256_sub_pd(_mm256_sub_pd(hi, r), lo);

  const __m256d hfx = _mm256_mul_pd(half, r);
  const __m256d hxs = _mm256_mul_pd(r, hfx);
  const __m256d r1poly1 = _mm256_fmadd_pd(hxs, _mm256_set1_pd(kQ1), one);
  const __m256d h2 = _mm256_mul_pd(hxs, hxs);
  const __m256d r1poly2 = _mm256_fmadd_pd(hxs, _mm256_set1_pd(kQ3), _mm256_set1_pd(kQ2));
  const __m256d h4 = _mm256_mul_pd(h2, h2);
  const __m256d r1poly3 = _mm256_fmadd_pd(hxs, _mm256_set1_pd(kQ5), _mm256_set1_pd(kQ4));
  const __m256d r1 = _mm256_fmadd_pd(h4, r1poly3, _mm256_fmadd_pd(h2, r1poly2, r1poly1));
  const __m256d t = _mm256_fnmadd_pd(r1, hfx, _mm256_set1_pd(3.0));
  const __m256d divisor = _mm256_fnmadd_pd(r, t, _mm256_set1_pd(6.0));
  const __m256d e = _mm256_mul_pd(hxs, _mm256_div_pd(_mm256_sub_pd(r1, t), divisor));

  const __m256d expK0 = _mm256_sub_pd(r, _mm256_fmsub_pd(r, e, hxs));
  const __m256d ek = _mm256_sub_pd(_mm256_fmsub_pd(r, _mm256_sub_pd(e, c), c), hxs);
  const __m256d expKm1 = _mm256_fmadd_pd(half, _mm256_sub_pd(r, ek), _mm256_set1_pd(-0.5));

  const __m256i kInt = _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(k));
  const __m256i kExponent = _mm256_slli_epi64(kInt, 52);
  // 2^-k, exact for every k here.
  const __m256d powMinusK = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_sub_epi64(_mm256_set1_epi64x(1023), kInt), 52));
  const __m256d eMinusX = _mm256_sub_pd(ek, r);  // e - x
  // k <= -2 or k > 56.
  const __m256d expFar = _mm256_sub_pd(addExponent(_mm256_sub_pd(one, eMinusX), kExponent), one);
  // 2 <= k < 20, with 1 - 2^-k exact.
  const __m256d expLow =
      addExponent(_mm256_sub_pd(_mm256_sub_pd(one, powMinusK), eMinusX), kExponent);
  // 20 <= k <= 56.
  const __m256d expHigh =
      addExponent(_mm256_add_pd(_mm256_sub_pd(r, _mm256_add_pd(ek, powMinusK)), one), kExponent);

  const __m256d lowK = _mm256_and_pd(_mm256_cmp_pd(k, two, _CMP_GE_OQ),
                                     _mm256_cmp_pd(k, _mm256_set1_pd(20.0), _CMP_LT_OQ));
  const __m256d highK = _mm256_and_pd(_mm256_cmp_pd(k, _mm256_set1_pd(20.0), _CMP_GE_OQ),
                                      _mm256_cmp_pd(k, _mm256_set1_pd(56.0), _CMP_LE_OQ));
  __m256d em1 = _mm256_blendv_pd(expFar, expLow, lowK);
  em1 = _mm256_blendv_pd(em1, expHigh, highK);
  em1 = _mm256_blendv_pd(em1, expKm1, _mm256_cmp_pd(k, _mm256_set1_pd(-1.0), _CMP_EQ_OQ));
  em1 = _mm256_blendv_pd(em1, expK0, _mm256_cmp_pd(k, _mm256_setzero_pd(), _CMP_EQ_OQ));

  // |x| >= 1: 1 - 2 / (t + 2); else -t / (t + 2); the sign comes from x.
  const __m256d quotient = _mm256_div_pd(
      _mm256_blendv_pd(_mm256_xor_pd(em1, signMask), two, big), _mm256_add_pd(em1, two));
  const __m256d z = _mm256_blendv_pd(quotient, _mm256_sub_pd(one, quotient), big);
  return _mm256_xor_pd(z, _mm256_and_pd(x, signMask));
}

/// Lanes tanhLanes cannot take: |x| < 2^-54, |x| >= 22, inf and NaN.
__attribute__((target("avx2,fma"), always_inline)) inline int scalarLanes(__m256d x) noexcept {
  const __m256d ax = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
  const __m256d inRange =
      _mm256_and_pd(_mm256_cmp_pd(ax, _mm256_set1_pd(0x1p-54), _CMP_GE_OQ),
                    _mm256_cmp_pd(ax, _mm256_set1_pd(22.0), _CMP_LT_OQ));
  return _mm256_movemask_pd(inRange) ^ 0xf;
}

/// tanh of v[0..3] in place.
__attribute__((target("avx2,fma"))) void tanhBlock(double* v) noexcept {
  const __m256d x = _mm256_loadu_pd(v);
  const int scalar = scalarLanes(x);
  _mm256_storeu_pd(v, tanhLanes(x));
  if (scalar == 0) return;
  alignas(32) double input[4];
  _mm256_store_pd(input, x);
  for (int lane = 0; lane < 4; ++lane) {
    if ((scalar >> lane) & 1) v[lane] = tanh(input[lane]);
  }
}

__attribute__((target("avx2,fma"))) void tanhInPlaceAvx2(std::span<double> values) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= values.size(); i += 4) tanhBlock(values.data() + i);
  if (i == values.size()) return;
  double tail[4] = {1.0, 1.0, 1.0, 1.0};
  const std::size_t rest = values.size() - i;
  for (std::size_t j = 0; j < rest; ++j) tail[j] = values[i + j];
  tanhBlock(tail);
  for (std::size_t j = 0; j < rest; ++j) values[i + j] = tail[j];
}

bool detectAvx2Fma() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

}  // namespace

bool tanhInPlaceVectorized() noexcept {
  static const bool vectorized = detectAvx2Fma();
  return vectorized;
}

void tanhInPlace(std::span<double> values) noexcept {
  if (tanhInPlaceVectorized()) {
    tanhInPlaceAvx2(values);
    return;
  }
  for (double& v : values) v = tanh(v);
}

#else

bool tanhInPlaceVectorized() noexcept { return false; }

void tanhInPlace(std::span<double> values) noexcept {
  for (double& v : values) v = tanh(v);
}

#endif

}  // namespace rtlock::ml
