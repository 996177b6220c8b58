// AVX2 autocorrelation-pitch kernel, bit-identical to the scalar reference.
//
// One lane per lag: a pass covers 16 consecutive lags in four ymm
// accumulators (then 4 lags in one; the scalar kernel takes the last 0-3).
// Each step broadcasts x[i] and multiplies it by x[i + lag + j], then adds
// (a separate mul and add, no FMA), so every lag accumulates the same
// products in the same ascending-i order as its scalar accumulator.
//
// Tails stay in the vector registers: past the shared range lane j is live
// while i + lag + j < n. A dead lane loads nothing (maskload) and its
// product is masked to +0.0 before the add. Every accumulator starts at
// +0.0 and a sum can only reach -0.0 from two -0.0 operands, so no lane is
// ever -0.0 and adding +0.0 leaves it bit-identical (NaN and inf included).

#include "audio/features.h"

#if defined(__x86_64__)

#include <immintrin.h>

namespace classminer::audio::internal {
namespace {

// Mask of the four lanes first .. first + 3 that are below `live`.
__attribute__((target("avx2"))) inline __m256i LiveLanes(__m256i live,
                                                         int64_t first) {
  return _mm256_cmpgt_epi64(
      live, _mm256_setr_epi64x(first, first + 1, first + 2, first + 3));
}

// acc + x * y[0..3] over the lanes in `mask`; the other lanes add +0.0.
__attribute__((target("avx2"))) inline __m256d MaskedMulAdd(__m256d acc,
                                                            __m256d x,
                                                            const double* y,
                                                            __m256i mask) {
  const __m256d product = _mm256_mul_pd(x, _mm256_maskload_pd(y, mask));
  return _mm256_add_pd(acc,
                       _mm256_and_pd(product, _mm256_castsi256_pd(mask)));
}

}  // namespace

bool PitchAccelAvailable() { return true; }

__attribute__((target("avx2"))) void PitchAutocorrAccel(
    std::span<const double> x, size_t min_lag, size_t max_lag, double* acc) {
  const size_t n = x.size();
  const double* px = x.data();
  size_t lag = min_lag;
  for (; lag + 15 <= max_lag; lag += 16) {
    __m256d s0 = _mm256_setzero_pd();
    __m256d s1 = _mm256_setzero_pd();
    __m256d s2 = _mm256_setzero_pd();
    __m256d s3 = _mm256_setzero_pd();
    const size_t shared = n - (lag + 15);
    for (size_t i = 0; i < shared; ++i) {
      const __m256d xi = _mm256_broadcast_sd(px + i);
      const double* y = px + i + lag;
      s0 = _mm256_add_pd(s0, _mm256_mul_pd(xi, _mm256_loadu_pd(y)));
      s1 = _mm256_add_pd(s1, _mm256_mul_pd(xi, _mm256_loadu_pd(y + 4)));
      s2 = _mm256_add_pd(s2, _mm256_mul_pd(xi, _mm256_loadu_pd(y + 8)));
      s3 = _mm256_add_pd(s3, _mm256_mul_pd(xi, _mm256_loadu_pd(y + 12)));
    }
    for (size_t i = shared; i + lag < n; ++i) {
      const __m256i live =
          _mm256_set1_epi64x(static_cast<int64_t>(n - lag - i));
      const __m256d xi = _mm256_broadcast_sd(px + i);
      const double* y = px + i + lag;
      s0 = MaskedMulAdd(s0, xi, y, LiveLanes(live, 0));
      s1 = MaskedMulAdd(s1, xi, y + 4, LiveLanes(live, 4));
      s2 = MaskedMulAdd(s2, xi, y + 8, LiveLanes(live, 8));
      s3 = MaskedMulAdd(s3, xi, y + 12, LiveLanes(live, 12));
    }
    double* out = acc + (lag - min_lag);
    _mm256_storeu_pd(out, s0);
    _mm256_storeu_pd(out + 4, s1);
    _mm256_storeu_pd(out + 8, s2);
    _mm256_storeu_pd(out + 12, s3);
  }
  for (; lag + 3 <= max_lag; lag += 4) {
    __m256d s = _mm256_setzero_pd();
    const size_t shared = n - (lag + 3);
    for (size_t i = 0; i < shared; ++i) {
      s = _mm256_add_pd(s, _mm256_mul_pd(_mm256_broadcast_sd(px + i),
                                         _mm256_loadu_pd(px + i + lag)));
    }
    for (size_t i = shared; i + lag < n; ++i) {
      const __m256i live =
          _mm256_set1_epi64x(static_cast<int64_t>(n - lag - i));
      s = MaskedMulAdd(s, _mm256_broadcast_sd(px + i), px + i + lag,
                       LiveLanes(live, 0));
    }
    _mm256_storeu_pd(acc + (lag - min_lag), s);
  }
  if (lag <= max_lag) {
    PitchAutocorrScalar(x, lag, max_lag, acc + (lag - min_lag));
  }
}

}  // namespace classminer::audio::internal

#else  // !defined(__x86_64__)

namespace classminer::audio::internal {

bool PitchAccelAvailable() { return false; }

void PitchAutocorrAccel(std::span<const double> x, size_t min_lag,
                        size_t max_lag, double* acc) {
  PitchAutocorrScalar(x, min_lag, max_lag, acc);
}

}  // namespace classminer::audio::internal

#endif
