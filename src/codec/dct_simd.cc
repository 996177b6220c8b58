// AVX2 8x8 DCT, residual add and YCbCr -> RGB kernels, bit-identical to
// the scalar references.
//
// The trick: vectorise across *output* lanes only. Each output coefficient
// is still a sum of 8 products accumulated in exactly the scalar loop's
// order — the four doubles in a ymm register are four independent scalar
// accumulations running side by side. With plain vmulpd/vaddpd (no FMA,
// which would change rounding) every lane performs the same IEEE ops the
// scalar kernel does, so the results match bit for bit.

#include "codec/dct.h"

#if defined(__x86_64__)

#include <immintrin.h>

#include <bit>

namespace classminer::codec::internal {
namespace {

// Loads one row of 8 doubles as two ymm registers.
struct Row8 {
  __m256d lo;
  __m256d hi;
};

__attribute__((target("avx2"))) inline Row8 LoadRow(const double* p) {
  return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
}

__attribute__((target("avx2"))) inline void StoreRow(double* p, Row8 r) {
  _mm256_storeu_pd(p, r.lo);
  _mm256_storeu_pd(p + 4, r.hi);
}

__attribute__((target("avx2"))) inline Row8 MulAdd(Row8 acc, Row8 a,
                                                   __m256d b) {
  // Explicit mul+add (not FMA) to match the scalar kernel's rounding.
  acc.lo = _mm256_add_pd(acc.lo, _mm256_mul_pd(a.lo, b));
  acc.hi = _mm256_add_pd(acc.hi, _mm256_mul_pd(a.hi, b));
  return acc;
}

}  // namespace

bool DctAccelAvailable() { return true; }

__attribute__((target("avx2"))) Block ForwardDctAccel(const Block& spatial) {
  const DctTables& t = Tables();
  // Pass 1 (rows): tmp[y][u] = sum_x spatial[y][x] * basis[u][x]
  //                          = sum_x spatial[y][x] * basis_t[x][u].
  // For fixed y the 8 u-lanes accumulate over x = 0..7, scalar order.
  alignas(32) double tmp[kBlockPixels];
  for (int y = 0; y < kBlockSize; ++y) {
    Row8 acc{_mm256_setzero_pd(), _mm256_setzero_pd()};
    for (int x = 0; x < kBlockSize; ++x) {
      const __m256d s =
          _mm256_set1_pd(spatial[static_cast<size_t>(y) * kBlockSize + x]);
      acc = MulAdd(acc, LoadRow(t.basis_t[x]), s);
    }
    StoreRow(&tmp[static_cast<size_t>(y) * kBlockSize], acc);
  }
  // Pass 2 (columns): out[v][u] = sum_y tmp[y][u] * basis[v][y].
  // For fixed v the 8 u-lanes accumulate over y = 0..7, scalar order.
  Block out{};
  for (int v = 0; v < kBlockSize; ++v) {
    Row8 acc{_mm256_setzero_pd(), _mm256_setzero_pd()};
    for (int y = 0; y < kBlockSize; ++y) {
      const __m256d b = _mm256_set1_pd(t.basis[v][y]);
      acc = MulAdd(acc, LoadRow(&tmp[static_cast<size_t>(y) * kBlockSize]), b);
    }
    StoreRow(&out[static_cast<size_t>(v) * kBlockSize], acc);
  }
  return out;
}

__attribute__((target("avx2"))) Block InverseDctAccel(const Block& freq) {
  const DctTables& t = Tables();
  // Rows and columns of zero coefficients are skipped as in the scalar
  // kernel: a lane whose term is skipped would have added a signed zero.
  unsigned row_mask = 0;
  unsigned col_mask = 0;
  for (int v = 0; v < kBlockSize; ++v) {
    const Row8 row = LoadRow(&freq[static_cast<size_t>(v) * kBlockSize]);
    const unsigned bits = static_cast<unsigned>(
        _mm256_movemask_pd(
            _mm256_cmp_pd(row.lo, _mm256_setzero_pd(), _CMP_NEQ_UQ)) |
        _mm256_movemask_pd(
            _mm256_cmp_pd(row.hi, _mm256_setzero_pd(), _CMP_NEQ_UQ))
            << 4);
    col_mask |= bits;
    row_mask |= static_cast<unsigned>(bits != 0) << v;
  }
  // Pass 1: tmp[y][u] = sum_v freq[v][u] * basis[v][y].
  // For fixed y the 8 u-lanes accumulate over v = 0..7, scalar order.
  alignas(32) double tmp[kBlockPixels];
  for (int y = 0; y < kBlockSize; ++y) {
    Row8 acc{_mm256_setzero_pd(), _mm256_setzero_pd()};
    for (unsigned rows = row_mask; rows != 0; rows &= rows - 1) {
      const int v = std::countr_zero(rows);
      const __m256d b = _mm256_set1_pd(t.basis[v][y]);
      acc = MulAdd(acc, LoadRow(&freq[static_cast<size_t>(v) * kBlockSize]), b);
    }
    StoreRow(&tmp[static_cast<size_t>(y) * kBlockSize], acc);
  }
  // Pass 2: out[y][x] = sum_u tmp[y][u] * basis[u][x].
  // For fixed y the 8 x-lanes accumulate over u = 0..7, scalar order.
  Block out{};
  for (int y = 0; y < kBlockSize; ++y) {
    Row8 acc{_mm256_setzero_pd(), _mm256_setzero_pd()};
    for (unsigned cols = col_mask; cols != 0; cols &= cols - 1) {
      const int u = std::countr_zero(cols);
      const __m256d s =
          _mm256_set1_pd(tmp[static_cast<size_t>(y) * kBlockSize + u]);
      acc = MulAdd(acc, LoadRow(t.basis[u]), s);
    }
    StoreRow(&out[static_cast<size_t>(y) * kBlockSize], acc);
  }
  return out;
}

bool ToImageAccelAvailable() { return true; }

namespace {

// RoundClamp255 on four lanes, as int32. With c = min(v, 255), the result
// is trunc(c + 0.5) for c >= 0.5 and 0 below (NaN included). For
// 0.5 <= c <= 255 the sum c + 0.5 is exact unless it crosses into the
// next binade, where c already rounds up, so truncating it gives
// lround(c); below 0.5 the lane is zeroed before the add, since there the
// sum could round up to 1.0.
__attribute__((target("avx2"))) inline __m128i RoundClamp255x4(__m256d v) {
  // minpd answers its second operand when either is NaN, so NaN stays NaN
  // here and fails the >= test.
  const __m256d c = _mm256_min_pd(_mm256_set1_pd(255.0), v);
  const __m256d keep = _mm256_cmp_pd(c, _mm256_set1_pd(0.5), _CMP_GE_OQ);
  return _mm256_cvttpd_epi32(
      _mm256_add_pd(_mm256_and_pd(c, keep), _mm256_set1_pd(0.5)));
}

// Four int16 samples as doubles.
__attribute__((target("avx2"))) inline __m256d Load4(const int16_t* p) {
  return _mm256_cvtepi32_pd(_mm_cvtepi16_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
}

}  // namespace

// Full rows of eight take four lanes per half: base + residual, then the
// rounding above, packed back to int16. Partial rows (a block clipped at
// the plane edge) take the scalar loop.
__attribute__((target("avx2"))) void AddResidualAccel(const Block& residual,
                                                      int16_t* dst,
                                                      size_t stride, int rows,
                                                      int cols,
                                                      bool predicted) {
  if (cols != kBlockSize) {
    AddResidualScalar(residual, dst, stride, rows, cols, predicted);
    return;
  }
  for (int y = 0; y < rows; ++y) {
    const double* r = &residual[static_cast<size_t>(y) * kBlockSize];
    int16_t* d = dst + static_cast<size_t>(y) * stride;
    const __m256d lo = predicted ? Load4(d) : _mm256_set1_pd(128.0);
    const __m256d hi = predicted ? Load4(d + 4) : _mm256_set1_pd(128.0);
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(d),
        _mm_packs_epi32(
            RoundClamp255x4(_mm256_add_pd(lo, _mm256_loadu_pd(r))),
            RoundClamp255x4(_mm256_add_pd(hi, _mm256_loadu_pd(r + 4)))));
  }
}

// Eight pixels per step. Each lane computes what ToImageRowScalar computes
// for its pixel: the chroma products k * (s - 128.0) the tables hold, then
// the same adds and subtracts in the same order, with no FMA. The luma is
// split into even and odd pixels, so lane i of either half pairs with
// chroma sample i; the final byte shuffle restores pixel order.
__attribute__((target("avx2"))) void ToImageRowAccel(const int16_t* y,
                                                     const int16_t* cb,
                                                     const int16_t* cr,
                                                     int count,
                                                     media::Rgb* out) {
  static_assert(sizeof(media::Rgb) == 3);
  const __m256d k128 = _mm256_set1_pd(128.0);
  const __m128i even_odd = _mm_setr_epi8(0, 1, 4, 5, 8, 9, 12, 13, 2, 3, 6,
                                         7, 10, 11, 14, 15);
  // Bytes r0 r2 r4 r6 r1 r3 r5 r7 g0 g2 .. g7 (one register) and b0 b2 ..
  // b7 (another) to 24 bytes r0 g0 b0 r1 g1 b1 ..
  const __m128i rg_lo = _mm_setr_epi8(0, 8, -1, 4, 12, -1, 1, 9, -1, 5, 13,
                                      -1, 2, 10, -1, 6);
  const __m128i b_lo = _mm_setr_epi8(-1, -1, 0, -1, -1, 4, -1, -1, 1, -1, -1,
                                     5, -1, -1, 2, -1);
  const __m128i rg_hi = _mm_setr_epi8(14, -1, 3, 11, -1, 7, 15, -1, -1, -1,
                                      -1, -1, -1, -1, -1, -1);
  const __m128i b_hi = _mm_setr_epi8(-1, 6, -1, -1, 3, -1, -1, 7, -1, -1, -1,
                                     -1, -1, -1, -1, -1);
  uint8_t* dst = reinterpret_cast<uint8_t*>(out);
  int x = 0;
  for (; x + 8 <= count; x += 8) {
    const __m128i luma = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(y + x)), even_odd);
    const __m256d y_even = _mm256_cvtepi32_pd(_mm_cvtepi16_epi32(luma));
    const __m256d y_odd =
        _mm256_cvtepi32_pd(_mm_cvtepi16_epi32(_mm_srli_si128(luma, 8)));
    const __m256d cbd = _mm256_sub_pd(Load4(cb + x / 2), k128);
    const __m256d crd = _mm256_sub_pd(Load4(cr + x / 2), k128);
    const __m256d r4 = _mm256_mul_pd(_mm256_set1_pd(kRFromCr), crd);
    const __m256d gb4 = _mm256_mul_pd(_mm256_set1_pd(kGFromCb), cbd);
    const __m256d gr4 = _mm256_mul_pd(_mm256_set1_pd(kGFromCr), crd);
    const __m256d b4 = _mm256_mul_pd(_mm256_set1_pd(kBFromCb), cbd);
    const __m128i r16 =
        _mm_packs_epi32(RoundClamp255x4(_mm256_add_pd(y_even, r4)),
                        RoundClamp255x4(_mm256_add_pd(y_odd, r4)));
    const __m128i g16 = _mm_packs_epi32(
        RoundClamp255x4(_mm256_sub_pd(_mm256_sub_pd(y_even, gb4), gr4)),
        RoundClamp255x4(_mm256_sub_pd(_mm256_sub_pd(y_odd, gb4), gr4)));
    const __m128i b16 =
        _mm_packs_epi32(RoundClamp255x4(_mm256_add_pd(y_even, b4)),
                        RoundClamp255x4(_mm256_add_pd(y_odd, b4)));
    const __m128i rg8 = _mm_packus_epi16(r16, g16);
    const __m128i b8 = _mm_packus_epi16(b16, b16);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 3 * x),
                     _mm_or_si128(_mm_shuffle_epi8(rg8, rg_lo),
                                  _mm_shuffle_epi8(b8, b_lo)));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + 3 * x + 16),
                     _mm_or_si128(_mm_shuffle_epi8(rg8, rg_hi),
                                  _mm_shuffle_epi8(b8, b_hi)));
  }
  ToImageRowScalar(y + x, cb + x / 2, cr + x / 2, count - x, out + x);
}

}  // namespace classminer::codec::internal

#else  // !defined(__x86_64__)

namespace classminer::codec::internal {

// No vector double path off x86-64 (NEON f64 reassociation would not be
// worth a separate kernel here); the dispatcher keeps the scalar kernels.
bool DctAccelAvailable() { return false; }
Block ForwardDctAccel(const Block& spatial) { return ForwardDctScalar(spatial); }
Block InverseDctAccel(const Block& freq) { return InverseDctScalar(freq); }
void AddResidualAccel(const Block& residual, int16_t* dst, size_t stride,
                      int rows, int cols, bool predicted) {
  AddResidualScalar(residual, dst, stride, rows, cols, predicted);
}
bool ToImageAccelAvailable() { return false; }
void ToImageRowAccel(const int16_t* y, const int16_t* cb, const int16_t* cr,
                     int count, media::Rgb* out) {
  ToImageRowScalar(y, cb, cr, count, out);
}

}  // namespace classminer::codec::internal

#endif
