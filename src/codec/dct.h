#ifndef CLASSMINER_CODEC_DCT_H_
#define CLASSMINER_CODEC_DCT_H_

#include <array>
#include <cstdint>
#include <memory_resource>
#include <vector>

#include "media/image.h"

namespace classminer::codec {

inline constexpr int kBlockSize = 8;
inline constexpr int kBlockPixels = kBlockSize * kBlockSize;

using Block = std::array<double, kBlockPixels>;

// Type-II 2-D DCT of an 8x8 block (orthonormal scaling). Dispatches to an
// AVX2 kernel when util::ActiveDispatchLevel() allows; the vector path
// parallelises across *output* lanes so each coefficient's accumulation
// order is unchanged and results are bit-identical to the scalar kernel.
Block ForwardDct(const Block& spatial);

// Inverse (type-III) 2-D DCT. Same dispatch and bit-identity contract.
// Both kernels skip the rows and columns of `freq` that hold only zeros:
// every skipped product is a signed zero, and adding one to an
// accumulator that starts at +0.0 changes no bit.
Block InverseDct(const Block& freq);

namespace internal {

// Shared cosine basis: basis[u][x] = c(u) cos((2x+1) u pi / 16), plus its
// transpose (basis_t[x][u]) for lane-parallel kernels. One definition so
// scalar and vector paths fold the exact same coefficients.
struct DctTables {
  double basis[kBlockSize][kBlockSize];
  double basis_t[kBlockSize][kBlockSize];
};
const DctTables& Tables();

// Reference kernels (portable C++); the dispatch targets below must match
// them bit-for-bit on every input.
Block ForwardDctScalar(const Block& spatial);
Block InverseDctScalar(const Block& freq);

// The sample loop of AddResidual over a rows x cols corner of a block:
// dst[y][x] = RoundClamp255(base + residual[y * 8 + x]), base being
// dst[y][x] itself when `predicted`, else 128. The stride counts samples.
void AddResidualScalar(const Block& residual, int16_t* dst, size_t stride,
                       int rows, int cols, bool predicted);

// AVX2 kernels (x86-64 only). Callable only when DctAccelAvailable().
bool DctAccelAvailable();
Block ForwardDctAccel(const Block& spatial);
Block InverseDctAccel(const Block& freq);
void AddResidualAccel(const Block& residual, int16_t* dst, size_t stride,
                      int rows, int cols, bool predicted);

// BT.601 YCbCr -> RGB coefficients of ToImage.
inline constexpr double kRFromCr = 1.402;
inline constexpr double kGFromCb = 0.344136;
inline constexpr double kGFromCr = 0.714136;
inline constexpr double kBFromCb = 1.772;

// One output row of ToImage: pixel x of `count` takes luma y[x] and chroma
// cb[x / 2], cr[x / 2], which must lie in [0, 255]. The scalar kernel is
// the reference (table lookups of the chroma products); the AVX2 kernel,
// callable only when ToImageAccelAvailable(), performs the same IEEE
// operations lane by lane and matches it bit for bit.
void ToImageRowScalar(const int16_t* y, const int16_t* cb, const int16_t* cr,
                      int count, media::Rgb* out);
bool ToImageAccelAvailable();
void ToImageRowAccel(const int16_t* y, const int16_t* cb, const int16_t* cr,
                     int count, media::Rgb* out);

}  // namespace internal

// lround(clamp(v, 0, 255)) for every finite v, without a libm call or a
// data-dependent branch. On [0, 255] the truncation is the floor and
// c - i is exact, so the half-way test rounds ties away from zero exactly
// as lround does. NaN maps to 0.
inline int RoundClamp255(double v) {
  const double c = v > 0.0 ? (v < 255.0 ? v : 255.0) : 0.0;
  const int i = static_cast<int>(c);
  return i + (c - i >= 0.5 ? 1 : 0);
}

// A planar 8-bit single-channel image with row-major storage, padded as the
// caller wishes. Thin alias over GrayImage-like storage but with int16
// headroom for residuals.
//
// Storage is pmr so per-frame planes can live in a bump arena (util::Arena)
// during decode. The usual pmr rules apply: a copy always lands on the
// default heap resource (safe to keep past the arena), while a *move*
// carries the arena resource with it — only move-construct arena-backed
// planes into objects scoped inside the arena's lifetime, and never
// move-assign across resources (the element-wise fallback silently
// reallocates from the destination's resource).
struct Plane {
  int width = 0;
  int height = 0;
  // Typically in [0, 255] or residual range.
  std::pmr::vector<int16_t> samples;

  int16_t at(int x, int y) const {
    return samples[static_cast<size_t>(y) * width + x];
  }
  void set(int x, int y, int16_t v) {
    samples[static_cast<size_t>(y) * width + x] = v;
  }
  // Null `mr` means the default (heap) resource. The vector is *constructed*
  // on `mr` (assignment would fall back to the member's default resource).
  static Plane Make(int w, int h, int16_t fill = 0,
                    std::pmr::memory_resource* mr = nullptr) {
    return Plane{w, h,
                 std::pmr::vector<int16_t>(
                     static_cast<size_t>(w) * h, fill,
                     mr != nullptr ? mr : std::pmr::get_default_resource())};
  }
};

// YCbCr 4:2:0 picture: full-resolution luma, half-resolution chroma.
struct Picture {
  Plane y;
  Plane cb;
  Plane cr;
};

// BT.601 RGB <-> YCbCr 4:2:0 conversion. Dimensions are rounded up to even
// for chroma subsampling; ToImage crops back to (width, height).
Picture FromImage(const media::Image& image);
media::Image ToImage(const Picture& picture, int width, int height);

// Writes RoundClamp255(base + residual) over 8x8 block (bx, by) of `out`,
// clipped to its bounds; base is the sample's prediction, already in
// `out`, when `predicted`, else 128. Dispatches like InverseDct, with the
// same bit-identity contract.
void AddResidual(const Block& residual, bool predicted, int bx, int by,
                 Plane* out);

// Extracts an 8x8 block at (bx*8, by*8) from `plane`, replicating edge
// samples beyond bounds; returns samples centred by -128 for luma-style
// planes when `center` is true.
Block GetBlock(const Plane& plane, int bx, int by, bool center);

}  // namespace classminer::codec

#endif  // CLASSMINER_CODEC_DCT_H_
