#include "codec/dct.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numbers>

#include "util/cpu.h"

namespace classminer::codec {
namespace internal {

namespace {

DctTables MakeTables() {
  DctTables tables;
  for (int u = 0; u < kBlockSize; ++u) {
    const double cu = (u == 0) ? std::sqrt(1.0 / kBlockSize)
                               : std::sqrt(2.0 / kBlockSize);
    for (int x = 0; x < kBlockSize; ++x) {
      const double v = cu * std::cos((2.0 * x + 1.0) * u * std::numbers::pi /
                                     (2.0 * kBlockSize));
      tables.basis[u][x] = v;
      tables.basis_t[x][u] = v;
    }
  }
  return tables;
}

}  // namespace

const DctTables& Tables() {
  static const DctTables tables = MakeTables();
  return tables;
}

Block ForwardDctScalar(const Block& spatial) {
  const auto& t = Tables().basis;
  // Separable: rows then columns.
  Block tmp{};
  for (int y = 0; y < kBlockSize; ++y) {
    for (int u = 0; u < kBlockSize; ++u) {
      double acc = 0.0;
      for (int x = 0; x < kBlockSize; ++x) {
        acc += spatial[static_cast<size_t>(y) * kBlockSize + x] * t[u][x];
      }
      tmp[static_cast<size_t>(y) * kBlockSize + u] = acc;
    }
  }
  Block out{};
  for (int u = 0; u < kBlockSize; ++u) {
    for (int v = 0; v < kBlockSize; ++v) {
      double acc = 0.0;
      for (int y = 0; y < kBlockSize; ++y) {
        acc += tmp[static_cast<size_t>(y) * kBlockSize + u] * t[v][y];
      }
      out[static_cast<size_t>(v) * kBlockSize + u] = acc;
    }
  }
  return out;
}

namespace {

// The rows (v) and columns (u) of a coefficient block that hold a nonzero
// value, as bit masks.
struct NonzeroLines {
  unsigned rows = 0;
  unsigned cols = 0;
};

NonzeroLines FindNonzeroLines(const Block& freq) {
  NonzeroLines lines;
  for (int v = 0; v < kBlockSize; ++v) {
    unsigned bits = 0;
    for (int u = 0; u < kBlockSize; ++u) {
      bits |= static_cast<unsigned>(
                  freq[static_cast<size_t>(v) * kBlockSize + u] != 0.0)
              << u;
    }
    lines.cols |= bits;
    lines.rows |= static_cast<unsigned>(bits != 0) << v;
  }
  return lines;
}

}  // namespace

Block InverseDctScalar(const Block& freq) {
  const auto& t = Tables().basis;
  const NonzeroLines lines = FindNonzeroLines(freq);
  // A column of zero coefficients leaves its tmp column +0.0.
  Block tmp{};
  for (unsigned cols = lines.cols; cols != 0; cols &= cols - 1) {
    const int u = std::countr_zero(cols);
    for (int y = 0; y < kBlockSize; ++y) {
      double acc = 0.0;
      for (unsigned rows = lines.rows; rows != 0; rows &= rows - 1) {
        const int v = std::countr_zero(rows);
        acc += freq[static_cast<size_t>(v) * kBlockSize + u] * t[v][y];
      }
      tmp[static_cast<size_t>(y) * kBlockSize + u] = acc;
    }
  }
  Block out{};
  for (int y = 0; y < kBlockSize; ++y) {
    for (int x = 0; x < kBlockSize; ++x) {
      double acc = 0.0;
      for (unsigned cols = lines.cols; cols != 0; cols &= cols - 1) {
        const int u = std::countr_zero(cols);
        acc += tmp[static_cast<size_t>(y) * kBlockSize + u] * t[u][x];
      }
      out[static_cast<size_t>(y) * kBlockSize + x] = acc;
    }
  }
  return out;
}

void AddResidualScalar(const Block& residual, int16_t* dst, size_t stride,
                       int rows, int cols, bool predicted) {
  for (int y = 0; y < rows; ++y) {
    const double* r = &residual[static_cast<size_t>(y) * kBlockSize];
    int16_t* d = dst + static_cast<size_t>(y) * stride;
    for (int x = 0; x < cols; ++x) {
      const double base = predicted ? d[x] : 128.0;
      d[x] = static_cast<int16_t>(RoundClamp255(base + r[x]));
    }
  }
}

namespace {

// The chroma products of ToImage for every sample in [0, 255]: entry s
// holds k * (s - 128.0), the double the per-pixel formula computes.
struct ChromaTables {
  double r_cr[256];
  double g_cb[256];
  double g_cr[256];
  double b_cb[256];
};

ChromaTables MakeChromaTables() {
  ChromaTables t;
  for (int s = 0; s < 256; ++s) {
    const double c = s - 128.0;
    t.r_cr[s] = kRFromCr * c;
    t.g_cb[s] = kGFromCb * c;
    t.g_cr[s] = kGFromCr * c;
    t.b_cb[s] = kBFromCb * c;
  }
  return t;
}

uint8_t To8(double v) { return static_cast<uint8_t>(RoundClamp255(v)); }

}  // namespace

void ToImageRowScalar(const int16_t* y, const int16_t* cb, const int16_t* cr,
                      int count, media::Rgb* out) {
  static const ChromaTables t = MakeChromaTables();
  for (int x = 0; x < count; ++x) {
    const double yy = y[x];
    const size_t b = static_cast<size_t>(cb[x / 2]);
    const size_t r = static_cast<size_t>(cr[x / 2]);
    out[x] = media::Rgb{To8(yy + t.r_cr[r]), To8(yy - t.g_cb[b] - t.g_cr[r]),
                        To8(yy + t.b_cb[b])};
  }
}

}  // namespace internal

namespace {

inline bool UseDctAccel() {
  return util::ActiveDispatchLevel() >= util::DispatchLevel::kAvx2 &&
         internal::DctAccelAvailable();
}

// The per-pixel ToImage formula, exact for any int16 samples.
media::Rgb YccToRgb(int16_t y, int16_t cb, int16_t cr) {
  const double yy = y;
  const double b = cb - 128.0;
  const double r = cr - 128.0;
  return media::Rgb{internal::To8(yy + internal::kRFromCr * r),
                    internal::To8(yy - internal::kGFromCb * b -
                                  internal::kGFromCr * r),
                    internal::To8(yy + internal::kBFromCb * b)};
}

bool SamplesIn8BitRange(const Plane& plane) {
  // A sample is in [0, 255] exactly when its high byte is clear; OR the
  // high bytes of four samples at a time.
  const int16_t* s = plane.samples.data();
  const size_t n = plane.samples.size();
  uint64_t high = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    uint64_t four;
    std::memcpy(&four, s + i, sizeof(four));
    high |= four;
  }
  high &= 0xff00ff00ff00ff00ull;
  for (; i < n; ++i) high |= static_cast<uint16_t>(s[i]) & 0xff00u;
  return high == 0;
}

}  // namespace

Block ForwardDct(const Block& spatial) {
  if (UseDctAccel()) return internal::ForwardDctAccel(spatial);
  return internal::ForwardDctScalar(spatial);
}

Block InverseDct(const Block& freq) {
  if (UseDctAccel()) return internal::InverseDctAccel(freq);
  return internal::InverseDctScalar(freq);
}

void AddResidual(const Block& residual, bool predicted, int bx, int by,
                 Plane* out) {
  const int x0 = bx * kBlockSize;
  const int y0 = by * kBlockSize;
  const int cols = std::min(kBlockSize, out->width - x0);
  const int rows = std::min(kBlockSize, out->height - y0);
  if (cols <= 0 || rows <= 0) return;
  int16_t* dst = &out->samples[static_cast<size_t>(y0) * out->width + x0];
  if (UseDctAccel()) {
    internal::AddResidualAccel(residual, dst, out->width, rows, cols,
                               predicted);
  } else {
    internal::AddResidualScalar(residual, dst, out->width, rows, cols,
                                predicted);
  }
}

Picture FromImage(const media::Image& image) {
  const int w = image.width();
  const int h = image.height();
  const int cw = (w + 1) / 2;
  const int ch = (h + 1) / 2;

  Picture pic;
  pic.y = Plane::Make(w, h);
  pic.cb = Plane::Make(cw, ch);
  pic.cr = Plane::Make(cw, ch);

  // Full-resolution YCbCr, then average 2x2 for chroma.
  std::vector<double> cb_full(static_cast<size_t>(w) * h);
  std::vector<double> cr_full(static_cast<size_t>(w) * h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const media::Rgb p = image.at(x, y);
      const double yy = 0.299 * p.r + 0.587 * p.g + 0.114 * p.b;
      const double cb = 128.0 - 0.168736 * p.r - 0.331264 * p.g + 0.5 * p.b;
      const double cr = 128.0 + 0.5 * p.r - 0.418688 * p.g - 0.081312 * p.b;
      pic.y.set(x, y, static_cast<int16_t>(RoundClamp255(yy)));
      cb_full[static_cast<size_t>(y) * w + x] = cb;
      cr_full[static_cast<size_t>(y) * w + x] = cr;
    }
  }
  for (int y = 0; y < ch; ++y) {
    for (int x = 0; x < cw; ++x) {
      double sum_cb = 0.0, sum_cr = 0.0;
      int n = 0;
      for (int dy = 0; dy < 2; ++dy) {
        for (int dx = 0; dx < 2; ++dx) {
          const int sx = 2 * x + dx;
          const int sy = 2 * y + dy;
          if (sx < w && sy < h) {
            sum_cb += cb_full[static_cast<size_t>(sy) * w + sx];
            sum_cr += cr_full[static_cast<size_t>(sy) * w + sx];
            ++n;
          }
        }
      }
      pic.cb.set(x, y, static_cast<int16_t>(RoundClamp255(sum_cb / n)));
      pic.cr.set(x, y, static_cast<int16_t>(RoundClamp255(sum_cr / n)));
    }
  }
  return pic;
}

media::Image ToImage(const Picture& picture, int width, int height) {
  if (width <= 0 || height <= 0) return media::Image(width, height);
  const Plane& py = picture.y;
  const Plane& pcb = picture.cb;
  const Plane& pcr = picture.cr;
  // Row kernels take the interior columns, where no index needs clamping;
  // they index the chroma tables, so they need 8-bit chroma planes.
  using RowKernel = void (*)(const int16_t*, const int16_t*, const int16_t*,
                             int, media::Rgb*);
  RowKernel kernel = nullptr;
  if (SamplesIn8BitRange(pcb) && SamplesIn8BitRange(pcr)) {
    kernel = util::ActiveDispatchLevel() >= util::DispatchLevel::kAvx2 &&
                     internal::ToImageAccelAvailable()
                 ? internal::ToImageRowAccel
                 : internal::ToImageRowScalar;
  }
  const int interior =
      kernel != nullptr ? std::min({width, py.width, 2 * pcb.width}) : 0;
  // Pixels are converted into a small buffer and appended, so the frame is
  // written once rather than zero-filled first.
  std::vector<media::Rgb> pixels;
  pixels.reserve(static_cast<size_t>(width) * height);
  constexpr int kChunk = 256;  // even: chunks start on a chroma sample
  media::Rgb chunk[kChunk];
  for (int y = 0; y < height; ++y) {
    const int16_t* yrow =
        &py.samples[static_cast<size_t>(std::min(y, py.height - 1)) *
                    py.width];
    const size_t cy = static_cast<size_t>(std::min(y / 2, pcb.height - 1));
    const int16_t* cbrow = &pcb.samples[cy * pcb.width];
    const int16_t* crrow = &pcr.samples[cy * pcr.width];
    for (int x0 = 0; x0 < width; x0 += kChunk) {
      const int n = std::min(kChunk, width - x0);
      const int fast = std::clamp(interior - x0, 0, n);
      if (fast > 0) {
        kernel(yrow + x0, cbrow + x0 / 2, crrow + x0 / 2, fast, chunk);
      }
      for (int i = fast; i < n; ++i) {
        const int x = x0 + i;
        const int cx = std::min(x / 2, pcb.width - 1);
        chunk[i] =
            YccToRgb(yrow[std::min(x, py.width - 1)], cbrow[cx], crrow[cx]);
      }
      pixels.insert(pixels.end(), chunk, chunk + n);
    }
  }
  return media::Image(width, height, std::move(pixels));
}

Block GetBlock(const Plane& plane, int bx, int by, bool center) {
  Block block{};
  const double offset = center ? 128.0 : 0.0;
  for (int y = 0; y < kBlockSize; ++y) {
    const int sy = std::min(by * kBlockSize + y, plane.height - 1);
    for (int x = 0; x < kBlockSize; ++x) {
      const int sx = std::min(bx * kBlockSize + x, plane.width - 1);
      block[static_cast<size_t>(y) * kBlockSize + x] =
          plane.at(sx, sy) - offset;
    }
  }
  return block;
}

}  // namespace classminer::codec
