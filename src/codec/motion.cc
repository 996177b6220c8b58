#include "codec/motion.h"

#include <algorithm>
#include <cstdlib>

#include "util/cpu.h"

namespace classminer::codec {
namespace {

int16_t SampleClamped(const Plane& p, int x, int y) {
  x = std::clamp(x, 0, p.width - 1);
  y = std::clamp(y, 0, p.height - 1);
  return p.at(x, y);
}

// True when both 16x16 footprints lie fully inside their planes, so no
// per-sample clamping or partial-row logic is needed.
bool SadInterior(const Plane& cur, const Plane& ref, int mx, int my, int dx,
                 int dy) {
  return mx >= 0 && my >= 0 && mx + kMacroblockSize <= cur.width &&
         my + kMacroblockSize <= cur.height && mx + dx >= 0 && my + dy >= 0 &&
         mx + dx + kMacroblockSize <= ref.width &&
         my + dy + kMacroblockSize <= ref.height;
}

}  // namespace

namespace internal {

int64_t MacroblockSadScalar(const Plane& cur, const Plane& ref, int mx,
                            int my, int dx, int dy) {
  int64_t sad = 0;
  for (int y = 0; y < kMacroblockSize; ++y) {
    const int cy = my + y;
    if (cy >= cur.height) break;
    for (int x = 0; x < kMacroblockSize; ++x) {
      const int cx = mx + x;
      if (cx >= cur.width) break;
      sad += std::abs(static_cast<int>(cur.at(cx, cy)) -
                      SampleClamped(ref, cx + dx, cy + dy));
    }
  }
  return sad;
}

}  // namespace internal

int64_t MacroblockSad(const Plane& cur, const Plane& ref, int mx, int my,
                      int dx, int dy) {
  if (util::ActiveDispatchLevel() >= util::DispatchLevel::kAvx2 &&
      internal::SadAccelAvailable() && SadInterior(cur, ref, mx, my, dx, dy)) {
    return internal::MacroblockSadAccel(cur, ref, mx, my, dx, dy);
  }
  return internal::MacroblockSadScalar(cur, ref, mx, my, dx, dy);
}

MotionVector EstimateMotion(const Plane& cur, const Plane& ref, int mx,
                            int my, int range) {
  MotionVector best{0, 0};
  int64_t best_sad = MacroblockSad(cur, ref, mx, my, 0, 0);
  if (best_sad == 0) return best;
  for (int dy = -range; dy <= range; ++dy) {
    for (int dx = -range; dx <= range; ++dx) {
      if (dx == 0 && dy == 0) continue;
      const int64_t sad = MacroblockSad(cur, ref, mx, my, dx, dy);
      // Slight zero bias: prefer shorter vectors on ties.
      const int64_t penalty = std::abs(dx) + std::abs(dy);
      if (sad + penalty < best_sad) {
        best_sad = sad + penalty;
        best = MotionVector{dx, dy};
      }
    }
  }
  return best;
}

void MotionCompensate(const Plane& ref, Plane* pred, int mx, int my,
                      MotionVector mv, int block_size) {
  const int cols = std::min(block_size, pred->width - mx);
  const int rows = std::min(block_size, pred->height - my);
  if (cols <= 0 || rows <= 0) return;
  // 64-bit source coordinates: a hostile vector must not overflow them.
  const int64_t sx = int64_t{mx} + mv.dx;
  const int64_t sy = int64_t{my} + mv.dy;
  int16_t* dst = &pred->samples[static_cast<size_t>(my) * pred->width + mx];
  if (sx >= 0 && sy >= 0 && sx + cols <= ref.width && sy + rows <= ref.height) {
    // Interior source block: whole rows, no clamping.
    const int16_t* src =
        &ref.samples[static_cast<size_t>(sy) * ref.width +
                     static_cast<size_t>(sx)];
    for (int y = 0; y < rows; ++y) {
      std::copy_n(src + static_cast<size_t>(y) * ref.width, cols,
                  dst + static_cast<size_t>(y) * pred->width);
    }
    return;
  }
  for (int y = 0; y < rows; ++y) {
    const int64_t ry = std::clamp<int64_t>(sy + y, 0, ref.height - 1);
    for (int x = 0; x < cols; ++x) {
      const int64_t rx = std::clamp<int64_t>(sx + x, 0, ref.width - 1);
      dst[static_cast<size_t>(y) * pred->width + x] =
          ref.at(static_cast<int>(rx), static_cast<int>(ry));
    }
  }
}

}  // namespace classminer::codec
