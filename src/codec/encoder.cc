#include "codec/encoder.h"

#include <algorithm>

#include "codec/bitstream.h"
#include "codec/motion.h"
#include "codec/quant.h"

namespace classminer::codec {
namespace internal {
namespace {

int BlocksAcross(int extent) { return (extent + kBlockSize - 1) / kBlockSize; }

// Encodes every 8x8 block of `plane` as intra, reconstructing into `recon`.
void EncodeIntraPlane(const Plane& plane, int quality, bool chroma,
                      BitWriter* writer, Plane* recon) {
  const int bw = BlocksAcross(plane.width);
  const int bh = BlocksAcross(plane.height);
  int32_t dc_pred = 0;
  for (int by = 0; by < bh; ++by) {
    for (int bx = 0; bx < bw; ++bx) {
      const Block spatial = GetBlock(plane, bx, by, /*center=*/true);
      const Block freq = ForwardDct(spatial);
      const QuantizedBlock q = Quantize(freq, quality, chroma);
      dc_pred = EncodeBlock(writer, q, dc_pred);
      ReconstructBlock(q, quality, chroma, /*predicted=*/false, bx, by, recon);
    }
  }
}

// Residual block at (bx, by): cur - pred, both uncentered. `recon` holds
// the block's motion-compensated prediction; the reconstruction replaces
// it in place (the block reads only its own footprint).
void EncodeResidualBlock(const Plane& cur, int bx, int by, int quality,
                         bool chroma, BitWriter* writer, Plane* recon) {
  Block residual{};
  for (int y = 0; y < kBlockSize; ++y) {
    const int sy = std::min(by * kBlockSize + y, cur.height - 1);
    for (int x = 0; x < kBlockSize; ++x) {
      const int sx = std::min(bx * kBlockSize + x, cur.width - 1);
      residual[static_cast<size_t>(y) * kBlockSize + x] =
          static_cast<double>(cur.at(sx, sy)) - recon->at(sx, sy);
    }
  }
  const QuantizedBlock q = Quantize(ForwardDct(residual), quality, chroma);
  EncodeBlock(writer, q, /*dc_predictor=*/0);
  ReconstructBlock(q, quality, chroma, /*predicted=*/true, bx, by, recon);
}

}  // namespace

std::vector<uint8_t> EncodeIntra(const Picture& pic, int quality,
                                 Picture* recon) {
  recon->y = Plane::Make(pic.y.width, pic.y.height);
  recon->cb = Plane::Make(pic.cb.width, pic.cb.height);
  recon->cr = Plane::Make(pic.cr.width, pic.cr.height);

  BitWriter writer;
  EncodeIntraPlane(pic.y, quality, /*chroma=*/false, &writer, &recon->y);
  EncodeIntraPlane(pic.cb, quality, /*chroma=*/true, &writer, &recon->cb);
  EncodeIntraPlane(pic.cr, quality, /*chroma=*/true, &writer, &recon->cr);
  return writer.Finish();
}

std::vector<uint8_t> EncodePredicted(const Picture& pic, const Picture& ref,
                                     int quality, int search_range,
                                     Picture* recon) {
  recon->y = Plane::Make(pic.y.width, pic.y.height);
  recon->cb = Plane::Make(pic.cb.width, pic.cb.height);
  recon->cr = Plane::Make(pic.cr.width, pic.cr.height);

  BitWriter writer;
  const int mbw = (pic.y.width + kMacroblockSize - 1) / kMacroblockSize;
  const int mbh = (pic.y.height + kMacroblockSize - 1) / kMacroblockSize;

  for (int my = 0; my < mbh; ++my) {
    for (int mx = 0; mx < mbw; ++mx) {
      const int px = mx * kMacroblockSize;
      const int py = my * kMacroblockSize;
      const MotionVector mv =
          EstimateMotion(pic.y, ref.y, px, py, search_range);
      writer.PutSE(mv.dx);
      writer.PutSE(mv.dy);

      MotionCompensate(ref.y, &recon->y, px, py, mv, kMacroblockSize);
      const MotionVector cmv{mv.dx / 2, mv.dy / 2};
      MotionCompensate(ref.cb, &recon->cb, px / 2, py / 2, cmv, kBlockSize);
      MotionCompensate(ref.cr, &recon->cr, px / 2, py / 2, cmv, kBlockSize);

      // 4 luma blocks, then cb, then cr.
      for (int sub = 0; sub < 4; ++sub) {
        const int bx = 2 * mx + (sub % 2);
        const int by = 2 * my + (sub / 2);
        if (bx * kBlockSize >= pic.y.width || by * kBlockSize >= pic.y.height) {
          continue;  // partial macroblock at the border
        }
        EncodeResidualBlock(pic.y, bx, by, quality, /*chroma=*/false,
                            &writer, &recon->y);
      }
      if (mx * kBlockSize < pic.cb.width && my * kBlockSize < pic.cb.height) {
        EncodeResidualBlock(pic.cb, mx, my, quality, /*chroma=*/true,
                            &writer, &recon->cb);
        EncodeResidualBlock(pic.cr, mx, my, quality, /*chroma=*/true,
                            &writer, &recon->cr);
      }
    }
  }
  return writer.Finish();
}

}  // namespace internal

CmvFile EncodeVideo(const media::Video& video, const EncoderOptions& options) {
  CmvFile file;
  file.name = video.name();
  file.width = video.width();
  file.height = video.height();
  file.fps = video.fps();
  file.quality = options.quality;
  file.gop_size = std::max(1, options.gop_size);
  file.frames.reserve(static_cast<size_t>(video.frame_count()));

  Picture recon;
  for (int i = 0; i < video.frame_count(); ++i) {
    const Picture pic = FromImage(video.frame(i));
    FrameRecord rec;
    if (i % file.gop_size == 0) {
      rec.type = FrameType::kIntra;
      rec.payload = internal::EncodeIntra(pic, options.quality, &recon);
    } else {
      rec.type = FrameType::kPredicted;
      Picture next_recon;
      rec.payload = internal::EncodePredicted(
          pic, recon, options.quality, options.search_range, &next_recon);
      recon = std::move(next_recon);
    }
    file.frames.push_back(std::move(rec));
  }
  // Frame 0 is always an I-frame, so the index derivation cannot fail.
  (void)file.RebuildGopIndex();
  return file;
}

}  // namespace classminer::codec
