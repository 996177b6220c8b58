#include "codec/decoder.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>

#include "codec/bitstream.h"
#include "codec/motion.h"
#include "codec/quant.h"
#include "util/arena.h"
#include "util/failpoint.h"

namespace classminer::codec {
namespace {

int BlocksAcross(int extent) { return (extent + kBlockSize - 1) / kBlockSize; }

// Decodes an intra plane. When `dc_only` is set, AC coefficients are parsed
// but not inverse-transformed, and only the per-block mean (DC/8 + 128) is
// stored into `dc_out`.
util::Status DecodeIntraPlane(BitReader* reader, int quality, bool chroma,
                              Plane* plane, bool dc_only,
                              std::vector<double>* dc_out) {
  const int bw = BlocksAcross(plane->width);
  const int bh = BlocksAcross(plane->height);
  int32_t dc_pred = 0;
  QuantizedBlock q;
  for (int by = 0; by < bh; ++by) {
    for (int bx = 0; bx < bw; ++bx) {
      util::StatusOr<int32_t> dc = DecodeBlock(reader, &q, dc_pred);
      if (!dc.ok()) return dc.status();
      dc_pred = *dc;
      if (dc_only) {
        if (dc_out != nullptr) {
          const double dc_coef = q[0] * StepSizes(quality, chroma)[0];
          dc_out->push_back(dc_coef / kBlockSize + 128.0);
        }
        continue;
      }
      ReconstructBlock(q, quality, chroma, /*predicted=*/false, bx, by, plane);
    }
  }
  return util::Status::Ok();
}

struct PFrameSink {
  // Full decode targets (null in DC-only mode).
  Picture* recon = nullptr;
  const Picture* ref = nullptr;
  // DC-only targets.
  media::GrayImage* dc_image = nullptr;
  const media::GrayImage* prev_dc = nullptr;
};

// Walks a P-frame payload. In full mode reconstructs the picture: each
// macroblock's motion-compensated prediction is written straight into the
// reconstruction, and its residual blocks are added in place. In DC mode
// updates the DC thumbnail with motion-shifted previous DC + residual DC
// means. Layout must mirror EncodePredicted.
util::Status DecodePredictedFrame(BitReader* reader, int width, int height,
                                  int quality, PFrameSink* sink) {
  const int mbw = (width + kMacroblockSize - 1) / kMacroblockSize;
  const int mbh = (height + kMacroblockSize - 1) / kMacroblockSize;
  const int cbw = ((width + 1) / 2);
  const int cbh = ((height + 1) / 2);

  const bool full = sink->recon != nullptr;
  const double luma_dc_step = StepSizes(quality, /*chroma=*/false)[0];
  QuantizedBlock q;
  for (int my = 0; my < mbh; ++my) {
    for (int mx = 0; mx < mbw; ++mx) {
      util::StatusOr<int32_t> dx = reader->GetSE();
      if (!dx.ok()) return dx.status();
      util::StatusOr<int32_t> dy = reader->GetSE();
      if (!dy.ok()) return dy.status();
      const MotionVector mv{*dx, *dy};

      const int px = mx * kMacroblockSize;
      const int py = my * kMacroblockSize;
      if (full) {
        Picture& recon = *sink->recon;
        MotionCompensate(sink->ref->y, &recon.y, px, py, mv, kMacroblockSize);
        const MotionVector cmv{mv.dx / 2, mv.dy / 2};
        MotionCompensate(sink->ref->cb, &recon.cb, px / 2, py / 2, cmv,
                         kBlockSize);
        MotionCompensate(sink->ref->cr, &recon.cr, px / 2, py / 2, cmv,
                         kBlockSize);
      }

      for (int sub = 0; sub < 4; ++sub) {
        const int bx = 2 * mx + (sub % 2);
        const int by = 2 * my + (sub / 2);
        if (bx * kBlockSize >= width || by * kBlockSize >= height) continue;
        util::StatusOr<int32_t> dc = DecodeBlock(reader, &q, 0);
        if (!dc.ok()) return dc.status();
        if (full) {
          ReconstructBlock(q, quality, /*chroma=*/false, /*predicted=*/true,
                           bx, by, &sink->recon->y);
        } else if (sink->dc_image != nullptr) {
          // DC-resolution motion compensation: sample the previous DC image
          // at the vector-shifted position (rounded to DC grid).
          const media::GrayImage& prev = *sink->prev_dc;
          const int sx = std::clamp(
              bx + static_cast<int>(std::lround(mv.dx / 8.0)), 0,
              prev.width() - 1);
          const int sy = std::clamp(
              by + static_cast<int>(std::lround(mv.dy / 8.0)), 0,
              prev.height() - 1);
          const double base = prev.at(sx, sy);
          const double mean = base + q[0] * luma_dc_step / kBlockSize;
          if (bx < sink->dc_image->width() && by < sink->dc_image->height()) {
            sink->dc_image->set(bx, by,
                                static_cast<uint8_t>(RoundClamp255(mean)));
          }
        }
      }
      if (mx * kBlockSize < cbw && my * kBlockSize < cbh) {
        for (int c = 0; c < 2; ++c) {
          util::StatusOr<int32_t> dc = DecodeBlock(reader, &q, 0);
          if (!dc.ok()) return dc.status();
          if (full) {
            ReconstructBlock(q, quality, /*chroma=*/true, /*predicted=*/true,
                             mx, my,
                             c == 0 ? &sink->recon->cb : &sink->recon->cr);
          }
        }
      }
    }
  }
  return util::Status::Ok();
}

// Decodes the DC image of frame `i` into *dc (sized dcw x dch). `prev` is
// the previous frame's DC image (empty for the first frame).
util::Status DecodeDcFrame(const CmvFile& file, size_t i,
                           const media::GrayImage& prev, int dcw, int dch,
                           media::GrayImage* dc) {
  const FrameRecord& rec = file.frames[i];
  BitReader reader(rec.payload);
  if (rec.type == FrameType::kIntra) {
    // Dims-only plane: the DC-only intra walk never touches samples, so
    // skip the width*height allocation entirely.
    Plane y_dims;
    y_dims.width = file.width;
    y_dims.height = file.height;
    std::vector<double> dcs;
    dcs.reserve(static_cast<size_t>(dcw) * dch);
    CLASSMINER_RETURN_IF_ERROR(DecodeIntraPlane(
        &reader, file.quality, false, &y_dims, /*dc_only=*/true, &dcs));
    for (int by = 0; by < dch; ++by) {
      for (int bx = 0; bx < dcw; ++bx) {
        const double v = dcs[static_cast<size_t>(by) * dcw + bx];
        dc->set(bx, by, static_cast<uint8_t>(RoundClamp255(v)));
      }
    }
    // Chroma planes still occupy the bitstream; no need to parse them for
    // the luma-only DC series (payloads are length-delimited per frame).
    return util::Status::Ok();
  }
  if (i == 0) return util::Status::DataLoss("stream starts with P-frame");
  PFrameSink sink;
  sink.dc_image = dc;
  sink.prev_dc = &prev;
  return DecodePredictedFrame(&reader, file.width, file.height, file.quality,
                              &sink);
}

// The DC-sequence loop behind DecodeDcImages (`report` null: the first
// failing frame fails the call) and DecodeDcImagesSalvage.
util::StatusOr<std::vector<media::GrayImage>> DecodeDcSequence(
    const CmvFile& file, util::SalvageReport* report,
    const util::CancellationToken* cancel) {
  if (file.width <= 0 || file.height <= 0) {
    return util::Status::InvalidArgument("CMV file has empty dimensions");
  }
  const int dcw = BlocksAcross(file.width);
  const int dch = BlocksAcross(file.height);

  std::vector<media::GrayImage> out;
  out.reserve(file.frames.size());
  media::GrayImage prev(dcw, dch, 128);  // fallback when frame 0 fails
  int decoded = 0;
  // Once a frame in a GOP fails, every P-frame until the next I-frame
  // predicts from garbage; hold the last good DC image until the stream
  // resynchronises at an I-frame.
  bool skipping = false;
  for (size_t i = 0; i < file.frames.size(); ++i) {
    if (cancel != nullptr && cancel->cancelled()) {
      return util::Status::Cancelled("DC image extraction cancelled");
    }
    const bool intra = file.frames[i].type == FrameType::kIntra;
    if (skipping && intra) skipping = false;
    media::GrayImage dc(dcw, dch);
    util::Status frame = skipping
                             ? util::Status::DataLoss("GOP lost upstream")
                             : DecodeDcFrame(file, i, prev, dcw, dch, &dc);
    if (frame.ok()) {
      ++decoded;
      prev = dc;
      out.push_back(std::move(dc));
      continue;
    }
    if (report == nullptr) return frame;
    if (!skipping) {
      skipping = true;
      report->gops_skipped += 1;
      report->AddNote("decode: frame " + std::to_string(i) + ": " +
                      frame.message());
    }
    report->items_dropped += 1;
    out.push_back(prev);  // keep frame indices aligned with the container
  }
  if (decoded == 0 && !file.frames.empty()) {
    return util::Status::DataLoss("no frame in the stream decodes");
  }
  if (report != nullptr) report->items_recovered += decoded;
  return out;
}

}  // namespace

namespace internal {

util::StatusOr<Picture> DecodePicture(const FrameRecord& rec, int width,
                                      int height, int quality,
                                      const Picture* ref,
                                      std::pmr::memory_resource* scratch) {
  const int cw = (width + 1) / 2;
  const int ch = (height + 1) / 2;
  BitReader reader(rec.payload);
  // Planes are constructed on `scratch` and the picture returned by move,
  // which preserves the resource (assignment through an existing Picture
  // would not — see Plane).
  Picture out{Plane::Make(width, height, 0, scratch),
              Plane::Make(cw, ch, 0, scratch),
              Plane::Make(cw, ch, 0, scratch)};
  if (rec.type == FrameType::kIntra) {
    CLASSMINER_RETURN_IF_ERROR(
        DecodeIntraPlane(&reader, quality, false, &out.y, false, nullptr));
    CLASSMINER_RETURN_IF_ERROR(
        DecodeIntraPlane(&reader, quality, true, &out.cb, false, nullptr));
    CLASSMINER_RETURN_IF_ERROR(
        DecodeIntraPlane(&reader, quality, true, &out.cr, false, nullptr));
    return out;
  }
  if (ref == nullptr) {
    return util::Status::DataLoss("P-frame without a reference picture");
  }
  PFrameSink sink;
  sink.recon = &out;
  sink.ref = ref;
  CLASSMINER_RETURN_IF_ERROR(
      DecodePredictedFrame(&reader, width, height, quality, &sink));
  return out;
}

util::Status DecodeGopFrames(const CmvFile& file, const GopIndexEntry& gop,
                             const util::CancellationToken* cancel,
                             util::Arena* arenas,
                             std::vector<media::Image>* frames) {
  // Double-buffered bump arenas: frame i decodes into arena i % 2 while the
  // previous reconstruction (the P-frame reference) stays live in the other
  // one. Resetting an arena only discards the frame from two steps back,
  // which nothing references any more. The decoded pixels escape as
  // heap-backed Images, never as arena memory.
  std::optional<Picture> slots[2];
  const Picture* recon = nullptr;
  for (int i = 0; i < gop.frame_count; ++i) {
    if (cancel != nullptr && cancel->cancelled()) {
      return util::Status::Cancelled("GOP decode cancelled");
    }
    const FrameRecord& rec =
        file.frames[static_cast<size_t>(gop.start_frame + i)];
    util::Arena& frame_arena = arenas[i % 2];
    slots[i % 2].reset();
    frame_arena.Reset();
    util::StatusOr<Picture> next =
        DecodePicture(rec, file.width, file.height, file.quality,
                      i == 0 ? nullptr : recon, &frame_arena);
    CLASSMINER_RETURN_IF_ERROR(next.status());
    recon = &slots[i % 2].emplace(std::move(*next));
    frames->push_back(ToImage(*recon, file.width, file.height));
  }
  return util::Status::Ok();
}

}  // namespace internal

util::StatusOr<media::Video> DecodeVideo(const CmvFile& file,
                                         const util::ExecutionContext& ctx) {
  CLASSMINER_RETURN_IF_ERROR(util::FailPoint::Check("codec.decode_video"));
  if (file.width <= 0 || file.height <= 0) {
    return util::Status::InvalidArgument("CMV file has empty dimensions");
  }
  if (ctx.cancelled()) return util::Status::Cancelled("video decode cancelled");
  util::StatusOr<std::vector<GopIndexEntry>> gops =
      CmvFile::DeriveGopIndex(file.frames);
  if (!gops.ok()) return gops.status();

  // Runners (the pool's workers plus this thread, capped at the host's
  // cores) claim GOPs in order and decode each on their own arena pair into
  // its own frame list, so pixels are allocated only as frames decode. No
  // runner starts a GOP past a failed one: the first failing GOP in stream
  // order decides, and a corrupt stream stops early. Exceptions are caught
  // per GOP, since the pool ParallelFor would skip the rest of the range.
  const int gop_count = static_cast<int>(gops->size());
  const int runners = std::min({gop_count, ctx.thread_count() + 1,
                                util::ThreadPool::DefaultThreads()});
  std::vector<std::vector<media::Image>> gop_frames(gops->size());
  std::atomic<int> next_gop{0};
  std::atomic<int> failed_gop{gop_count};
  std::mutex failure_mu;
  util::Status failure;
  util::ParallelFor(ctx.pool(), runners, [&](int) {
    util::Arena arenas[2];
    for (int g = next_gop++; g < failed_gop.load(); g = next_gop++) {
      util::Status status;
      try {
        status = internal::DecodeGopFrames(
            file, (*gops)[static_cast<size_t>(g)], ctx.cancellation(),
            arenas, &gop_frames[static_cast<size_t>(g)]);
      } catch (...) {
        status = util::Status::Internal("GOP decode threw an exception");
      }
      if (status.ok()) continue;
      std::lock_guard<std::mutex> lock(failure_mu);
      if (g < failed_gop.load()) {
        failed_gop.store(g);
        failure = std::move(status);
      }
    }
  });
  if (failed_gop.load() < gop_count) return failure;

  media::Video video(file.name, file.fps);
  video.Reserve(file.frames.size());
  for (std::vector<media::Image>& frames : gop_frames) {
    for (media::Image& frame : frames) video.AppendFrame(std::move(frame));
  }
  return video;
}

util::StatusOr<std::vector<media::GrayImage>> DecodeDcImages(
    const CmvFile& file, const util::CancellationToken* cancel) {
  return DecodeDcSequence(file, nullptr, cancel);
}

util::StatusOr<std::vector<media::GrayImage>> DecodeDcImagesSalvage(
    const CmvFile& file, util::SalvageReport* report,
    const util::CancellationToken* cancel) {
  util::SalvageReport local;
  return DecodeDcSequence(file, report != nullptr ? report : &local, cancel);
}

double Psnr(const media::Image& a, const media::Image& b) {
  const int w = std::min(a.width(), b.width());
  const int h = std::min(a.height(), b.height());
  if (w == 0 || h == 0) return 0.0;
  double mse = 0.0;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const media::Rgb pa = a.at(x, y);
      const media::Rgb pb = b.at(x, y);
      const double dr = static_cast<double>(pa.r) - pb.r;
      const double dg = static_cast<double>(pa.g) - pb.g;
      const double db = static_cast<double>(pa.b) - pb.b;
      mse += (dr * dr + dg * dg + db * db) / 3.0;
    }
  }
  mse /= static_cast<double>(w) * h;
  if (mse <= 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

}  // namespace classminer::codec
