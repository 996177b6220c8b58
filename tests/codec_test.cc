#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>

#include "codec/bitstream.h"
#include "codec/container.h"
#include "codec/decoder.h"
#include "codec/dct.h"
#include "codec/encoder.h"
#include "codec/gop_reader.h"
#include "codec/motion.h"
#include "codec/quant.h"
#include "media/color.h"
#include "media/draw.h"
#include "util/arena.h"
#include "util/exec_context.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace {

// Allocation trap on aligned operator new: while armed, the
// `countdown`-th aligned allocation of exactly `size` bytes runs `action`
// first. The decode tests size it to an arena chunk: every decode task
// allocates exactly two (one per double-buffered arena, at frames 0 and 1
// of its first GOP) and nothing else in a decode allocates that way, so a
// test can throw or cancel inside a GOP task. Unarmed, it costs one load.
struct AllocTrap {
  std::atomic<size_t> size{0};
  std::atomic<int> countdown{0};
  void (*action)() = nullptr;
};
AllocTrap g_alloc_trap;

// Counts plain operator new calls of exactly `size` bytes while armed. The
// decode tests size it to one frame's pixels (width x height x Rgb), which
// nothing else in a decode allocates, to count the frames a decode builds.
struct AllocCounter {
  std::atomic<size_t> size{0};
  std::atomic<int> count{0};
};
AllocCounter g_alloc_counter;

}  // namespace

void* operator new(std::size_t size) {
  const size_t armed = g_alloc_counter.size.load(std::memory_order_acquire);
  if (armed != 0 && size == armed) g_alloc_counter.count.fetch_add(1);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

void* operator new(std::size_t size, std::align_val_t align) {
  const size_t armed = g_alloc_trap.size.load(std::memory_order_acquire);
  if (armed != 0 && size == armed &&
      g_alloc_trap.countdown.fetch_sub(1) == 1) {
    g_alloc_trap.action();
  }
  const size_t a = static_cast<size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with a new.
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}

namespace classminer::codec {
namespace {

class ScopedAllocTrap {
 public:
  ScopedAllocTrap(size_t size, int nth, void (*action)()) {
    g_alloc_trap.action = action;
    g_alloc_trap.countdown.store(nth);
    g_alloc_trap.size.store(size, std::memory_order_release);
  }
  ~ScopedAllocTrap() { g_alloc_trap.size.store(0, std::memory_order_release); }
  ScopedAllocTrap(const ScopedAllocTrap&) = delete;
  ScopedAllocTrap& operator=(const ScopedAllocTrap&) = delete;
};

// Counts the frames (pixel buffers of a width x height picture) built
// while in scope.
class ScopedFrameCounter {
 public:
  ScopedFrameCounter(int width, int height) {
    g_alloc_counter.count.store(0);
    g_alloc_counter.size.store(
        sizeof(media::Rgb) * static_cast<size_t>(width) * height,
        std::memory_order_release);
  }
  ~ScopedFrameCounter() {
    g_alloc_counter.size.store(0, std::memory_order_release);
  }
  int count() const { return g_alloc_counter.count.load(); }
  ScopedFrameCounter(const ScopedFrameCounter&) = delete;
  ScopedFrameCounter& operator=(const ScopedFrameCounter&) = delete;
};

TEST(BitstreamTest, BitsRoundTrip) {
  BitWriter w;
  w.PutBits(0b1011, 4);
  w.PutBits(0x3f, 6);
  const std::vector<uint8_t> bytes = w.Finish();
  BitReader r(bytes);
  EXPECT_EQ(*r.GetBits(4), 0b1011u);
  EXPECT_EQ(*r.GetBits(6), 0x3fu);
}

TEST(BitstreamTest, ExpGolombRoundTrip) {
  BitWriter w;
  for (uint32_t v = 0; v < 300; ++v) w.PutUE(v);
  for (int32_t v = -150; v <= 150; ++v) w.PutSE(v);
  const std::vector<uint8_t> bytes = w.Finish();
  BitReader r(bytes);
  for (uint32_t v = 0; v < 300; ++v) EXPECT_EQ(*r.GetUE(), v);
  for (int32_t v = -150; v <= 150; ++v) EXPECT_EQ(*r.GetSE(), v);
}

TEST(BitstreamTest, ExhaustionIsError) {
  BitReader r(nullptr, 0);
  EXPECT_FALSE(r.GetBit().ok());
}

TEST(DctTest, RoundTripRandomBlock) {
  util::Rng rng(11);
  Block b{};
  for (double& v : b) v = rng.Uniform(-128.0, 128.0);
  const Block rec = InverseDct(ForwardDct(b));
  for (size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(rec[i], b[i], 1e-9);
}

TEST(DctTest, ConstantBlockHasOnlyDc) {
  Block b{};
  b.fill(100.0);
  const Block f = ForwardDct(b);
  EXPECT_NEAR(f[0], 800.0, 1e-9);  // 8 * 100 with orthonormal scaling
  for (size_t i = 1; i < f.size(); ++i) EXPECT_NEAR(f[i], 0.0, 1e-9);
}

TEST(DctTest, Parseval) {
  util::Rng rng(12);
  Block b{};
  for (double& v : b) v = rng.Uniform(-1.0, 1.0);
  const Block f = ForwardDct(b);
  double es = 0.0, ef = 0.0;
  for (size_t i = 0; i < b.size(); ++i) {
    es += b[i] * b[i];
    ef += f[i] * f[i];
  }
  EXPECT_NEAR(es, ef, 1e-9);
}

TEST(QuantTest, ZigzagIsPermutation) {
  const auto& zz = ZigzagOrder();
  std::array<int, kBlockPixels> seen{};
  for (int idx : zz) {
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, kBlockPixels);
    ++seen[static_cast<size_t>(idx)];
  }
  for (int count : seen) EXPECT_EQ(count, 1);
  EXPECT_EQ(zz[0], 0);
  EXPECT_EQ(zz[1], 1);      // (0,1)
  EXPECT_EQ(zz[2], 8);      // (1,0)
}

TEST(QuantTest, QuantizeDequantizeBoundsError) {
  util::Rng rng(13);
  Block f{};
  for (double& v : f) v = rng.Uniform(-200.0, 200.0);
  const int quality = 4;
  const QuantizedBlock q = Quantize(f, quality, false);
  const Block deq = Dequantize(q, quality, false);
  // Error per coefficient bounded by half a step (step = matrix * scale).
  for (size_t i = 0; i < f.size(); ++i) {
    EXPECT_LE(std::fabs(deq[i] - f[i]), 130.0 * quality / 8.0 * 0.5 + 1e-9);
  }
}

TEST(QuantTest, BlockCodingRoundTrip) {
  util::Rng rng(14);
  QuantizedBlock q{};
  q[0] = 37;
  for (int i = 0; i < 12; ++i) {
    q[static_cast<size_t>(rng.UniformInt(1, kBlockPixels - 1))] =
        rng.UniformInt(-40, 40);
  }
  BitWriter w;
  const int32_t dc = EncodeBlock(&w, q, /*dc_predictor=*/10);
  EXPECT_EQ(dc, 37);
  const std::vector<uint8_t> bytes = w.Finish();
  BitReader r(bytes);
  QuantizedBlock back{};
  util::StatusOr<int32_t> dc2 = DecodeBlock(&r, &back, 10);
  ASSERT_TRUE(dc2.ok());
  EXPECT_EQ(*dc2, 37);
  EXPECT_EQ(back, q);
}

TEST(MotionTest, FindsKnownShift) {
  Plane ref = Plane::Make(48, 48);
  util::Rng rng(15);
  for (int16_t& s : ref.samples) s = static_cast<int16_t>(rng.UniformInt(0, 255));
  // cur = ref shifted by (3, -2).
  Plane cur = Plane::Make(48, 48);
  for (int y = 0; y < 48; ++y) {
    for (int x = 0; x < 48; ++x) {
      const int sx = std::clamp(x - 3, 0, 47);
      const int sy = std::clamp(y + 2, 0, 47);
      cur.set(x, y, ref.at(sx, sy));
    }
  }
  const MotionVector mv = EstimateMotion(cur, ref, 16, 16, 7);
  EXPECT_EQ(mv.dx, -3);
  EXPECT_EQ(mv.dy, 2);
}

TEST(MotionTest, ZeroMotionForIdentical) {
  Plane p = Plane::Make(32, 32, 100);
  EXPECT_EQ(EstimateMotion(p, p, 0, 0, 7), (MotionVector{0, 0}));
}

TEST(ColorSpaceTest, RgbYcbcrRoundTrip) {
  util::Rng rng(16);
  media::Image img(17, 13);  // odd sizes exercise chroma padding
  media::AddNoise(&img, 255, &rng);
  const Picture pic = FromImage(img);
  const media::Image back = ToImage(pic, 17, 13);
  // 4:2:0 chroma subsampling loses colour detail; luma must stay close.
  double luma_err = 0.0;
  for (int y = 0; y < 13; ++y) {
    for (int x = 0; x < 17; ++x) {
      luma_err += std::fabs(static_cast<double>(media::Luma(img.at(x, y))) -
                            media::Luma(back.at(x, y)));
    }
  }
  EXPECT_LT(luma_err / (17 * 13), 3.0);
}

media::Video MakeTestVideo(int frames, int w, int h, uint64_t seed) {
  util::Rng rng(seed);
  media::Video video("codec_test", 12.0);
  media::Image base(w, h);
  media::FillGradient(&base, media::Rgb{40, 80, 160}, media::Rgb{10, 20, 60});
  media::FillEllipse(&base, w / 2, h / 2, w / 5, h / 5, media::Rgb{210, 160, 120});
  for (int i = 0; i < frames; ++i) {
    media::Image frame = media::Translated(base, i / 2, 0);
    media::AddNoise(&frame, 2, &rng);
    video.AppendFrame(std::move(frame));
  }
  return video;
}

TEST(CodecTest, EncodeDecodeQuality) {
  const media::Video video = MakeTestVideo(10, 48, 32, 21);
  EncoderOptions opts;
  opts.quality = 4;
  opts.gop_size = 5;
  const CmvFile file = EncodeVideo(video, opts);
  ASSERT_EQ(file.frame_count(), 10);
  EXPECT_EQ(file.frames[0].type, FrameType::kIntra);
  EXPECT_EQ(file.frames[5].type, FrameType::kIntra);
  EXPECT_EQ(file.frames[1].type, FrameType::kPredicted);

  util::StatusOr<media::Video> decoded = DecodeVideo(file);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->frame_count(), 10);
  for (int i = 0; i < 10; ++i) {
    EXPECT_GT(Psnr(video.frame(i), decoded->frame(i)), 26.0)
        << "frame " << i;
  }
}

TEST(CodecTest, CoarserQualityIsSmaller) {
  const media::Video video = MakeTestVideo(6, 48, 32, 22);
  EncoderOptions fine;
  fine.quality = 2;
  EncoderOptions coarse;
  coarse.quality = 16;
  EXPECT_LT(EncodeVideo(video, coarse).VideoPayloadBytes(),
            EncodeVideo(video, fine).VideoPayloadBytes());
}

TEST(CodecTest, ContainerRoundTrip) {
  const media::Video video = MakeTestVideo(4, 32, 24, 23);
  CmvFile file = EncodeVideo(video, EncoderOptions());
  file.audio_sample_rate = 8000;
  file.audio_pcm = {0.5f, -0.25f, 0.0f};
  const std::vector<uint8_t> bytes = file.Serialize();
  util::StatusOr<CmvFile> parsed = CmvFile::Parse(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->width, file.width);
  EXPECT_EQ(parsed->frame_count(), file.frame_count());
  EXPECT_EQ(parsed->audio_pcm, file.audio_pcm);
  EXPECT_EQ(parsed->frames[1].payload, file.frames[1].payload);
}

TEST(CodecTest, CorruptMagicRejected) {
  std::vector<uint8_t> bytes{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_FALSE(CmvFile::Parse(bytes).ok());
}

TEST(CodecTest, TruncatedPayloadIsDataLoss) {
  const media::Video video = MakeTestVideo(3, 32, 24, 24);
  CmvFile file = EncodeVideo(video, EncoderOptions());
  std::vector<uint8_t> bytes = file.Serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(CmvFile::Parse(bytes).ok());
}

TEST(CodecTest, DcImagesTrackLuma) {
  const media::Video video = MakeTestVideo(8, 48, 32, 25);
  EncoderOptions opts;
  opts.quality = 4;
  opts.gop_size = 4;
  const CmvFile file = EncodeVideo(video, opts);
  util::StatusOr<std::vector<media::GrayImage>> dc = DecodeDcImages(file);
  ASSERT_TRUE(dc.ok());
  ASSERT_EQ(dc->size(), 8u);
  EXPECT_EQ((*dc)[0].width(), 6);   // 48 / 8
  EXPECT_EQ((*dc)[0].height(), 4);  // 32 / 8

  // The DC image of an I-frame must approximate the true block means.
  const media::GrayImage gray = media::ToGray(video.frame(0));
  for (int by = 0; by < 4; ++by) {
    for (int bx = 0; bx < 6; ++bx) {
      double mean = 0.0;
      for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) mean += gray.at(bx * 8 + x, by * 8 + y);
      }
      mean /= 64.0;
      EXPECT_NEAR((*dc)[0].at(bx, by), mean, 24.0);
    }
  }
}

TEST(CodecTest, DcSequenceDetectsBigChange) {
  // Two visually distinct halves: DC difference across the boundary must
  // dominate within-shot differences.
  media::Video video("cut", 12.0);
  util::Rng rng(26);
  for (int i = 0; i < 6; ++i) {
    media::Image f(48, 32, media::Rgb{200, 30, 30});
    media::AddNoise(&f, 2, &rng);
    video.AppendFrame(std::move(f));
  }
  for (int i = 0; i < 6; ++i) {
    media::Image f(48, 32, media::Rgb{20, 30, 180});
    media::AddNoise(&f, 2, &rng);
    video.AppendFrame(std::move(f));
  }
  EncoderOptions opts;
  opts.gop_size = 4;
  const CmvFile file = EncodeVideo(video, opts);
  util::StatusOr<std::vector<media::GrayImage>> dc = DecodeDcImages(file);
  ASSERT_TRUE(dc.ok());
  double max_within = 0.0;
  double at_cut = 0.0;
  for (size_t i = 1; i < dc->size(); ++i) {
    double diff = 0.0;
    for (int y = 0; y < 4; ++y) {
      for (int x = 0; x < 6; ++x) {
        diff += std::fabs(static_cast<double>((*dc)[i].at(x, y)) -
                          (*dc)[i - 1].at(x, y));
      }
    }
    if (i == 6) {
      at_cut = diff;
    } else {
      max_within = std::max(max_within, diff);
    }
  }
  EXPECT_GT(at_cut, 3.0 * max_within);
}

// ------------------------------------------------- GOP-parallel DecodeVideo

// A decode task's first arena chunk (40x24 planes fit in it).
constexpr size_t kChunkBytes = util::Arena::kDefaultChunkBytes;

// 40 frames at GOP size 8: five GOPs of eight.
CmvFile FiveGopFile() {
  EncoderOptions opts;
  opts.gop_size = 8;
  return EncodeVideo(MakeTestVideo(40, 40, 24, 31), opts);
}

// Decodes on a pool of `width` threads (width 1: no pool, serial).
util::StatusOr<media::Video> DecodeAtWidth(
    const CmvFile& file, int width,
    util::CancellationToken* cancel = nullptr) {
  std::unique_ptr<util::ThreadPool> pool =
      width > 1 ? std::make_unique<util::ThreadPool>(width) : nullptr;
  return DecodeVideo(file,
                     util::ExecutionContext(pool.get(), nullptr, cancel));
}

TEST(DecodeVideoTest, FirstFailingGopInStreamOrderDecidesAtEveryWidth) {
  const CmvFile clean = FiveGopFile();
  // An emptied P-frame runs out of bits; an all-zero one is a malformed
  // exp-Golomb code. Frame 11 sits in GOP 1, frame 27 in GOP 3.
  for (const bool emptied_first : {true, false}) {
    CmvFile file = clean;
    file.gop_index.clear();  // payload sizes change; let readers derive it
    const size_t emptied = emptied_first ? 11 : 27;
    const size_t zeroed = emptied_first ? 27 : 11;
    file.frames[emptied].payload.clear();
    ASSERT_GE(file.frames[zeroed].payload.size(), 8u);
    std::fill(file.frames[zeroed].payload.begin(),
              file.frames[zeroed].payload.end(), 0);

    util::StatusOr<GopReader> reader = GopReader::Create(&file);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    const util::Status gop1 = reader->DecodeGop(1).status();
    const util::Status gop3 = reader->DecodeGop(3).status();
    ASSERT_FALSE(gop1.ok());
    ASSERT_FALSE(gop3.ok());
    ASSERT_NE(gop1.message(), gop3.message());  // the order is observable
    for (int width : {1, 2, 4}) {
      ScopedFrameCounter frames(40, 24);
      const util::Status status = DecodeAtWidth(file, width).status();
      EXPECT_EQ(status.code(), gop1.code()) << "width " << width;
      EXPECT_EQ(status.message(), gop1.message()) << "width " << width;
      // Serially the decode stops at the failure: GOP 0 and frames 8-10 of
      // GOP 1 are built, and no GOP after it is decoded.
      if (width == 1) EXPECT_EQ(frames.count(), 11);
    }
  }
}

// A small container can declare many frames; decode commits pixel memory
// only for frames that decode, so garbage payloads fail fast at any width
// instead of allocating the declared video first.
TEST(DecodeVideoTest, GarbageFramesFailBeforeAllocatingTheDeclaredVideo) {
  constexpr int kFrames = 4000;
  CmvFile file;
  file.width = 160;
  file.height = 120;
  const CmvFile valid = FiveGopFile();
  for (const bool valid_first : {false, true}) {
    // Every record a one-byte garbage I-frame (a GOP each), or one valid
    // I-frame opening a GOP of one-byte garbage P-frames.
    file.frames.assign(kFrames, FrameRecord{});
    for (FrameRecord& rec : file.frames) {
      rec.type = valid_first ? FrameType::kPredicted : FrameType::kIntra;
      rec.payload = {0x5a};
    }
    if (valid_first) {
      file.width = valid.width;
      file.height = valid.height;
      file.quality = valid.quality;
      file.frames[0] = valid.frames[0];
    }
    for (int width : {1, 2, 4}) {
      ScopedFrameCounter frames(file.width, file.height);
      const util::Status status = DecodeAtWidth(file, width).status();
      EXPECT_EQ(status.code(), util::StatusCode::kDataLoss)
          << "width " << width << ": " << status.ToString();
      EXPECT_EQ(frames.count(), valid_first ? 1 : 0) << "width " << width;
    }
  }
}

void ThrowBadAlloc() { throw std::bad_alloc(); }

TEST(DecodeVideoTest, ThrowingGopTaskIsAStatusNotAPartialVideo) {
  const CmvFile file = FiveGopFile();
  for (int width : {1, 2, 4}) {
    // The second chunk: at frame 0 or 1 of some GOP (serially, GOP 0 at
    // frame 1, after frame 0 decoded).
    util::StatusOr<media::Video> video = [&] {
      ScopedAllocTrap trap(kChunkBytes, 2, &ThrowBadAlloc);
      return DecodeAtWidth(file, width);
    }();
    ASSERT_FALSE(video.ok()) << "width " << width << " returned a video";
    EXPECT_EQ(video.status().code(), util::StatusCode::kInternal);
  }
}

util::CancellationToken* g_cancel_target = nullptr;
void CancelTarget() { g_cancel_target->Cancel(); }

TEST(DecodeVideoTest, CancellationMidDecodeIsCancelledAtEveryWidth) {
  const CmvFile file = FiveGopFile();
  for (int width : {1, 2, 4}) {
    util::CancellationToken cancel;
    g_cancel_target = &cancel;
    // Fires on the second chunk, inside a GOP at frame 0 or 1 of 8: that
    // GOP has frames left and stops at its next check.
    ScopedAllocTrap trap(kChunkBytes, 2, &CancelTarget);
    const util::Status status = DecodeAtWidth(file, width, &cancel).status();
    EXPECT_TRUE(cancel.cancelled()) << "width " << width;
    EXPECT_EQ(status.code(), util::StatusCode::kCancelled)
        << "width " << width << ": " << status.ToString();
  }
}

}  // namespace
}  // namespace classminer::codec
