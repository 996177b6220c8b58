// Micro-benchmarks for the CMV codec substrate: DCT, quantised block
// coding, motion estimation, full encode/decode and DC-image extraction.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "codec/decoder.h"
#include "codec/dct.h"
#include "codec/encoder.h"
#include "codec/frame_source.h"
#include "codec/motion.h"
#include "codec/quant.h"
#include "media/draw.h"
#include "util/exec_context.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace classminer {
namespace {

media::Video BenchVideo(int frames, int w, int h) {
  util::Rng rng(99);
  media::Video video("bench", 12.0);
  media::Image base(w, h);
  media::FillGradient(&base, media::Rgb{60, 90, 140}, media::Rgb{20, 30, 50});
  media::FillEllipse(&base, w / 2, h / 2, w / 4, h / 4,
                     media::Rgb{205, 150, 120});
  for (int i = 0; i < frames; ++i) {
    media::Image f = media::Translated(base, i, i / 2);
    media::AddNoise(&f, 3, &rng);
    video.AppendFrame(std::move(f));
  }
  return video;
}

void BM_ForwardDct(benchmark::State& state) {
  util::Rng rng(1);
  codec::Block block{};
  for (double& v : block) v = rng.Uniform(-128.0, 128.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::ForwardDct(block));
  }
}
BENCHMARK(BM_ForwardDct);

void BM_BlockCodeRoundTrip(benchmark::State& state) {
  util::Rng rng(2);
  codec::Block freq{};
  for (double& v : freq) v = rng.Uniform(-60.0, 60.0);
  const codec::QuantizedBlock q = codec::Quantize(freq, 8, false);
  for (auto _ : state) {
    codec::BitWriter w;
    codec::EncodeBlock(&w, q, 0);
    const std::vector<uint8_t> bytes = w.Finish();
    codec::BitReader r(bytes);
    codec::QuantizedBlock back{};
    benchmark::DoNotOptimize(codec::DecodeBlock(&r, &back, 0));
  }
}
BENCHMARK(BM_BlockCodeRoundTrip);

// Exp-Golomb decode throughput over a stream of mixed code lengths (the
// coefficient runs and levels of real payloads are mostly short codes).
void BM_BitReaderUE(benchmark::State& state) {
  util::Rng rng(4);
  codec::BitWriter w;
  constexpr int kCodes = 4096;
  for (int i = 0; i < kCodes; ++i) {
    w.PutUE(static_cast<uint32_t>(rng.UniformInt(0, 1 << rng.UniformInt(0, 12))));
  }
  const std::vector<uint8_t> bytes = w.Finish();
  for (auto _ : state) {
    codec::BitReader r(bytes);
    uint32_t sum = 0;
    for (int i = 0; i < kCodes; ++i) sum += *r.GetUE();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kCodes);
}
BENCHMARK(BM_BitReaderUE);

// YCbCr 4:2:0 -> RGB of one 96x72 frame.
void BM_ToImage(benchmark::State& state) {
  const media::Video video = BenchVideo(1, 96, 72);
  const codec::Picture pic = codec::FromImage(video.frame(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::ToImage(pic, 96, 72));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ToImage);

// One frame of a full decode: the picture reconstruction plus its RGB
// conversion, of the GOP's I-frame or of the P-frame after it.
void BM_DecodeFrame(benchmark::State& state, bool predicted) {
  const media::Video video = BenchVideo(2, 96, 72);
  const codec::CmvFile file = codec::EncodeVideo(video, codec::EncoderOptions());
  const util::StatusOr<codec::Picture> intra = codec::internal::DecodePicture(
      file.frames[0], file.width, file.height, file.quality, nullptr);
  const codec::FrameRecord& rec = file.frames[predicted ? 1 : 0];
  for (auto _ : state) {
    util::StatusOr<codec::Picture> pic = codec::internal::DecodePicture(
        rec, file.width, file.height, file.quality, &*intra);
    benchmark::DoNotOptimize(codec::ToImage(*pic, file.width, file.height));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_DecodeFrame, I, false);
BENCHMARK_CAPTURE(BM_DecodeFrame, P, true);

void BM_MotionEstimation(benchmark::State& state) {
  util::Rng rng(3);
  codec::Plane ref = codec::Plane::Make(96, 72);
  for (int16_t& s : ref.samples) {
    s = static_cast<int16_t>(rng.UniformInt(0, 255));
  }
  const codec::Plane cur = ref;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec::EstimateMotion(cur, ref, 32, 32, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_MotionEstimation)->Arg(3)->Arg(7);

void BM_EncodeVideo(benchmark::State& state) {
  const media::Video video = BenchVideo(static_cast<int>(state.range(0)), 96, 72);
  codec::EncoderOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::EncodeVideo(video, opts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeVideo)->Arg(12)->Unit(benchmark::kMillisecond);

// Full decode of a 96-frame clip (8 GOPs of 12) on a pool of `threads`
// workers (1 = serial). GOPs decode independently, so they fan out over the
// pool; wall time is the figure of merit.
void BM_DecodeVideo(benchmark::State& state) {
  const media::Video video = BenchVideo(96, 96, 72);
  const codec::CmvFile file = codec::EncodeVideo(video, codec::EncoderOptions());
  const int threads = static_cast<int>(state.range(0));
  const std::unique_ptr<util::ThreadPool> pool =
      threads > 1 ? std::make_unique<util::ThreadPool>(threads) : nullptr;
  const util::ExecutionContext ctx(pool.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::DecodeVideo(file, ctx));
  }
  state.SetItemsProcessed(state.iterations() * file.frame_count());
}
BENCHMARK(BM_DecodeVideo)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Rep-frame-style sparse access (one frame per 12-frame "shot") through the
// selective FrameSource vs paying for a full DecodeVideo pass. arg 0/1
// selects the mode so both rows share one video. With 8 GOPs and 8 touched
// frames the selective path decodes the same number of GOPs a full decode
// would, but skips nothing-requested GOPs as shots get sparser; on this
// access pattern it measures pure seek+GOP-decode cost vs whole-file cost.
void BM_SelectiveVsFullDecode(benchmark::State& state) {
  const media::Video video = BenchVideo(96, 96, 72);
  const codec::CmvFile file =
      codec::EncodeVideo(video, codec::EncoderOptions());  // gop_size 12
  const bool selective = state.range(0) != 0;
  std::vector<int> rep_frames;
  for (int f = 4; f < file.frame_count(); f += 24) rep_frames.push_back(f);
  int64_t frames_decoded = 0;
  for (auto _ : state) {
    if (selective) {
      auto source = codec::FrameSource::Create(&file);
      for (const int f : rep_frames) {
        benchmark::DoNotOptimize((*source)->GetFrame(f));
      }
      frames_decoded += (*source)->stats().decoded_frames;
    } else {
      auto full = codec::DecodeVideo(file);
      benchmark::DoNotOptimize(full);
      frames_decoded += file.frame_count();
    }
  }
  state.SetItemsProcessed(frames_decoded);
  state.counters["frames_decoded_per_iter"] = static_cast<double>(
      frames_decoded / std::max<int64_t>(1, state.iterations()));
}
BENCHMARK(BM_SelectiveVsFullDecode)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_DcImageExtraction(benchmark::State& state) {
  const media::Video video = BenchVideo(12, 96, 72);
  const codec::CmvFile file = codec::EncodeVideo(video, codec::EncoderOptions());
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::DecodeDcImages(file));
  }
  state.SetItemsProcessed(state.iterations() * 12);
}
BENCHMARK(BM_DcImageExtraction)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace classminer

BENCHMARK_MAIN();
