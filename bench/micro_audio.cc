// Micro-benchmarks for the audio substrate: clip features, MFCC, the FFT
// and pitch kernels under them, GMM scoring and the BIC speaker-change
// test. Kernel timings follow the active dispatch level
// (CLASSMINER_DISABLE_SIMD=1 pins scalar).

#include <benchmark/benchmark.h>

#include <complex>
#include <vector>

#include "audio/bic.h"
#include "audio/features.h"
#include "audio/gmm.h"
#include "audio/mfcc.h"
#include "synth/audio_generator.h"
#include "util/fft.h"
#include "util/rng.h"

namespace classminer {
namespace {

audio::AudioBuffer SpeechClip(int speaker, double seconds) {
  audio::AudioBuffer buf(16000);
  util::Rng rng(1000 + static_cast<uint64_t>(speaker));
  synth::AppendSpeech(&buf, synth::MakeSpeakerVoice(speaker), seconds, &rng);
  return buf;
}

void BM_ClipFeatures(benchmark::State& state) {
  const audio::AudioBuffer clip = SpeechClip(1, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(audio::ComputeClipFeatures(clip));
  }
}
BENCHMARK(BM_ClipFeatures)->Unit(benchmark::kMillisecond);

void BM_Mfcc(benchmark::State& state) {
  const audio::AudioBuffer clip = SpeechClip(2, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(audio::ComputeMfcc(clip));
  }
}
BENCHMARK(BM_Mfcc)->Unit(benchmark::kMillisecond);

void BM_Fft(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  util::Rng rng(11);
  std::vector<std::complex<double>> input(n);
  for (auto& x : input) x = {rng.Uniform(-1.0, 1.0), 0.0};
  std::vector<std::complex<double>> buf(n);
  for (auto _ : state) {
    buf = input;
    util::Fft(&buf);
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_Fft)->Arg(512)->Unit(benchmark::kMicrosecond);

// One voiced 30 ms analysis frame at 16 kHz: 235 lags over 480 samples.
void BM_FramePitchFrame(benchmark::State& state) {
  const audio::AudioBuffer clip = SpeechClip(1, 0.5);
  const std::vector<double> frame(clip.samples().begin() + 4000,
                                  clip.samples().begin() + 4480);
  for (auto _ : state) {
    benchmark::DoNotOptimize(audio::internal::FramePitch(frame, 16000));
  }
}
BENCHMARK(BM_FramePitchFrame)->Unit(benchmark::kMicrosecond);

void BM_GmmTrain(benchmark::State& state) {
  util::Rng rng(7);
  util::Matrix samples(256, 14);
  for (size_t r = 0; r < samples.rows(); ++r) {
    for (size_t c = 0; c < samples.cols(); ++c) {
      samples.at(r, c) = rng.Gaussian(r % 2 == 0 ? 0.0 : 4.0, 1.0);
    }
  }
  audio::Gmm::TrainOptions opts;
  opts.components = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(audio::Gmm::Train(samples, opts));
  }
}
BENCHMARK(BM_GmmTrain)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_BicTest(benchmark::State& state) {
  const util::Matrix a = audio::ComputeMfcc(SpeechClip(1, 2.0));
  const util::Matrix b = audio::ComputeMfcc(SpeechClip(2, 2.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(audio::BicSpeakerChangeTest(a, b));
  }
}
BENCHMARK(BM_BicTest)->Unit(benchmark::kMillisecond);

void BM_SpeechSynthesis(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(SpeechClip(3, 1.0));
  }
}
BENCHMARK(BM_SpeechSynthesis)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace classminer

BENCHMARK_MAIN();
