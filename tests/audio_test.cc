#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "audio/audio_buffer.h"
#include "audio/bic.h"
#include "audio/features.h"
#include "audio/gmm.h"
#include "audio/mfcc.h"
#include "audio/speaker_segmenter.h"
#include "synth/audio_generator.h"
#include "util/cpu.h"
#include "util/crc32.h"
#include "util/fft.h"
#include "util/rng.h"

namespace classminer::audio {
namespace {

AudioBuffer Tone(double hz, double seconds, int sr = 16000) {
  AudioBuffer buf(sr);
  std::vector<float> samples(static_cast<size_t>(seconds * sr));
  for (size_t i = 0; i < samples.size(); ++i) {
    samples[i] = static_cast<float>(0.4 * std::sin(2.0 * M_PI * hz * i / sr));
  }
  buf.Append(samples);
  return buf;
}

AudioBuffer Speech(int speaker, double seconds, uint64_t seed = 1) {
  AudioBuffer buf(16000);
  util::Rng rng(seed);
  synth::AppendSpeech(&buf, synth::MakeSpeakerVoice(speaker), seconds, &rng);
  return buf;
}

TEST(AudioBufferTest, SliceBounds) {
  AudioBuffer buf(100);
  std::vector<float> s(250);
  for (size_t i = 0; i < s.size(); ++i) s[i] = static_cast<float>(i);
  buf.Append(s);
  const AudioBuffer mid = buf.Slice(1.0, 1.0);
  ASSERT_EQ(mid.sample_count(), 100u);
  EXPECT_FLOAT_EQ(mid.at(0), 100.0f);
  const AudioBuffer past = buf.Slice(10.0, 1.0);
  EXPECT_TRUE(past.empty());
  const AudioBuffer tail = buf.Slice(2.0, 5.0);  // clamped
  EXPECT_EQ(tail.sample_count(), 50u);
}

TEST(AudioBufferTest, Duration) {
  AudioBuffer buf(8000);
  buf.samples().resize(4000);
  EXPECT_DOUBLE_EQ(buf.DurationSeconds(), 0.5);
}

TEST(ClipFeaturesTest, SilenceVsTone) {
  util::Rng rng(2);
  AudioBuffer silence(16000);
  synth::AppendSilence(&silence, 2.0, &rng);
  const ClipFeatures fs = ComputeClipFeatures(silence);
  const ClipFeatures ft = ComputeClipFeatures(Tone(220.0, 2.0));
  EXPECT_LT(fs[0], ft[0]);       // volume
  EXPECT_GT(ft[6] * 1000.0, 100.0);  // pitch detected near 220 Hz
  EXPECT_LT(std::fabs(ft[6] * 1000.0 - 220.0), 40.0);
}

TEST(ClipFeaturesTest, SubbandRatiosSumToOne) {
  const ClipFeatures f = ComputeClipFeatures(Speech(1, 2.0));
  EXPECT_NEAR(f[10] + f[11] + f[12] + f[13], 1.0, 1e-6);
}

TEST(ClipFeaturesTest, EmptyClipAllZero) {
  const ClipFeatures f = ComputeClipFeatures(AudioBuffer(16000));
  for (double v : f) EXPECT_EQ(v, 0.0);
}

TEST(ClipSplitTest, CountsAndRemainder) {
  AudioBuffer buf(1000);
  buf.samples().resize(5300);  // 5.3 s
  const std::vector<AudioBuffer> clips = SplitIntoClips(buf, 2.0);
  // Clips at 0-2, 2-4; remainder 1.3 s >= half clip so a third is kept.
  ASSERT_EQ(clips.size(), 3u);
  EXPECT_EQ(clips[0].sample_count(), 2000u);
  EXPECT_EQ(clips[2].sample_count(), 1300u);
}

TEST(MfccTest, ShapeAndWindows) {
  const AudioBuffer clip = Tone(300.0, 1.0);
  const util::Matrix mfcc = ComputeMfcc(clip);
  EXPECT_EQ(mfcc.cols(), static_cast<size_t>(kMfccDims));
  // 1 s at 30 ms windows / 10 ms hop: (16000 - 480) / 160 + 1 = 98.
  EXPECT_EQ(mfcc.rows(), 98u);
}

TEST(MfccTest, DifferentTonesDiffer) {
  const util::Matrix a = ComputeMfcc(Tone(200.0, 0.5));
  const util::Matrix b = ComputeMfcc(Tone(2000.0, 0.5));
  double dist = 0.0;
  for (size_t c = 1; c < static_cast<size_t>(kMfccDims); ++c) {
    double ma = 0.0, mb = 0.0;
    for (size_t r = 0; r < a.rows(); ++r) ma += a.at(r, c);
    for (size_t r = 0; r < b.rows(); ++r) mb += b.at(r, c);
    dist += std::fabs(ma / a.rows() - mb / b.rows());
  }
  EXPECT_GT(dist, 1.0);
}

TEST(MfccTest, DeltasDoubleDimensionality) {
  const util::Matrix mfcc = ComputeMfcc(Tone(300.0, 0.5));
  const util::Matrix with_deltas = AppendDeltas(mfcc);
  EXPECT_EQ(with_deltas.rows(), mfcc.rows());
  EXPECT_EQ(with_deltas.cols(), 2 * mfcc.cols());
  // Static part is preserved verbatim.
  for (size_t c = 0; c < mfcc.cols(); ++c) {
    EXPECT_DOUBLE_EQ(with_deltas.at(3, c), mfcc.at(3, c));
  }
}

TEST(MfccTest, DeltasOfStationarySignalAreSmall) {
  const util::Matrix mfcc = ComputeMfcc(Tone(440.0, 0.5));
  const util::Matrix with_deltas = AppendDeltas(mfcc);
  double acc = 0.0;
  for (size_t r = 2; r + 2 < with_deltas.rows(); ++r) {
    for (size_t c = mfcc.cols(); c < with_deltas.cols(); ++c) {
      acc += std::fabs(with_deltas.at(r, c));
    }
  }
  double static_acc = 0.0;
  for (size_t r = 2; r + 2 < mfcc.rows(); ++r) {
    for (size_t c = 1; c < mfcc.cols(); ++c) {
      static_acc += std::fabs(mfcc.at(r, c));
    }
  }
  EXPECT_LT(acc, static_acc);  // pure tone: dynamics below statics
}

TEST(MfccTest, CmnZeroesColumnMeans) {
  util::Matrix mfcc = ComputeMfcc(Speech(2, 1.0, 60));
  CepstralMeanNormalize(&mfcc);
  for (size_t c = 0; c < mfcc.cols(); ++c) {
    double mean = 0.0;
    for (size_t r = 0; r < mfcc.rows(); ++r) mean += mfcc.at(r, c);
    EXPECT_NEAR(mean / static_cast<double>(mfcc.rows()), 0.0, 1e-9);
  }
}

TEST(MfccTest, TooShortClipIsEmpty) {
  AudioBuffer buf(16000);
  buf.samples().resize(100);
  EXPECT_EQ(ComputeMfcc(buf).rows(), 0u);
}

util::Matrix GaussianSamples(double mean, double stddev, size_t n, size_t d,
                             uint64_t seed) {
  util::Rng rng(seed);
  util::Matrix m(n, d);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < d; ++c) m.at(r, c) = rng.Gaussian(mean, stddev);
  }
  return m;
}

TEST(GmmTest, FitsSingleGaussian) {
  const util::Matrix samples = GaussianSamples(3.0, 0.5, 400, 2, 31);
  Gmm::TrainOptions opts;
  opts.components = 1;
  util::StatusOr<Gmm> gmm = Gmm::Train(samples, opts);
  ASSERT_TRUE(gmm.ok());
  EXPECT_NEAR(gmm->components()[0].mean[0], 3.0, 0.1);
  EXPECT_NEAR(gmm->components()[0].variance[0], 0.25, 0.08);
}

TEST(GmmTest, RejectsTooFewSamples) {
  Gmm::TrainOptions opts;
  opts.components = 8;
  EXPECT_FALSE(Gmm::Train(util::Matrix(3, 2), opts).ok());
}

TEST(GmmTest, HigherLikelihoodOnOwnDistribution) {
  const util::Matrix a = GaussianSamples(0.0, 1.0, 300, 3, 32);
  const util::Matrix b = GaussianSamples(8.0, 1.0, 300, 3, 33);
  Gmm::TrainOptions opts;
  opts.components = 2;
  util::StatusOr<Gmm> ga = Gmm::Train(a, opts);
  util::StatusOr<Gmm> gb = Gmm::Train(b, opts);
  ASSERT_TRUE(ga.ok());
  ASSERT_TRUE(gb.ok());
  EXPECT_GT(ga->AverageLogLikelihood(a), gb->AverageLogLikelihood(a));
  EXPECT_GT(gb->AverageLogLikelihood(b), ga->AverageLogLikelihood(b));
}

TEST(GmmClassifierTest, SeparatesClasses) {
  const util::Matrix c0 = GaussianSamples(0.0, 1.0, 200, 2, 34);
  const util::Matrix c1 = GaussianSamples(5.0, 1.0, 200, 2, 35);
  Gmm::TrainOptions opts;
  opts.components = 2;
  GmmClassifier clf(*Gmm::Train(c0, opts), *Gmm::Train(c1, opts));
  EXPECT_EQ(clf.Classify(GaussianSamples(0.1, 1.0, 50, 2, 36)), 0);
  EXPECT_EQ(clf.Classify(GaussianSamples(4.9, 1.0, 50, 2, 37)), 1);
}

TEST(BicTest, SameSpeakerNoChange) {
  const util::Matrix x1 = ComputeMfcc(Speech(1, 2.0, 41));
  const util::Matrix x2 = ComputeMfcc(Speech(1, 2.0, 42));
  const BicResult r = BicSpeakerChangeTest(x1, x2);
  EXPECT_FALSE(r.speaker_change) << "delta_bic=" << r.delta_bic;
}

TEST(BicTest, DifferentSpeakersChange) {
  const util::Matrix x1 = ComputeMfcc(Speech(1, 2.0, 43));
  const util::Matrix x2 = ComputeMfcc(Speech(2, 2.0, 44));
  const BicResult r = BicSpeakerChangeTest(x1, x2);
  EXPECT_TRUE(r.speaker_change) << "delta_bic=" << r.delta_bic;
}

TEST(BicTest, SymmetricDecision) {
  const util::Matrix x1 = ComputeMfcc(Speech(3, 2.0, 45));
  const util::Matrix x2 = ComputeMfcc(Speech(4, 2.0, 46));
  EXPECT_EQ(BicSpeakerChangeTest(x1, x2).speaker_change,
            BicSpeakerChangeTest(x2, x1).speaker_change);
}

TEST(BicTest, EmptyInputNeverChanges) {
  const util::Matrix x = ComputeMfcc(Speech(1, 1.0, 47));
  EXPECT_FALSE(BicSpeakerChangeTest(x, util::Matrix(0, 14)).speaker_change);
}

TEST(SpeakerSegmenterTest, ShortShotNotAnalyzable) {
  SpeakerSegmenter seg;
  const AudioBuffer audio = Speech(1, 5.0, 51);
  const ShotAudioAnalysis a = seg.AnalyzeShot(audio, 0.0, 1.0, 0);
  EXPECT_FALSE(a.analyzable);
  EXPECT_FALSE(a.has_speech);
}

TEST(SpeakerSegmenterTest, SpeechShotsDetected) {
  SpeakerSegmenter seg;
  const AudioBuffer audio = Speech(1, 6.0, 52);
  const ShotAudioAnalysis a = seg.AnalyzeShot(audio, 0.0, 3.0, 0);
  EXPECT_TRUE(a.analyzable);
  EXPECT_TRUE(a.has_speech);
  EXPECT_GT(a.mfcc.rows(), 0u);
}

TEST(SpeakerSegmenterTest, NoiseIsNotSpeech) {
  SpeakerSegmenter seg;
  AudioBuffer audio(16000);
  util::Rng rng(53);
  synth::AppendProcedureNoise(&audio, 6.0, &rng);
  const ShotAudioAnalysis a = seg.AnalyzeShot(audio, 0.0, 4.0, 0);
  EXPECT_TRUE(a.analyzable);
  EXPECT_FALSE(a.has_speech);
}

TEST(SpeakerSegmenterTest, SpeakerChangeAcrossShots) {
  SpeakerSegmenter seg;
  AudioBuffer audio(16000);
  util::Rng rng(54);
  synth::AppendSpeech(&audio, synth::MakeSpeakerVoice(7), 3.0, &rng);
  synth::AppendSpeech(&audio, synth::MakeSpeakerVoice(8), 3.0, &rng);
  synth::AppendSpeech(&audio, synth::MakeSpeakerVoice(7), 3.0, &rng);
  const ShotAudioAnalysis s0 = seg.AnalyzeShot(audio, 0.0, 3.0, 0);
  const ShotAudioAnalysis s1 = seg.AnalyzeShot(audio, 3.0, 6.0, 1);
  const ShotAudioAnalysis s2 = seg.AnalyzeShot(audio, 6.0, 9.0, 2);
  EXPECT_TRUE(seg.SpeakerChange(s0, s1));
  EXPECT_TRUE(seg.SpeakerChange(s1, s2));
  EXPECT_FALSE(seg.SpeakerChange(s0, s2));  // same speaker resumes
}

TEST(SpeakerSegmenterTest, DiarizationLabelsAlternation) {
  SpeakerSegmenter seg;
  AudioBuffer audio(16000);
  util::Rng rng(57);
  synth::AppendSpeech(&audio, synth::MakeSpeakerVoice(11), 3.0, &rng);
  synth::AppendSpeech(&audio, synth::MakeSpeakerVoice(12), 3.0, &rng);
  synth::AppendSpeech(&audio, synth::MakeSpeakerVoice(11), 3.0, &rng);
  synth::AppendProcedureNoise(&audio, 3.0, &rng);

  std::vector<ShotAudioAnalysis> shots;
  for (int i = 0; i < 4; ++i) {
    shots.push_back(seg.AnalyzeShot(audio, i * 3.0, (i + 1) * 3.0, i));
  }
  const std::vector<int> labels = seg.DiarizeShots(shots);
  ASSERT_EQ(labels.size(), 4u);
  EXPECT_EQ(labels[0], 0);          // first speaker
  EXPECT_EQ(labels[2], labels[0]);  // returns in shot 2
  EXPECT_NE(labels[1], labels[0]);  // second party distinct
  EXPECT_EQ(labels[3], -1);         // noise shot unlabelled
}

TEST(SpeakerSegmenterTest, DiarizationEmptyInput) {
  SpeakerSegmenter seg;
  EXPECT_TRUE(seg.DiarizeShots({}).empty());
}

TEST(SpeechClassifierTest, TrainedGmmClassifierSeparatesSpeechFromNoise) {
  // Build labelled clip-feature matrices from the generators.
  util::Rng rng(55);
  const int clips = 24;
  util::Matrix speech(clips, kClipFeatureDims);
  util::Matrix nonspeech(clips, kClipFeatureDims);
  for (int i = 0; i < clips; ++i) {
    AudioBuffer s(16000);
    synth::AppendSpeech(&s, synth::MakeSpeakerVoice(i % 5), 2.0, &rng);
    const ClipFeatures fs = ComputeClipFeatures(s);
    AudioBuffer nz(16000);
    if (i % 2 == 0) {
      synth::AppendProcedureNoise(&nz, 2.0, &rng);
    } else {
      synth::AppendSilence(&nz, 2.0, &rng);
    }
    const ClipFeatures fn = ComputeClipFeatures(nz);
    for (int d = 0; d < kClipFeatureDims; ++d) {
      speech.at(static_cast<size_t>(i), static_cast<size_t>(d)) =
          fs[static_cast<size_t>(d)];
      nonspeech.at(static_cast<size_t>(i), static_cast<size_t>(d)) =
          fn[static_cast<size_t>(d)];
    }
  }
  util::StatusOr<GmmClassifier> clf =
      TrainSpeechClassifier(nonspeech, speech, /*components=*/2);
  ASSERT_TRUE(clf.ok());

  // Held-out clips.
  AudioBuffer s(16000);
  synth::AppendSpeech(&s, synth::MakeSpeakerVoice(9), 2.0, &rng);
  util::Matrix row(1, kClipFeatureDims);
  const ClipFeatures fs = ComputeClipFeatures(s);
  for (int d = 0; d < kClipFeatureDims; ++d) {
    row.at(0, static_cast<size_t>(d)) = fs[static_cast<size_t>(d)];
  }
  EXPECT_EQ(clf->Classify(row), 1);

  AudioBuffer nz(16000);
  synth::AppendProcedureNoise(&nz, 2.0, &rng);
  const ClipFeatures fn = ComputeClipFeatures(nz);
  for (int d = 0; d < kClipFeatureDims; ++d) {
    row.at(0, static_cast<size_t>(d)) = fn[static_cast<size_t>(d)];
  }
  EXPECT_EQ(clf->Classify(row), 0);
}

// ---------------------------------------------------------------------------
// Golden digests: CRC-32 of the raw output bytes of the audio stage's three
// numeric entry points, recorded from the reference implementation (the
// per-stage twiddle recurrence, dense filterbank and single-accumulator
// pitch loop). Any table, plan or kernel rewrite must reproduce every bit,
// at every dispatch level this host can execute. A change that means to
// alter audio output updates these digests and says why.

uint32_t CrcOf(const void* data, size_t size, uint32_t crc) {
  return util::Crc32(static_cast<const uint8_t*>(data), size, crc);
}

uint32_t DigestOf(const ClipFeatures& f) {
  return CrcOf(f.data(), sizeof(double) * f.size(), 0);
}

uint32_t DigestOf(const util::Matrix& m) {
  const uint64_t shape[2] = {m.rows(), m.cols()};
  const uint32_t crc = CrcOf(shape, sizeof(shape), 0);
  return CrcOf(m.data().data(), sizeof(double) * m.data().size(), crc);
}

struct GoldenCase {
  std::string name;
  AudioBuffer clip;
  ClipFeatureOptions features;
  MfccOptions mfcc;
};

// Seeded clips covering speakers 0-7 at every supported sample rate, odd
// and edge lengths around one 30 ms window, an all-zero clip, a rate so
// low that every mel filter is empty and the pitch lag range collapses,
// and non-default options (frames shorter than the longest pitch lag,
// a 40-filter bank below a custom high edge).
std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  const int kRates[] = {8000, 11025, 16000, 22050, 44100};
  for (int speaker = 0; speaker < 8; ++speaker) {
    const int sr = kRates[speaker % 5];
    AudioBuffer buf(sr);
    util::Rng rng(0x601Dull + static_cast<uint64_t>(speaker));
    synth::AppendSpeech(&buf, synth::MakeSpeakerVoice(speaker), 0.6, &rng);
    synth::AppendSilence(&buf, 0.1, &rng);
    synth::AppendProcedureNoise(&buf, 0.3, &rng);
    if (buf.sample_count() % 2 == 0) buf.samples().pop_back();
    cases.push_back({"speaker" + std::to_string(speaker) + "@" +
                         std::to_string(sr),
                     std::move(buf), {}, {}});
  }
  {
    AudioBuffer buf(16000);
    util::Rng rng(0x2C11);
    synth::AppendSpeech(&buf, synth::MakeSpeakerVoice(3), 2.0, &rng);
    cases.push_back({"speech2s@16000", std::move(buf), {}, {}});
  }
  // 16 kHz: a 30 ms window is 480 samples.
  for (size_t n : {size_t{479}, size_t{480}, size_t{481}, size_t{1283}}) {
    AudioBuffer buf(16000);
    util::Rng rng(0xED6E + n);
    synth::AppendSpeech(&buf, synth::MakeSpeakerVoice(static_cast<int>(n % 8)),
                        0.1, &rng);
    buf.samples().resize(n);
    cases.push_back({"len" + std::to_string(n) + "@16000", std::move(buf),
                     {}, {}});
  }
  {
    AudioBuffer buf(8000);
    util::Rng rng(0x8000);
    synth::AppendProcedureNoise(&buf, 0.03, &rng);  // exactly one window
    cases.push_back({"noise240@8000", std::move(buf), {}, {}});
  }
  cases.push_back({"zeros@16000", AudioBuffer(16000, std::vector<float>(16000)),
                   {}, {}});
  {
    AudioBuffer buf(100);
    util::Rng rng(0x100);
    synth::AppendProcedureNoise(&buf, 0.97, &rng);
    cases.push_back({"noise97@100", std::move(buf), {}, {}});
  }
  {
    AudioBuffer buf(16000);
    util::Rng rng(0x0B75);
    synth::AppendSpeech(&buf, synth::MakeSpeakerVoice(5), 0.5, &rng);
    GoldenCase c{"custom-options@16000", std::move(buf), {}, {}};
    c.features.frame_seconds = 0.012;  // 192 samples <= max pitch lag 266
    c.features.hop_seconds = 0.005;
    c.mfcc.mel_filters = 40;
    c.mfcc.low_hz = 100.0;
    c.mfcc.high_hz = 4000.0;
    cases.push_back(std::move(c));
  }
  return cases;
}

struct GoldenDigest {
  const char* name;
  uint32_t clip_features;
  uint32_t mfcc;
};

constexpr GoldenDigest kGoldenAudio[] = {
    {"speaker0@8000", 0x2455d370, 0x399b551b},
    {"speaker1@11025", 0x1a7ff485, 0x2ebe0b44},
    {"speaker2@16000", 0x738959f3, 0x22ba978e},
    {"speaker3@22050", 0x17d3af42, 0xfd3ee8cb},
    {"speaker4@44100", 0xf7311375, 0xf3ff8500},
    {"speaker5@8000", 0x98659057, 0x52b337ea},
    {"speaker6@11025", 0x52186e78, 0xeafecd7b},
    {"speaker7@16000", 0xdd6d1c4a, 0x133b2f17},
    {"speech2s@16000", 0xc111204b, 0x8248fae7},
    {"len479@16000", 0x1bbeadbd, 0xf9315967},
    {"len480@16000", 0x03139d03, 0x7687567c},
    {"len481@16000", 0xc427dfbd, 0xaf2e53fe},
    {"len1283@16000", 0x77fc1522, 0x0e782f70},
    {"noise240@8000", 0x470c0a8e, 0xd7a29840},
    {"zeros@16000", 0x9dde2978, 0x947f6c35},
    {"noise97@100", 0xeab9153a, 0xd9287a64},
    {"custom-options@16000", 0x8645362a, 0xc940cd76},
};

// FFT digests per log2(size): forward and inverse transforms of one seeded
// complex input. Every size up to 8192, plus the largest size whose plan is
// cached per thread (2^16) and one built per call (2^17).
struct GoldenFft {
  int log2n;
  uint32_t forward;
  uint32_t inverse;
};

constexpr GoldenFft kGoldenFft[] = {
    {0, 0xfd69893a, 0xfd69893a},
    {1, 0x686bce51, 0x663d92d8},
    {2, 0x2c999bac, 0x4ec27b75},
    {3, 0x68531848, 0xfe679aff},
    {4, 0x636be2ba, 0x981ec868},
    {5, 0x9540fc7d, 0xdb1e56bb},
    {6, 0x826fb2ef, 0xb89ccbff},
    {7, 0x0eb66cd3, 0xd6fe9f87},
    {8, 0x8511735a, 0x389bcca2},
    {9, 0x5216c9e6, 0xdc464604},
    {10, 0xd25951dd, 0xacfc12a4},
    {11, 0x349f1a12, 0xb62c7727},
    {12, 0x20feea19, 0x91072605},
    {13, 0x8012005c, 0xc185108a},
    {16, 0x5e0b9fac, 0x7ee73c0f},
    {17, 0x92754843, 0x46d96347},
};

class ScopedDispatchLevel {
 public:
  explicit ScopedDispatchLevel(util::DispatchLevel level) {
    util::SetDispatchLevelForTest(level);
  }
  ~ScopedDispatchLevel() { util::ClearDispatchLevelForTest(); }
};

TEST(AudioGoldenTest, ClipFeaturesAndMfccMatchRecordedDigests) {
  const std::vector<GoldenCase> cases = GoldenCases();
  ASSERT_EQ(cases.size(), std::size(kGoldenAudio));
  for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
    ScopedDispatchLevel pin(level);
    for (size_t i = 0; i < cases.size(); ++i) {
      const GoldenCase& c = cases[i];
      const uint32_t features =
          DigestOf(ComputeClipFeatures(c.clip, c.features));
      const uint32_t mfcc = DigestOf(ComputeMfcc(c.clip, c.mfcc));
      char got[96];
      std::snprintf(got, sizeof(got), "{\"%s\", 0x%08x, 0x%08x},",
                    c.name.c_str(), features, mfcc);
      EXPECT_EQ(c.name, kGoldenAudio[i].name);
      EXPECT_EQ(features, kGoldenAudio[i].clip_features)
          << "clip features " << c.name << " at "
          << util::DispatchLevelName(level) << "; got " << got;
      EXPECT_EQ(mfcc, kGoldenAudio[i].mfcc)
          << "mfcc " << c.name << " at " << util::DispatchLevelName(level)
          << "; got " << got;
    }
  }
}

TEST(AudioGoldenTest, FftMatchesRecordedDigests) {
  ASSERT_EQ(std::size(kGoldenFft), 16u);
  for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
    ScopedDispatchLevel pin(level);
    for (const GoldenFft& golden : kGoldenFft) {
      const size_t n = size_t{1} << golden.log2n;
      util::Rng rng(0xFF7 + static_cast<uint64_t>(golden.log2n));
      std::vector<std::complex<double>> input(n);
      for (auto& x : input) {
        x = {rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)};
      }
      std::vector<std::complex<double>> fwd = input, inv = input;
      util::Fft(&fwd);
      util::Fft(&inv, /*inverse=*/true);
      const uint32_t f = CrcOf(fwd.data(), sizeof(fwd[0]) * n, 0);
      const uint32_t v = CrcOf(inv.data(), sizeof(inv[0]) * n, 0);
      char got[64];
      std::snprintf(got, sizeof(got), "{%d, 0x%08x, 0x%08x},", golden.log2n,
                    f, v);
      EXPECT_EQ(f, golden.forward)
          << "forward n " << n << " at " << util::DispatchLevelName(level)
          << "; got " << got;
      EXPECT_EQ(v, golden.inverse)
          << "inverse n " << n << " at " << util::DispatchLevelName(level)
          << "; got " << got;
    }
  }
}

}  // namespace
}  // namespace classminer::audio
