// Dispatch-layer and kernel-equivalence tests: every vector path must
// produce results exactly equal (bit-identical for doubles) to the scalar
// reference, at every dispatch level this host can execute, on aligned and
// unaligned data, even and odd sizes.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <cstring>
#include <span>
#include <vector>

#include "audio/features.h"
#include "codec/dct.h"
#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/motion.h"
#include "core/classminer.h"
#include "core/cmv_pipeline.h"
#include "features/histogram.h"
#include "media/image.h"
#include "synth/audio_generator.h"
#include "synth/corpus.h"
#include "synth/video_generator.h"
#include "util/cpu.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace classminer {
namespace {

// Restores the process-wide dispatch pin on scope exit so a failing test
// cannot leak a pinned level into later tests.
class ScopedDispatchLevel {
 public:
  explicit ScopedDispatchLevel(util::DispatchLevel level) {
    pinned_ = util::SetDispatchLevelForTest(level);
  }
  ~ScopedDispatchLevel() { util::ClearDispatchLevelForTest(); }
  bool pinned() const { return pinned_; }

 private:
  bool pinned_ = false;
};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// ---------------------------------------------------------------------------
// Dispatch policy.

TEST(CpuDispatchTest, ResolveLevelFollowsFeatureFlags) {
  util::CpuFeatures f;
  EXPECT_EQ(util::internal::ResolveDispatchLevel(f, false),
            util::DispatchLevel::kScalar);
  f.sse42 = true;  // PCLMUL missing: stays scalar
  EXPECT_EQ(util::internal::ResolveDispatchLevel(f, false),
            util::DispatchLevel::kScalar);
  f.pclmul = true;
  EXPECT_EQ(util::internal::ResolveDispatchLevel(f, false),
            util::DispatchLevel::kSse42);
  f.avx2 = true;
  EXPECT_EQ(util::internal::ResolveDispatchLevel(f, false),
            util::DispatchLevel::kAvx2);
  // The env knob wins over any hardware.
  EXPECT_EQ(util::internal::ResolveDispatchLevel(f, true),
            util::DispatchLevel::kScalar);

  util::CpuFeatures arm;
  arm.neon = true;
  EXPECT_EQ(util::internal::ResolveDispatchLevel(arm, false),
            util::DispatchLevel::kScalar);
  arm.arm_crc32 = true;
  EXPECT_EQ(util::internal::ResolveDispatchLevel(arm, false),
            util::DispatchLevel::kNeon);
}

TEST(CpuDispatchTest, SupportedLevelsStartAtScalarAndAscend) {
  const std::vector<util::DispatchLevel> levels =
      util::SupportedDispatchLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), util::DispatchLevel::kScalar);
  for (size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(static_cast<int>(levels[i - 1]), static_cast<int>(levels[i]));
  }
}

TEST(CpuDispatchTest, PinningChangesActiveLevelAndBumpsGeneration) {
  const uint64_t gen_before = util::DispatchGeneration();
  {
    ScopedDispatchLevel pin(util::DispatchLevel::kScalar);
    ASSERT_TRUE(pin.pinned());
    EXPECT_EQ(util::ActiveDispatchLevel(), util::DispatchLevel::kScalar);
    EXPECT_GT(util::DispatchGeneration(), gen_before);
  }
  // Every supported level can actually be pinned.
  for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
    ScopedDispatchLevel pin(level);
    EXPECT_TRUE(pin.pinned());
    EXPECT_EQ(util::ActiveDispatchLevel(), level);
  }
}

TEST(CpuDispatchTest, LevelNamesAreStable) {
  EXPECT_STREQ(util::DispatchLevelName(util::DispatchLevel::kScalar),
               "scalar");
  EXPECT_STREQ(util::DispatchLevelName(util::DispatchLevel::kSse42),
               "sse4.2");
  EXPECT_STREQ(util::DispatchLevelName(util::DispatchLevel::kAvx2), "avx2");
  EXPECT_STREQ(util::DispatchLevelName(util::DispatchLevel::kNeon), "neon");
}

// ---------------------------------------------------------------------------
// CRC-32.

std::vector<uint8_t> RandomBytes(size_t n, util::Rng* rng) {
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng->UniformInt(0, 255));
  return bytes;
}

TEST(Crc32KernelTest, AllDispatchLevelsMatchTheReference) {
  util::Rng rng(0xC0FFEE);
  const size_t sizes[] = {0,  1,  2,  3,   7,   8,    9,    15,   16,  17,
                          31, 63, 64, 65,  100, 127,  128,  255,  256, 1000,
                          4096, 65536};
  for (size_t n : sizes) {
    const std::vector<uint8_t> data = RandomBytes(n, &rng);
    const uint32_t want =
        util::internal::Crc32Reference(data.data(), data.size(), 0);
    // Internal kernels agree regardless of the dispatch level.
    EXPECT_EQ(util::internal::Crc32Slice8(data.data(), data.size(), 0), want)
        << "slice8 size " << n;
    if (util::internal::Crc32AccelAvailable()) {
      EXPECT_EQ(util::internal::Crc32Accel(data.data(), data.size(), 0), want)
          << "accel size " << n;
    }
    // The public entry point agrees at every pinned level (this exercises
    // the cached-function-pointer invalidation path too).
    for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
      ScopedDispatchLevel pin(level);
      ASSERT_TRUE(pin.pinned());
      EXPECT_EQ(util::Crc32(data.data(), data.size()), want)
          << "level " << util::DispatchLevelName(level) << " size " << n;
      EXPECT_EQ(util::Crc32(data), want)
          << "vector overload, level " << util::DispatchLevelName(level);
    }
  }
}

TEST(Crc32KernelTest, UnalignedSpansMatchTheReference) {
  util::Rng rng(7);
  const std::vector<uint8_t> data = RandomBytes(4099, &rng);
  for (size_t offset : {1u, 2u, 3u, 5u, 7u}) {
    const uint8_t* p = data.data() + offset;
    const size_t n = data.size() - offset;
    const uint32_t want = util::internal::Crc32Reference(p, n, 0);
    for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
      ScopedDispatchLevel pin(level);
      EXPECT_EQ(util::Crc32(p, n), want)
          << "offset " << offset << " level "
          << util::DispatchLevelName(level);
    }
  }
}

TEST(Crc32KernelTest, ChainingSplitsAnywhere) {
  util::Rng rng(99);
  const std::vector<uint8_t> data = RandomBytes(777, &rng);
  const uint32_t whole = util::Crc32(data.data(), data.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                       size_t{65}, size_t{512}, size_t{776}, size_t{777}}) {
    for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
      ScopedDispatchLevel pin(level);
      const uint32_t head = util::Crc32(data.data(), split);
      const uint32_t chained =
          util::Crc32(data.data() + split, data.size() - split, head);
      EXPECT_EQ(chained, whole) << "split " << split << " level "
                                << util::DispatchLevelName(level);
    }
  }
}

TEST(Crc32KernelTest, KnownVector) {
  // CRC-32("123456789") — the classic IEEE check value.
  const uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
    ScopedDispatchLevel pin(level);
    EXPECT_EQ(util::Crc32(digits, sizeof(digits)), 0xCBF43926u);
  }
}

// ---------------------------------------------------------------------------
// DCT.

codec::Block RandomBlock(util::Rng* rng, double lo, double hi) {
  codec::Block b;
  for (double& v : b) v = rng->Uniform(lo, hi);
  return b;
}

TEST(DctKernelTest, AccelMatchesScalarBitForBit) {
  if (!codec::internal::DctAccelAvailable()) {
    GTEST_SKIP() << "no DCT accel kernel on this architecture";
  }
  util::Rng rng(0xD0);
  for (int iter = 0; iter < 200; ++iter) {
    const codec::Block spatial = RandomBlock(&rng, -255.0, 255.0);
    const codec::Block want_f = codec::internal::ForwardDctScalar(spatial);
    const codec::Block got_f = codec::internal::ForwardDctAccel(spatial);
    for (size_t i = 0; i < spatial.size(); ++i) {
      ASSERT_EQ(Bits(got_f[i]), Bits(want_f[i])) << "fwd coeff " << i;
    }
    const codec::Block want_i = codec::internal::InverseDctScalar(want_f);
    const codec::Block got_i = codec::internal::InverseDctAccel(want_f);
    for (size_t i = 0; i < spatial.size(); ++i) {
      ASSERT_EQ(Bits(got_i[i]), Bits(want_i[i])) << "inv coeff " << i;
    }
  }
}

// Coefficient blocks with a random subset of rows and columns live (from
// all-zero and DC-only to dense), as dequantised residuals look.
codec::Block SparseBlock(util::Rng* rng) {
  const int row_mask = rng->UniformInt(0, 255);
  const int col_mask = rng->UniformInt(0, 255);
  codec::Block b{};
  for (int v = 0; v < 8; ++v) {
    for (int u = 0; u < 8; ++u) {
      if ((row_mask >> v & 1) && (col_mask >> u & 1) &&
          rng->UniformInt(0, 2) != 0) {
        b[static_cast<size_t>(v) * 8 + u] =
            rng->UniformInt(-40, 40) * rng->Uniform(1.0, 20.0);
      }
    }
  }
  return b;
}

// Both inverse kernels skip zero rows and columns; against two dense
// passes that sum every product they must not differ in a single bit.
TEST(DctKernelTest, SparseInverseMatchesTheDenseSums) {
  const auto& t = codec::internal::Tables().basis;
  util::Rng rng(0xD2);
  for (int iter = 0; iter < 2000; ++iter) {
    const codec::Block freq = SparseBlock(&rng);
    codec::Block tmp{}, want{};
    for (int u = 0; u < 8; ++u) {
      for (int y = 0; y < 8; ++y) {
        double acc = 0.0;
        for (int v = 0; v < 8; ++v) acc += freq[v * 8 + u] * t[v][y];
        tmp[y * 8 + u] = acc;
      }
    }
    for (int y = 0; y < 8; ++y) {
      for (int x = 0; x < 8; ++x) {
        double acc = 0.0;
        for (int u = 0; u < 8; ++u) acc += tmp[y * 8 + u] * t[u][x];
        want[y * 8 + x] = acc;
      }
    }
    const codec::Block scalar = codec::internal::InverseDctScalar(freq);
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(Bits(scalar[i]), Bits(want[i])) << "iter " << iter << " " << i;
    }
    if (!codec::internal::DctAccelAvailable()) continue;
    const codec::Block accel = codec::internal::InverseDctAccel(freq);
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(Bits(accel[i]), Bits(want[i])) << "iter " << iter << " " << i;
    }
  }
}

TEST(DctKernelTest, AddResidualAccelMatchesScalar) {
  if (!codec::internal::DctAccelAvailable()) {
    GTEST_SKIP() << "no DCT accel kernel on this architecture";
  }
  util::Rng rng(0xD3);
  for (int iter = 0; iter < 500; ++iter) {
    // Residuals reach past both ends of [0, 255] and land on halves.
    codec::Block residual;
    for (double& v : residual) {
      v = rng.UniformInt(0, 3) == 0 ? rng.UniformInt(-600, 600) / 2.0
                                    : rng.Uniform(-300.0, 300.0);
    }
    // Rows of 9 samples, so a block of 8 sits in a wider plane.
    int16_t scalar[8 * 9];
    for (int16_t& p : scalar) p = static_cast<int16_t>(rng.UniformInt(0, 255));
    int16_t accel[8 * 9];
    std::copy(std::begin(scalar), std::end(scalar), accel);
    const int rows = rng.UniformInt(1, 8);
    const int cols = iter % 3 == 0 ? rng.UniformInt(1, 8) : 8;
    const bool predicted = iter % 2 == 1;
    codec::internal::AddResidualScalar(residual, scalar, 9, rows, cols,
                                       predicted);
    codec::internal::AddResidualAccel(residual, accel, 9, rows, cols,
                                      predicted);
    ASSERT_TRUE(std::equal(std::begin(scalar), std::end(scalar), accel))
        << "iter " << iter;
  }
}

TEST(DctKernelTest, PublicEntryPointsAgreeAcrossLevels) {
  util::Rng rng(0xD1);
  const codec::Block spatial = RandomBlock(&rng, -128.0, 127.0);
  codec::Block want_f, want_i;
  {
    ScopedDispatchLevel pin(util::DispatchLevel::kScalar);
    want_f = codec::ForwardDct(spatial);
    want_i = codec::InverseDct(want_f);
  }
  for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
    ScopedDispatchLevel pin(level);
    const codec::Block got_f = codec::ForwardDct(spatial);
    const codec::Block got_i = codec::InverseDct(want_f);
    for (size_t i = 0; i < spatial.size(); ++i) {
      ASSERT_EQ(Bits(got_f[i]), Bits(want_f[i]))
          << "fwd " << i << " level " << util::DispatchLevelName(level);
      ASSERT_EQ(Bits(got_i[i]), Bits(want_i[i]))
          << "inv " << i << " level " << util::DispatchLevelName(level);
    }
  }
}

// ---------------------------------------------------------------------------
// Pixel rounding and YCbCr -> RGB.

codec::Plane RandomPlane(int w, int h, int lo, int hi, util::Rng* rng) {
  codec::Plane p = codec::Plane::Make(w, h);
  for (int16_t& s : p.samples) {
    s = static_cast<int16_t>(rng->UniformInt(lo, hi));
  }
  return p;
}

int LroundClamp255(double v) {
  return static_cast<int>(std::lround(std::clamp(v, 0.0, 255.0)));
}

// Values where rounding can go wrong: every half in [-2, 258], the doubles
// next to each, signed zeros, tiny and huge magnitudes and NaN.
std::vector<double> RoundingEdgeValues() {
  std::vector<double> values = {0.0,
                                -0.0,
                                -1.0,
                                -0.5,
                                -1e-300,
                                -1e300,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                255.49999999999997,
                                255.5,
                                256.0,
                                300.25,
                                1e18,
                                0.49999999999999994};
  for (int k = -4; k <= 516; ++k) {
    const double v = k / 2.0;
    values.push_back(v);
    values.push_back(std::nextafter(v, -1e9));
    values.push_back(std::nextafter(v, 1e9));
  }
  return values;
}

TEST(RoundClamp255Test, EqualsLroundOfClampOnHalvesNeighboursAndExtremes) {
  for (double v : RoundingEdgeValues()) {
    EXPECT_EQ(codec::RoundClamp255(v), LroundClamp255(v)) << v;
  }
  EXPECT_EQ(codec::RoundClamp255(std::numeric_limits<double>::quiet_NaN()), 0);
}

TEST(DctKernelTest, AddResidualAccelRoundsEdgeValuesLikeLround) {
  if (!codec::internal::DctAccelAvailable()) {
    GTEST_SKIP() << "no DCT accel kernel on this architecture";
  }
  std::vector<double> values = RoundingEdgeValues();
  values.push_back(std::numeric_limits<double>::quiet_NaN());
  for (size_t at = 0; at < values.size(); at += 8) {
    codec::Block residual{};
    for (size_t i = 0; i < 8 && at + i < values.size(); ++i) {
      residual[i] = values[at + i];
    }
    int16_t got[8] = {};  // a prediction of 0
    codec::internal::AddResidualAccel(residual, got, 8, 1, 8,
                                      /*predicted=*/true);
    for (size_t i = 0; i < 8; ++i) {
      // 0 + v is v for every v but -0.0, which rounds like +0.0.
      EXPECT_EQ(got[i], codec::RoundClamp255(residual[i])) << residual[i];
      if (!std::isnan(residual[i])) {
        EXPECT_EQ(got[i], LroundClamp255(residual[i])) << residual[i];
      }
    }
  }
}

// The ToImage formula before the kernels existed, per pixel.
media::Rgb ReferenceYcc(double yy, double cb, double cr) {
  const auto to8 = [](double v) { return static_cast<uint8_t>(LroundClamp255(v)); };
  cb -= 128.0;
  cr -= 128.0;
  return media::Rgb{to8(yy + 1.402 * cr),
                    to8(yy - 0.344136 * cb - 0.714136 * cr),
                    to8(yy + 1.772 * cb)};
}

media::Image ReferenceToImage(const codec::Picture& p, int width, int height) {
  media::Image out(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const int cx = std::min(x / 2, p.cb.width - 1);
      const int cy = std::min(y / 2, p.cb.height - 1);
      out.set(x, y,
              ReferenceYcc(p.y.at(std::min(x, p.y.width - 1),
                                  std::min(y, p.y.height - 1)),
                           p.cb.at(cx, cy), p.cr.at(cx, cy)));
    }
  }
  return out;
}

// Every (y, cb, cr) triple: one row per cr, pixel x of it takes y = x % 256
// and chroma x / 2, whose cb is x / 256.
TEST(ToImageKernelTest, RowKernelsMatchTheFormulaOnEveryTriple) {
  constexpr int kCount = 256 * 256;
  std::vector<int16_t> y(kCount), cb(kCount / 2), cr(kCount / 2);
  for (int x = 0; x < kCount; ++x) y[x] = static_cast<int16_t>(x % 256);
  for (int i = 0; i < kCount / 2; ++i) cb[i] = static_cast<int16_t>(i / 128);
  std::vector<media::Rgb> scalar(kCount), accel(kCount);
  const bool have_accel = codec::internal::ToImageAccelAvailable();
  for (int c = 0; c < 256; ++c) {
    std::fill(cr.begin(), cr.end(), static_cast<int16_t>(c));
    codec::internal::ToImageRowScalar(y.data(), cb.data(), cr.data(), kCount,
                                      scalar.data());
    for (int x = 0; x < kCount; ++x) {
      ASSERT_EQ(scalar[x], ReferenceYcc(y[x], cb[x / 2], c))
          << "y " << y[x] << " cb " << cb[x / 2] << " cr " << c;
    }
    if (!have_accel) continue;
    codec::internal::ToImageRowAccel(y.data(), cb.data(), cr.data(), kCount,
                                     accel.data());
    ASSERT_TRUE(std::equal(accel.begin(), accel.end(), scalar.begin()))
        << "cr " << c;
  }
}

TEST(ToImageKernelTest, AccelMatchesScalarOnRandomRowsOfEveryLength) {
  if (!codec::internal::ToImageAccelAvailable()) {
    GTEST_SKIP() << "no ToImage accel kernel on this architecture";
  }
  util::Rng rng(0xC0);
  for (int count = 0; count <= 67; ++count) {
    std::vector<int16_t> y(count + 1), cb(count / 2 + 1), cr(count / 2 + 1);
    // Luma is not table-indexed, so it may leave [0, 255].
    for (int16_t& v : y) v = static_cast<int16_t>(rng.UniformInt(-300, 600));
    for (int16_t& v : cb) v = static_cast<int16_t>(rng.UniformInt(0, 255));
    for (int16_t& v : cr) v = static_cast<int16_t>(rng.UniformInt(0, 255));
    std::vector<media::Rgb> scalar(count + 1), accel(count + 1);
    codec::internal::ToImageRowScalar(y.data(), cb.data(), cr.data(), count,
                                      scalar.data());
    codec::internal::ToImageRowAccel(y.data(), cb.data(), cr.data(), count,
                                     accel.data());
    EXPECT_EQ(accel, scalar) << "count " << count;
  }
}

// Odd sizes, output larger than the planes (edge replication), luma
// outside [0, 255], and chroma outside it too (which skips the tables):
// every level must give the reference formula's pixels.
TEST(ToImageKernelTest, PublicEntryPointMatchesTheFormulaAtEveryLevel) {
  util::Rng rng(0xC1);
  for (int h = 1; h <= 9; ++h) {
    for (int w = 1; w <= 37; w += 3) {
      for (int wild = 0; wild < 3; ++wild) {  // none, luma, luma and chroma
        const int cw = (w + 1) / 2;
        const int ch = (h + 1) / 2;
        const codec::Picture pic{
            wild > 0 ? RandomPlane(w, h, -32768, 32767, &rng)
                     : RandomPlane(w, h, 0, 255, &rng),
            RandomPlane(cw, ch, wild > 1 ? -40 : 0, 255, &rng),
            RandomPlane(cw, ch, 0, wild > 1 ? 400 : 255, &rng)};
        for (int extra : {0, 3}) {
          const media::Image want =
              ReferenceToImage(pic, w + extra, h + extra);
          for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
            ScopedDispatchLevel pin(level);
            EXPECT_TRUE(codec::ToImage(pic, w + extra, h + extra) == want)
                << w << "x" << h << " +" << extra << " wild " << wild
                << " at " << util::DispatchLevelName(level);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Histogram.

media::Image RandomImage(int w, int h, util::Rng* rng) {
  media::Image img(w, h);
  for (media::Rgb& p : img.pixels()) {
    // Mix fully random pixels with grey / saturated ones so the delta==0
    // and mx==r==g branch-priority paths all get exercised.
    const int kind = rng->UniformInt(0, 9);
    if (kind == 0) {
      const uint8_t g = static_cast<uint8_t>(rng->UniformInt(0, 255));
      p = media::Rgb{g, g, g};
    } else if (kind == 1) {
      p = media::Rgb{static_cast<uint8_t>(rng->UniformInt(0, 1) * 255),
                     static_cast<uint8_t>(rng->UniformInt(0, 1) * 255),
                     static_cast<uint8_t>(rng->UniformInt(0, 1) * 255)};
    } else {
      p = media::Rgb{static_cast<uint8_t>(rng->UniformInt(0, 255)),
                     static_cast<uint8_t>(rng->UniformInt(0, 255)),
                     static_cast<uint8_t>(rng->UniformInt(0, 255))};
    }
  }
  return img;
}

TEST(HistogramKernelTest, BatchBinsMatchPerPixelScalar) {
  if (!features::internal::HistogramAccelAvailable()) {
    GTEST_SKIP() << "no histogram accel kernel on this architecture";
  }
  util::Rng rng(0x415);
  // Odd pixel counts force a ragged vector tail; offset 1 starts the batch
  // on an unaligned Rgb (3-byte stride already defeats natural alignment).
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                   size_t{7}, size_t{64}, size_t{257}, size_t{1001}}) {
    std::vector<media::Rgb> pixels(n + 1);
    for (media::Rgb& p : pixels) {
      p = media::Rgb{static_cast<uint8_t>(rng.UniformInt(0, 255)),
                     static_cast<uint8_t>(rng.UniformInt(0, 255)),
                     static_cast<uint8_t>(rng.UniformInt(0, 255))};
    }
    for (size_t offset : {size_t{0}, size_t{1}}) {
      std::vector<int32_t> want(n), got(n);
      features::internal::HistogramBinRangeScalar(pixels.data() + offset, n,
                                                  want.data());
      features::internal::HistogramBinRangeAccel(pixels.data() + offset, n,
                                                 got.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "n " << n << " offset " << offset
                                   << " pixel " << i;
        ASSERT_EQ(want[i],
                  features::HistogramBin(pixels[offset + i]));
      }
    }
  }
}

TEST(HistogramKernelTest, AllRgbEdgeValuesBinIdentically) {
  if (!features::internal::HistogramAccelAvailable()) {
    GTEST_SKIP() << "no histogram accel kernel on this architecture";
  }
  // Every combination of {0, 1, 127, 128, 254, 255} per channel: covers the
  // grey path, single-channel maxima and ties between channels.
  const uint8_t vals[] = {0, 1, 127, 128, 254, 255};
  std::vector<media::Rgb> pixels;
  for (uint8_t r : vals) {
    for (uint8_t g : vals) {
      for (uint8_t b : vals) pixels.push_back(media::Rgb{r, g, b});
    }
  }
  std::vector<int32_t> want(pixels.size()), got(pixels.size());
  features::internal::HistogramBinRangeScalar(pixels.data(), pixels.size(),
                                              want.data());
  features::internal::HistogramBinRangeAccel(pixels.data(), pixels.size(),
                                             got.data());
  EXPECT_EQ(want, got);
}

TEST(HistogramKernelTest, ComputeColorHistogramIsBitIdenticalAcrossLevels) {
  util::Rng rng(0x416);
  for (auto [w, h] : {std::pair{17, 13}, {1, 1}, {3, 7}, {32, 32}, {33, 9}}) {
    const media::Image img = RandomImage(w, h, &rng);
    features::ColorHistogram want;
    {
      ScopedDispatchLevel pin(util::DispatchLevel::kScalar);
      want = features::ComputeColorHistogram(img);
    }
    for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
      ScopedDispatchLevel pin(level);
      const features::ColorHistogram got = features::ComputeColorHistogram(img);
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(Bits(got[i]), Bits(want[i]))
            << w << "x" << h << " bin " << i << " level "
            << util::DispatchLevelName(level);
      }
    }
  }
}

TEST(HistogramKernelTest, ReductionsAreBitIdenticalAcrossLevels) {
  util::Rng rng(0x417);
  // Sizes around the 4-lane boundary plus full histogram size; unaligned
  // subspans shift the loads off 32-byte boundaries.
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                   size_t{5}, size_t{6}, size_t{7}, size_t{8}, size_t{9},
                   size_t{255}, size_t{256}}) {
    std::vector<double> a(n + 1), b(n + 1);
    for (double& v : a) v = rng.Uniform();
    for (double& v : b) v = rng.Uniform();
    for (size_t offset : {size_t{0}, size_t{1}}) {
      const std::span<const double> sa(a.data() + offset, n);
      const std::span<const double> sb(b.data() + offset, n);
      const double want_int =
          features::internal::HistogramIntersectionScalar(sa, sb);
      const double want_l1 =
          features::internal::HistogramL1DistanceScalar(sa, sb);
      if (features::internal::HistogramAccelAvailable()) {
        EXPECT_EQ(Bits(features::internal::HistogramIntersectionAccel(sa, sb)),
                  Bits(want_int))
            << "n " << n << " offset " << offset;
        EXPECT_EQ(Bits(features::internal::HistogramL1DistanceAccel(sa, sb)),
                  Bits(want_l1))
            << "n " << n << " offset " << offset;
      }
      for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
        ScopedDispatchLevel pin(level);
        EXPECT_EQ(Bits(features::HistogramIntersection(sa, sb)),
                  Bits(want_int))
            << "n " << n << " level " << util::DispatchLevelName(level);
        EXPECT_EQ(Bits(features::HistogramL1Distance(sa, sb)), Bits(want_l1))
            << "n " << n << " level " << util::DispatchLevelName(level);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SAD.

TEST(SadKernelTest, InteriorBlocksMatchScalarExactly) {
  if (!codec::internal::SadAccelAvailable()) {
    GTEST_SKIP() << "no SAD accel kernel on this architecture";
  }
  util::Rng rng(0x5AD);
  // Residual-range samples exercise the int32 widening (an int16 subtract
  // would wrap on e.g. 32000 - (-32000)).
  const codec::Plane cur = RandomPlane(64, 48, -32000, 32000, &rng);
  const codec::Plane ref = RandomPlane(64, 48, -32000, 32000, &rng);
  for (int iter = 0; iter < 200; ++iter) {
    const int mx = rng.UniformInt(0, 48);
    const int my = rng.UniformInt(0, 32);
    const int dx = rng.UniformInt(-mx, 48 - mx);
    const int dy = rng.UniformInt(-my, 32 - my);
    const int64_t want =
        codec::internal::MacroblockSadScalar(cur, ref, mx, my, dx, dy);
    const int64_t got =
        codec::internal::MacroblockSadAccel(cur, ref, mx, my, dx, dy);
    ASSERT_EQ(got, want) << "mx " << mx << " my " << my << " dx " << dx
                         << " dy " << dy;
  }
}

TEST(SadKernelTest, PublicEntryPointAgreesAcrossLevelsIncludingEdges) {
  util::Rng rng(0x5AE);
  // Odd dimensions put macroblocks across the right/bottom edges, forcing
  // the scalar fallback path; interior positions take the vector path.
  const codec::Plane cur = RandomPlane(53, 37, 0, 255, &rng);
  const codec::Plane ref = RandomPlane(53, 37, 0, 255, &rng);
  for (int iter = 0; iter < 300; ++iter) {
    const int mx = rng.UniformInt(0, 52);
    const int my = rng.UniformInt(0, 36);
    const int dx = rng.UniformInt(-20, 20);
    const int dy = rng.UniformInt(-20, 20);
    int64_t want = 0;
    {
      ScopedDispatchLevel pin(util::DispatchLevel::kScalar);
      want = codec::MacroblockSad(cur, ref, mx, my, dx, dy);
    }
    for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
      ScopedDispatchLevel pin(level);
      ASSERT_EQ(codec::MacroblockSad(cur, ref, mx, my, dx, dy), want)
          << "mx " << mx << " my " << my << " dx " << dx << " dy " << dy
          << " level " << util::DispatchLevelName(level);
    }
  }
}

// ---------------------------------------------------------------------------
// Autocorrelation pitch: lane-per-lag kernels against the single-accumulator
// loop FramePitch ran before them.

// One lag's sum as the original loop computed it.
double ReferenceLagSum(const std::vector<double>& x, size_t lag) {
  double acc = 0.0;
  for (size_t i = 0; i + lag < x.size(); ++i) acc += x[i] * x[i + lag];
  return acc;
}

// The original FramePitch: serial lags, one accumulator each.
double ReferenceFramePitch(const std::vector<double>& frame,
                           int sample_rate) {
  const int min_lag = sample_rate / 500;
  const int max_lag = sample_rate / 60;
  if (static_cast<int>(frame.size()) <= max_lag || min_lag < 1) return 0.0;
  double energy = 0.0;
  for (double s : frame) energy += s * s;
  if (energy < 1e-9) return 0.0;
  double best = 0.0;
  int best_lag = 0;
  for (int lag = min_lag; lag <= max_lag; ++lag) {
    const double acc = ReferenceLagSum(frame, static_cast<size_t>(lag));
    if (acc > best) {
      best = acc;
      best_lag = lag;
    }
  }
  if (best_lag == 0 || best < 0.25 * energy) return 0.0;
  return static_cast<double>(sample_rate) / best_lag;
}

// Float-valued samples widened to double, as ComputeClipFeatures feeds them.
std::vector<double> RandomFrame(size_t n, double amplitude, util::Rng* rng) {
  std::vector<double> x(n);
  for (double& v : x) {
    v = static_cast<float>(amplitude * rng->Uniform(-1.0, 1.0));
  }
  return x;
}

std::vector<double> VoicedFrame(size_t n, int sample_rate, int speaker) {
  audio::AudioBuffer buf(sample_rate);
  util::Rng rng(0x917C + static_cast<uint64_t>(speaker));
  synth::AppendSpeech(&buf, synth::MakeSpeakerVoice(speaker),
                      0.25 + static_cast<double>(n) / sample_rate, &rng);
  // Skip the envelope's attack so the frame is voiced.
  const size_t start = static_cast<size_t>(0.2 * sample_rate);
  return std::vector<double>(buf.samples().begin() + start,
                             buf.samples().begin() + start + n);
}

// Lag ranges of every width 1..40 (every tail length of the 4-, 8- and
// 16-lag passes), starting at lag 1 and deep into the frame.
std::vector<std::pair<size_t, size_t>> LagRanges(size_t n) {
  std::vector<std::pair<size_t, size_t>> ranges;
  for (size_t width = 1; width <= 40; ++width) {
    for (size_t min_lag : {size_t{1}, size_t{7}, n / 2}) {
      const size_t max_lag = min_lag + width - 1;
      if (max_lag < n) ranges.emplace_back(min_lag, max_lag);
    }
  }
  return ranges;
}

std::vector<std::vector<double>> PitchFrames() {
  util::Rng rng(0x717C);
  std::vector<std::vector<double>> frames;
  for (size_t n : {size_t{2}, size_t{17}, size_t{41}, size_t{160},
                   size_t{241}, size_t{480}}) {
    frames.push_back(RandomFrame(n, 1.0, &rng));
  }
  frames.push_back(VoicedFrame(480, 16000, 2));
  frames.push_back(VoicedFrame(331, 11025, 6));
  return frames;
}

TEST(PitchKernelTest, ScalarMatchesSingleAccumulatorLoop) {
  for (const std::vector<double>& x : PitchFrames()) {
    for (const auto& [min_lag, max_lag] : LagRanges(x.size())) {
      std::vector<double> acc(max_lag - min_lag + 1);
      audio::internal::PitchAutocorrScalar(x, min_lag, max_lag, acc.data());
      for (size_t lag = min_lag; lag <= max_lag; ++lag) {
        ASSERT_EQ(Bits(acc[lag - min_lag]), Bits(ReferenceLagSum(x, lag)))
            << "n " << x.size() << " lags [" << min_lag << ", " << max_lag
            << "] lag " << lag;
      }
    }
  }
}

TEST(PitchKernelTest, AccelMatchesScalarOnEveryLagBlockTail) {
  if (!audio::internal::PitchAccelAvailable()) {
    GTEST_SKIP() << "no pitch accel kernel on this architecture";
  }
  for (const std::vector<double>& x : PitchFrames()) {
    for (const auto& [min_lag, max_lag] : LagRanges(x.size())) {
      std::vector<double> want(max_lag - min_lag + 1);
      std::vector<double> got(want.size());
      audio::internal::PitchAutocorrScalar(x, min_lag, max_lag, want.data());
      audio::internal::PitchAutocorrAccel(x, min_lag, max_lag, got.data());
      for (size_t j = 0; j < want.size(); ++j) {
        ASSERT_EQ(Bits(got[j]), Bits(want[j]))
            << "n " << x.size() << " lags [" << min_lag << ", " << max_lag
            << "] lag " << min_lag + j;
      }
    }
  }
}

// A dead tail lane multiplies a live x[i] by a masked-out (zero) sample; if
// x[i] is infinite that product is NaN and must not reach the lane's sum.
TEST(PitchKernelTest, NonFiniteSamplesDoNotLeakIntoDeadLanes) {
  if (!audio::internal::PitchAccelAvailable()) {
    GTEST_SKIP() << "no pitch accel kernel on this architecture";
  }
  util::Rng rng(0x1F);
  const auto same = [](double a, double b) {
    return (std::isnan(a) && std::isnan(b)) || Bits(a) == Bits(b);
  };
  for (size_t min_lag : {size_t{1}, size_t{5}, size_t{30}}) {
    const size_t max_lag = min_lag + 15;
    std::vector<double> x = RandomFrame(100, 1.0, &rng);
    // First tail step of the 16-lag pass: the top lag is already dead.
    x[100 - (min_lag + 15)] = std::numeric_limits<double>::infinity();
    std::vector<double> want(16), got(16);
    audio::internal::PitchAutocorrScalar(x, min_lag, max_lag, want.data());
    audio::internal::PitchAutocorrAccel(x, min_lag, max_lag, got.data());
    EXPECT_TRUE(std::isinf(want[15])) << "min_lag " << min_lag;
    for (size_t j = 0; j < 16; ++j) {
      EXPECT_TRUE(same(got[j], want[j]))
          << "min_lag " << min_lag << " lane " << j << ": " << got[j]
          << " vs " << want[j];
    }
  }
}

TEST(PitchKernelTest, FramePitchIsBitIdenticalAcrossLevels) {
  util::Rng rng(0xF0);
  struct Case {
    int sample_rate;
    std::vector<double> frame;
  };
  std::vector<Case> cases;
  for (int sr : {8000, 11025, 16000, 22050, 44100}) {
    const size_t win = static_cast<size_t>(0.03 * sr);
    const size_t max_lag = static_cast<size_t>(sr / 60);
    cases.push_back({sr, VoicedFrame(win, sr, sr % 8)});
    cases.push_back({sr, VoicedFrame(win + 1, sr, (sr + 3) % 8)});
    cases.push_back({sr, RandomFrame(win, 0.5, &rng)});
    cases.push_back({sr, VoicedFrame(max_lag, sr, 1)});      // too short
    cases.push_back({sr, VoicedFrame(max_lag + 1, sr, 1)});  // one step
    cases.push_back({sr, RandomFrame(win, 1e-6, &rng)});     // silent
  }
  // min_lag < 1: rates below 500 Hz never yield a pitch.
  cases.push_back({400, RandomFrame(50, 0.5, &rng)});
  cases.push_back({499, RandomFrame(50, 0.5, &rng)});

  int voiced = 0;
  for (const Case& c : cases) {
    const double want = ReferenceFramePitch(c.frame, c.sample_rate);
    if (want > 0.0) ++voiced;
    for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
      ScopedDispatchLevel pin(level);
      ASSERT_EQ(Bits(audio::internal::FramePitch(c.frame, c.sample_rate)),
                Bits(want))
          << "rate " << c.sample_rate << " n " << c.frame.size()
          << " level " << util::DispatchLevelName(level);
    }
  }
  EXPECT_GE(voiced, 5);  // the voiced frames really exercise the argmax
}

// ---------------------------------------------------------------------------
// End-to-end: mining output must not depend on the dispatch level.

core::MiningResult MineAtLevel(const codec::CmvFile& file,
                               util::DispatchLevel level, int threads) {
  ScopedDispatchLevel pin(level);
  core::MiningOptions options;
  options.thread_count = threads;
  util::StatusOr<core::MiningResult> result =
      core::MineCmvFileFast(file, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

TEST(KernelEndToEndTest, MiningOutputIsBitIdenticalAcrossDispatchLevels) {
  const synth::GeneratedVideo generated =
      synth::GenerateVideo(synth::QuickScript(17));
  const codec::CmvFile file = core::PackGeneratedVideo(generated);

  for (int threads : {1, 2}) {
    const core::MiningResult want =
        MineAtLevel(file, util::DispatchLevel::kScalar, threads);
    for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
      const core::MiningResult got = MineAtLevel(file, level, threads);
      // The frame-difference trace is the rawest double-valued output the
      // kernels touch; require bit equality, not tolerance.
      ASSERT_EQ(got.shot_trace.differences.size(),
                want.shot_trace.differences.size());
      for (size_t i = 0; i < want.shot_trace.differences.size(); ++i) {
        ASSERT_EQ(Bits(got.shot_trace.differences[i]),
                  Bits(want.shot_trace.differences[i]))
            << "diff " << i << " level " << util::DispatchLevelName(level)
            << " threads " << threads;
      }
      EXPECT_EQ(got.shot_trace.cuts, want.shot_trace.cuts);
      ASSERT_EQ(got.structure.shots.size(), want.structure.shots.size());
      for (size_t i = 0; i < want.structure.shots.size(); ++i) {
        EXPECT_EQ(got.structure.shots[i].start_frame,
                  want.structure.shots[i].start_frame);
        EXPECT_EQ(got.structure.shots[i].end_frame,
                  want.structure.shots[i].end_frame);
      }
      EXPECT_EQ(got.structure.scenes.size(), want.structure.scenes.size());
      EXPECT_EQ(got.events.size(), want.events.size());
    }
  }
}

TEST(KernelEndToEndTest, FullDecodeIsIdenticalAcrossDispatchLevels) {
  const synth::GeneratedVideo generated =
      synth::GenerateVideo(synth::QuickScript(5));
  const codec::CmvFile file = core::PackGeneratedVideo(generated);

  util::StatusOr<media::Video> want = [&] {
    ScopedDispatchLevel pin(util::DispatchLevel::kScalar);
    return codec::DecodeVideo(file);
  }();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
    ScopedDispatchLevel pin(level);
    util::StatusOr<media::Video> got = codec::DecodeVideo(file);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->frame_count(), want->frame_count());
    for (int i = 0; i < want->frame_count(); ++i) {
      ASSERT_TRUE(got->frame(i) == want->frame(i))
          << "frame " << i << " level " << util::DispatchLevelName(level);
    }
  }
}

}  // namespace
}  // namespace classminer
