// Golden `mine` reports: CRC-32 digests of the deterministic report that
// `classminer mine <in.cmv> --threads N [--fast]` prints, for the five
// corpus titles as `classminer generate --title T [--degraded]` writes them
// (seed 11). Every title is mined full and fast, at threads 1 and 4, at
// every dispatch level this host can execute; all of those runs must print
// the same bytes. A change that means to move mining output re-records the
// table from the failure messages and says why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>

#include "core/cmv_pipeline.h"
#include "server/ops.h"
#include "synth/corpus.h"
#include "util/cpu.h"
#include "util/crc32.h"

namespace classminer {
namespace {

struct GoldenMine {
  const char* title;
  bool degraded;
  uint32_t full;  // digest of `mine`
  uint32_t fast;  // digest of `mine --fast`
};

constexpr GoldenMine kGoldenMine[] = {
    {"face_repair", false, 0xd833d683, 0x823cd65c},
    {"nuclear_medicine", false, 0x4a1b3cfa, 0x1603b20c},
    {"laparoscopy", false, 0xd8c3e606, 0xad207268},
    {"skin_examination", false, 0x39582173, 0x32e53303},
    {"laser_eye_surgery", false, 0x8d9e6224, 0xc9c964a7},
    {"face_repair", true, 0x011d27b6, 0xf68a781c},
    {"nuclear_medicine", true, 0x5a67cedd, 0x3574f5ef},
    {"laparoscopy", true, 0x1291355b, 0x51e5f0bd},
    {"skin_examination", true, 0x6ab653db, 0x20cf8b8f},
    {"laser_eye_surgery", true, 0xd1b8f957, 0x43bf5f78},
};

class ScopedDispatchLevel {
 public:
  explicit ScopedDispatchLevel(util::DispatchLevel level) {
    util::SetDispatchLevelForTest(level);
  }
  ~ScopedDispatchLevel() { util::ClearDispatchLevelForTest(); }
};

// Writes the container `classminer generate --title <title>` would write.
std::string WriteTitle(const GoldenMine& golden) {
  synth::CorpusOptions options;
  options.seed = 11;
  options.degraded = golden.degraded;
  for (const synth::VideoScript& script :
       synth::MedicalCorpusScripts(options)) {
    if (script.name != golden.title) continue;
    const std::string path = ::testing::TempDir() + "/golden_" +
                             script.name +
                             (golden.degraded ? "_degraded" : "") + ".cmv";
    const codec::CmvFile file =
        core::PackGeneratedVideo(synth::GenerateVideo(script));
    EXPECT_TRUE(file.SaveToFile(path).ok());
    return path;
  }
  ADD_FAILURE() << "no corpus title " << golden.title;
  return "";
}

class MineGoldenTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MineGoldenTest, ReportsMatchRecordedDigests) {
  const GoldenMine& golden = kGoldenMine[GetParam()];
  const std::string path = WriteTitle(golden);
  ASSERT_FALSE(path.empty());
  for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
    ScopedDispatchLevel pin(level);
    for (int threads : {1, 4}) {
      server::OpEnv env;
      env.mining.thread_count = threads;
      uint32_t digests[2] = {};
      for (bool fast : {false, true}) {
        const server::OpResult mined =
            server::MineOp(path, fast, /*strict=*/false, env, nullptr);
        ASSERT_TRUE(mined.ok()) << mined.status.ToString();
        digests[fast ? 1 : 0] = util::Crc32(
            reinterpret_cast<const uint8_t*>(mined.report.data()),
            mined.report.size());
      }
      char got[96];
      std::snprintf(got, sizeof(got), "{\"%s\", %s, 0x%08x, 0x%08x},",
                    golden.title, golden.degraded ? "true" : "false",
                    digests[0], digests[1]);
      EXPECT_EQ(digests[0], golden.full)
          << "mine at " << util::DispatchLevelName(level) << ", " << threads
          << " thread(s); got " << got;
      EXPECT_EQ(digests[1], golden.fast)
          << "mine --fast at " << util::DispatchLevelName(level) << ", "
          << threads << " thread(s); got " << got;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CorpusTitles, MineGoldenTest,
    ::testing::Range<size_t>(0, std::size(kGoldenMine)),
    [](const ::testing::TestParamInfo<size_t>& info) {
      const GoldenMine& golden = kGoldenMine[info.param];
      return std::string(golden.title) + (golden.degraded ? "_degraded" : "");
    });

}  // namespace
}  // namespace classminer
