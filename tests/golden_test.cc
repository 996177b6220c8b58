// Golden reports: CRC-32 digests of the deterministic reports that
// `classminer mine <in.cmv> --threads N [--fast]`, `classminer browse
// --clearance 3 <in.cmv>` and `classminer skim <in.cmv> --level L` (L = 1, 3)
// print, for the five corpus titles as `classminer generate --title T
// [--degraded]` writes them (seed 11). Every report is rendered at threads
// 1 and 4, at every dispatch level this host can execute; all of those runs
// must print the same bytes. The same requests sent through an in-process
// classminerd over one pipelined session, with the reports streamed in
// 64-byte chunks, must reassemble to the same digests. A change that means
// to move mining output re-records the table from the failure messages and
// says why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/cmv_pipeline.h"
#include "server/client.h"
#include "server/ops.h"
#include "server/server.h"
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

// Browse and skim digests, row for row the titles of kGoldenMine.
struct GoldenServe {
  uint32_t browse;  // digest of `browse --clearance 3`
  uint32_t skim1;   // digest of `skim --level 1`
  uint32_t skim3;   // digest of `skim --level 3`
};

constexpr GoldenServe kGoldenServe[] = {
    {0xa3e108b4, 0xb6ebd069, 0x2163927c},  // face_repair
    {0xbe382784, 0x19a5eedf, 0x9514d5ec},  // nuclear_medicine
    {0x4f0963fb, 0xadaf93d1, 0xc70d4a29},  // laparoscopy
    {0x6bbc06ed, 0x1fb69a4d, 0x887bd4b8},  // skin_examination
    {0x1d9dc52d, 0xe2aa69f2, 0x4833d6fb},  // laser_eye_surgery
    {0xffff3df4, 0x7912875d, 0xb1a9c3ee},  // face_repair, degraded
    {0x56c50465, 0xb00e99b2, 0xa684cf22},  // nuclear_medicine, degraded
    {0x6a78bdfb, 0x645c123f, 0xca975fd2},  // laparoscopy, degraded
    {0x511e5076, 0x4c0f665a, 0xef859e4e},  // skin_examination, degraded
    {0x0f24181a, 0x56b62895, 0xf438694b},  // laser_eye_surgery, degraded
};
static_assert(std::size(kGoldenServe) == std::size(kGoldenMine));

uint32_t Digest(const std::string& report) {
  return util::Crc32(reinterpret_cast<const uint8_t*>(report.data()),
                     report.size());
}

index::UserCredential ClearanceThree() {
  index::UserCredential user;
  user.name = "golden";
  user.clearance = 3;
  return user;
}

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
        digests[fast ? 1 : 0] = Digest(mined.report);
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

class ServeGoldenTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ServeGoldenTest, BrowseAndSkimMatchRecordedDigests) {
  const GoldenMine& title = kGoldenMine[GetParam()];
  const GoldenServe& golden = kGoldenServe[GetParam()];
  const std::string path = WriteTitle(title);
  ASSERT_FALSE(path.empty());
  for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
    ScopedDispatchLevel pin(level);
    for (int threads : {1, 4}) {
      server::OpEnv env;
      env.mining.thread_count = threads;
      const server::OpResult browse = server::BrowseOp(
          {path}, /*strict=*/false, ClearanceThree(), env, nullptr);
      ASSERT_TRUE(browse.ok()) << browse.status.ToString();
      const server::OpResult skim1 = server::SkimOp(path, 1, env, nullptr);
      ASSERT_TRUE(skim1.ok()) << skim1.status.ToString();
      const server::OpResult skim3 = server::SkimOp(path, 3, env, nullptr);
      ASSERT_TRUE(skim3.ok()) << skim3.status.ToString();
      const GoldenServe got_row = {Digest(browse.report),
                                   Digest(skim1.report),
                                   Digest(skim3.report)};
      char got[64];
      std::snprintf(got, sizeof(got), "{0x%08x, 0x%08x, 0x%08x},",
                    got_row.browse, got_row.skim1, got_row.skim3);
      const std::string where = std::string(" at ") +
                                util::DispatchLevelName(level) + ", " +
                                std::to_string(threads) + " thread(s); got " +
                                got;
      EXPECT_EQ(got_row.browse, golden.browse) << "browse" << where;
      EXPECT_EQ(got_row.skim1, golden.skim1) << "skim --level 1" << where;
      EXPECT_EQ(got_row.skim3, golden.skim3) << "skim --level 3" << where;
    }
  }
}

std::string TitleName(const ::testing::TestParamInfo<size_t>& info) {
  const GoldenMine& golden = kGoldenMine[info.param];
  return std::string(golden.title) + (golden.degraded ? "_degraded" : "");
}

INSTANTIATE_TEST_SUITE_P(CorpusTitles, MineGoldenTest,
                         ::testing::Range<size_t>(0, std::size(kGoldenMine)),
                         TitleName);
INSTANTIATE_TEST_SUITE_P(CorpusTitles, ServeGoldenTest,
                         ::testing::Range<size_t>(0, std::size(kGoldenMine)),
                         TitleName);

// The daemon's one protocol path: every golden request of every title goes
// through one pipelined session, each report streamed in 64-byte chunks and
// reassembled by the client. The bodies must carry the recorded digests.
TEST(GoldenServerTest, PipelinedSessionReassemblesTheRecordedDigests) {
  server::ServerOptions options;
  options.stream_chunk_bytes = 64;
  options.max_queue = 64;  // the whole burst is admitted, none shed
  server::ClassMinerServer daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  server::SessionHello hello;
  hello.user = "golden";
  hello.clearance = 3;
  util::StatusOr<std::unique_ptr<server::PipelinedClient>> session =
      server::PipelinedClient::Connect("127.0.0.1", daemon.port(), hello);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  struct Call {
    std::string what;
    uint32_t want;
    std::future<util::StatusOr<server::Response>> reply;
  };
  std::vector<Call> calls;
  const auto send = [&](std::string what, uint32_t want,
                        server::RequestKind kind,
                        std::vector<std::string> args) {
    server::Request request;
    request.kind = kind;
    request.args = std::move(args);
    calls.push_back({std::move(what), want,
                     (*session)->AsyncCall(std::move(request))});
  };
  for (size_t i = 0; i < std::size(kGoldenMine); ++i) {
    const GoldenMine& title = kGoldenMine[i];
    const GoldenServe& golden = kGoldenServe[i];
    const std::string path = WriteTitle(title);
    ASSERT_FALSE(path.empty());
    const std::string name = TitleName({i, 0});
    send(name + " mine", title.full, server::RequestKind::kMine, {path});
    send(name + " mine --fast", title.fast, server::RequestKind::kMine,
         {path, "--fast"});
    send(name + " browse", golden.browse, server::RequestKind::kBrowse,
         {path});
    send(name + " skim 1", golden.skim1, server::RequestKind::kSkim,
         {path, "1"});
    send(name + " skim 3", golden.skim3, server::RequestKind::kSkim,
         {path, "3"});
  }
  for (Call& call : calls) {
    util::StatusOr<server::Response> reply = call.reply.get();
    ASSERT_TRUE(reply.ok()) << call.what << ": " << reply.status().ToString();
    ASSERT_TRUE(reply->ok()) << call.what << ": " << reply->message;
    char got[16];
    std::snprintf(got, sizeof(got), "0x%08x", Digest(reply->body));
    EXPECT_EQ(Digest(reply->body), call.want) << call.what << "; got " << got;
  }
  EXPECT_GE(daemon.StatsSnapshot().responses_streamed, calls.size());
  (*session)->Close();
  daemon.Stop();
  EXPECT_EQ(daemon.StatsSnapshot().connections_active, 0u);
}

}  // namespace
}  // namespace classminer
