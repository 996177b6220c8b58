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
//
// Below the reports sits the codec: the container bytes the encoder writes
// for each title, every pixel DecodeVideo returns, and the DC series plus
// salvage notes of DecodeDcImagesSalvage, on the clean container and on a
// copy with damaged frame payloads, at pool widths 1 and 4 and every
// dispatch level.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <future>
#include <iomanip>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "codec/container.h"
#include "codec/decoder.h"
#include "codec/gop_reader.h"
#include "core/cmv_pipeline.h"
#include "server/client.h"
#include "server/ops.h"
#include "server/server.h"
#include "synth/corpus.h"
#include "util/cpu.h"
#include "util/crc32.h"
#include "util/exec_context.h"
#include "util/salvage.h"
#include "util/threadpool.h"

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

// The video and audio `classminer generate --title <title>` would encode,
// at the corpus frame size unless `width`/`height` are given.
synth::GeneratedVideo GenerateTitle(const char* title, bool degraded,
                                    int width = 0, int height = 0) {
  synth::CorpusOptions options;
  options.seed = 11;
  options.degraded = degraded;
  if (width > 0) options.width = width;
  if (height > 0) options.height = height;
  for (const synth::VideoScript& script :
       synth::MedicalCorpusScripts(options)) {
    if (script.name == title) return synth::GenerateVideo(script);
  }
  ADD_FAILURE() << "no corpus title " << title;
  return synth::GeneratedVideo();
}

codec::CmvFile EncodeTitle(const char* title, bool degraded, int width = 0,
                           int height = 0) {
  return core::PackGeneratedVideo(
      GenerateTitle(title, degraded, width, height));
}

// Writes the container `classminer generate --title <title>` would write.
std::string WriteTitle(const GoldenMine& golden) {
  const codec::CmvFile file = EncodeTitle(golden.title, golden.degraded);
  if (file.frames.empty()) return "";
  const std::string path = ::testing::TempDir() + "/golden_" + golden.title +
                           (golden.degraded ? "_degraded" : "") + ".cmv";
  EXPECT_TRUE(file.SaveToFile(path).ok());
  return path;
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

// Codec digests, one row per container: the five titles clean and
// degraded, plus one title at an odd frame size so partial blocks,
// partial macroblocks and odd chroma edges are covered.
struct GoldenCodec {
  const char* title;
  bool degraded;
  int width;  // 0: the corpus size
  int height;
  uint32_t encoded;  // CmvFile::Serialize() of the encoded title
  uint32_t decoded;  // DecodeVideo: status, then every frame's pixels
  uint32_t dc;       // DecodeDcImagesSalvage: status, DC images, notes
  uint32_t damaged_decoded;  // DecodeVideo, then each GopReader::DecodeGop
  uint32_t damaged_dc;       // DecodeDcImagesSalvage of the damaged copy
};

constexpr GoldenCodec kGoldenCodec[] = {
    {"face_repair", false, 0, 0, 0x637c9670,
     0x8601518a, 0x8e956b7f, 0x668405fc, 0x80447ab0},
    {"nuclear_medicine", false, 0, 0, 0x29b39c9a,
     0x4b7771ee, 0xbb9443e0, 0x1ef8aa88, 0x51e33dc6},
    {"laparoscopy", false, 0, 0, 0x042624a2,
     0xed82f89f, 0xb2f68d5d, 0xc96d1c95, 0x216b2aec},
    {"skin_examination", false, 0, 0, 0xc25e2972,
     0x4524d22e, 0x82b010d1, 0x960b735c, 0xc6697887},
    {"laser_eye_surgery", false, 0, 0, 0x9a180026,
     0xc88bf59b, 0xd2bc3dd7, 0x39bdaf0c, 0x4e57c0e1},
    {"face_repair", true, 0, 0, 0xd38182ee,
     0xe89679a8, 0xdcb9c472, 0x47f785ae, 0xba4076e0},
    {"nuclear_medicine", true, 0, 0, 0x82d67d8b,
     0x122db4ac, 0x5ebfff79, 0x021cd74f, 0x8cdcd549},
    {"laparoscopy", true, 0, 0, 0x4feb1b4e,
     0xebfff465, 0x20e25bc1, 0xb1fedb1e, 0x619d7a2a},
    {"skin_examination", true, 0, 0, 0xe28e84f5,
     0x90d48efb, 0x30754358, 0x97734f55, 0x8bf8edd3},
    {"laser_eye_surgery", true, 0, 0, 0x4c663af4,
     0x69018ac3, 0xc4cd15f2, 0x0fcefe21, 0xb3f86dea},
    {"laparoscopy", false, 45, 31, 0xa2a58ff1,
     0x687cf29d, 0xdc3203d6, 0xdb9afe41, 0x8c37a850},
};

static_assert(sizeof(media::Rgb) == 3);

uint32_t AddStatus(uint32_t crc, const util::Status& status) {
  const uint8_t code = static_cast<uint8_t>(status.code());
  crc = util::Crc32(&code, 1, crc);
  return util::Crc32(reinterpret_cast<const uint8_t*>(status.message().data()),
                     status.message().size(), crc);
}

uint32_t AddFrame(uint32_t crc, const media::Image& frame) {
  return util::Crc32(reinterpret_cast<const uint8_t*>(frame.pixels().data()),
                     frame.pixels().size() * sizeof(media::Rgb), crc);
}

uint32_t DecodeDigest(const codec::CmvFile& file,
                      const util::ExecutionContext& ctx) {
  const util::StatusOr<media::Video> video = codec::DecodeVideo(file, ctx);
  uint32_t crc = AddStatus(0, video.status());
  if (!video.ok()) return crc;
  for (int i = 0; i < video->frame_count(); ++i) {
    crc = AddFrame(crc, video->frame(i));
  }
  return crc;
}

uint32_t GopDigest(const codec::CmvFile& file) {
  const util::StatusOr<codec::GopReader> reader =
      codec::GopReader::Create(&file);
  uint32_t crc = AddStatus(0, reader.status());
  if (!reader.ok()) return crc;
  for (int g = 0; g < reader->gop_count(); ++g) {
    const util::StatusOr<std::vector<media::Image>> frames =
        reader->DecodeGop(g);
    crc = AddStatus(crc, frames.status());
    if (!frames.ok()) continue;
    for (const media::Image& frame : *frames) crc = AddFrame(crc, frame);
  }
  return crc;
}

uint32_t DcDigest(const codec::CmvFile& file) {
  util::SalvageReport report;
  const util::StatusOr<std::vector<media::GrayImage>> dcs =
      codec::DecodeDcImagesSalvage(file, &report);
  uint32_t crc = AddStatus(0, dcs.status());
  if (dcs.ok()) {
    for (const media::GrayImage& dc : *dcs) {
      crc = util::Crc32(dc.pixels(), crc);
    }
  }
  const int32_t counts[] = {report.items_recovered, report.items_dropped,
                            report.gops_skipped};
  crc = util::Crc32(reinterpret_cast<const uint8_t*>(counts), sizeof(counts),
                    crc);
  for (const std::string& note : report.notes) {
    crc = util::Crc32(reinterpret_cast<const uint8_t*>(note.data()),
                      note.size() + 1, crc);  // the terminator separates notes
  }
  return crc;
}

// Flips one payload bit in every fifth frame. Record checksums guard the
// container, not a decoder handed the records in memory, so the damage
// reaches the bit reader, the block decoder and the salvage path.
codec::CmvFile DamagePayloads(codec::CmvFile file) {
  for (size_t i = 2; i < file.frames.size(); i += 5) {
    std::vector<uint8_t>& payload = file.frames[i].payload;
    if (payload.empty()) continue;
    const uint64_t bit = (i * 2654435761ull) % (payload.size() * 8);
    payload[bit / 8] ^= static_cast<uint8_t>(0x80u >> (bit % 8));
  }
  return file;
}

std::string CodecRowName(const ::testing::TestParamInfo<size_t>& info) {
  const GoldenCodec& golden = kGoldenCodec[info.param];
  std::string name = golden.title;
  if (golden.degraded) name += "_degraded";
  if (golden.width > 0) {
    name += "_" + std::to_string(golden.width) + "x" +
            std::to_string(golden.height);
  }
  return name;
}

class EncodeGoldenTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EncodeGoldenTest, ContainerBytesMatchRecordedDigests) {
  const GoldenCodec& golden = kGoldenCodec[GetParam()];
  const synth::GeneratedVideo generated = GenerateTitle(
      golden.title, golden.degraded, golden.width, golden.height);
  for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
    ScopedDispatchLevel pin(level);
    const codec::CmvFile file = core::PackGeneratedVideo(generated);
    const uint32_t got = util::Crc32(file.Serialize());
    EXPECT_EQ(got, golden.encoded)
        << "encode at " << util::DispatchLevelName(level) << "; got 0x"
        << std::hex << std::setw(8) << std::setfill('0') << got;
  }
}

class DecodeGoldenTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DecodeGoldenTest, FramesAndDcSeriesMatchRecordedDigests) {
  const GoldenCodec& golden = kGoldenCodec[GetParam()];
  const codec::CmvFile file = EncodeTitle(golden.title, golden.degraded,
                                          golden.width, golden.height);
  ASSERT_FALSE(file.frames.empty());
  const codec::CmvFile damaged = DamagePayloads(file);
  util::ThreadPool pool(4);
  for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
    ScopedDispatchLevel pin(level);
    const uint32_t dc = DcDigest(file);
    const uint32_t damaged_dc = DcDigest(damaged);
    const uint32_t gops = GopDigest(damaged);
    for (util::ThreadPool* width : {static_cast<util::ThreadPool*>(nullptr),
                                    &pool}) {
      const util::ExecutionContext ctx(width);
      const uint32_t decoded = DecodeDigest(file, ctx);
      const uint32_t damaged_decoded =
          util::Crc32(reinterpret_cast<const uint8_t*>(&gops), sizeof(gops),
                      DecodeDigest(damaged, ctx));
      char got[96];
      std::snprintf(got, sizeof(got), "0x%08x, 0x%08x, 0x%08x, 0x%08x",
                    decoded, dc, damaged_decoded, damaged_dc);
      const std::string where =
          std::string(" at ") + util::DispatchLevelName(level) + ", width " +
          std::to_string(ctx.thread_count()) + "; got " + got;
      EXPECT_EQ(decoded, golden.decoded) << "DecodeVideo" << where;
      EXPECT_EQ(dc, golden.dc) << "DecodeDcImagesSalvage" << where;
      EXPECT_EQ(damaged_decoded, golden.damaged_decoded)
          << "damaged DecodeVideo + DecodeGop" << where;
      EXPECT_EQ(damaged_dc, golden.damaged_dc)
          << "damaged DecodeDcImagesSalvage" << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CorpusTitles, EncodeGoldenTest,
                         ::testing::Range<size_t>(0, std::size(kGoldenCodec)),
                         CodecRowName);
INSTANTIATE_TEST_SUITE_P(CorpusTitles, DecodeGoldenTest,
                         ::testing::Range<size_t>(0, std::size(kGoldenCodec)),
                         CodecRowName);

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
