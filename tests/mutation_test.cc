// Hostile-input harness. Protocol slice: valid request and response frames
// are damaged by the seeded mutator (tests/mutator.h) and fed to every
// layer that reads them from a peer — the incremental frame assembler in
// dribbles, the body parsers, and live daemon sessions. Each case must end
// in OK or a clean error status, never a crash, a hang or a sanitizer
// report; the daemon must keep serving and leak no session.
//
// CMV slice: container bytes and bare frame payloads are damaged the same
// way and fed to the container parsers and every decoder — DecodeVideo at
// pool widths 1 and 4, the salvage DC decode and GopReader — at every
// dispatch level. Each must end cleanly, and status, salvage notes and
// decoded pixels must not depend on the width or the level.
//
// Persistence slice: CMSM manifest bytes, CMSL shard-log bytes and legacy
// CMDB v1/v2/v3 bytes are damaged the same way, half the time with their
// record (or manifest) checksums recomputed over the damage, as a crafted
// file would carry them. Every strict parse, ShardedDatabase::Open and
// legacy import must end OK or with a clean status; salvage must never
// crash.

#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "codec/bitstream.h"
#include "codec/container.h"
#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/gop_reader.h"
#include "gtest/gtest.h"
#include "index/persist.h"
#include "index/shard.h"
#include "legacy_cmdb.h"
#include "media/draw.h"
#include "mutator.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/wire.h"
#include "util/cpu.h"
#include "util/crc32.h"
#include "util/exec_context.h"
#include "util/rng.h"
#include "util/salvage.h"
#include "util/serial.h"
#include "util/threadpool.h"

namespace classminer::server {
namespace {

using mutation::Damage;
using mutation::Mutator;
using mutation::Sample;
using util::StatusCode;

constexpr uint64_t kSeed = 0x434d5132;  // "CMQ2"

// The codes a parser may answer hostile bytes with.
bool CleanStatus(StatusCode code) {
  return code == StatusCode::kOk || code == StatusCode::kDataLoss ||
         code == StatusCode::kInvalidArgument;
}

SessionHello Credential(const std::string& user, int clearance,
                        std::vector<int32_t> denied) {
  SessionHello hello;
  hello.user = user;
  hello.clearance = clearance;
  hello.denied_nodes = std::move(denied);
  return hello;
}

// A request body with its arg count, every arg length and the idempotency
// key length marked.
Sample RequestBody(RequestKind kind, std::vector<std::string> args,
                   std::string key = {}) {
  Request request;
  request.kind = kind;
  request.request_id = 7;
  request.deadline_ms = 250;
  request.args = std::move(args);
  request.idempotency_key = std::move(key);
  Sample sample{*request.SerializeTagged(), {9}};
  size_t at = 13;  // request_id 4 · kind 1 · deadline 4 · arg count 4
  for (const std::string& arg : request.args) {
    sample.length_fields.push_back(at);
    at += 4 + arg.size();
  }
  sample.length_fields.push_back(at);
  return sample;
}

// A response chunk body with its message and body lengths marked.
Sample ResponseBody(StatusCode code, std::string message, std::string body,
                    bool final_chunk) {
  Response response;
  response.code = code;
  response.message = std::move(message);
  response.body = std::move(body);
  response.request_id = 7;
  response.final_chunk = final_chunk;
  // request_id 4 · flags 1 · code 4, then the two strings.
  return {*response.SerializeChunk(), {9, 13 + response.message.size()}};
}

// A hello payload with its user length and denied-node count marked.
Sample HelloPayload(const SessionHello& hello) {
  const std::string bytes = *hello.Serialize();
  return {std::vector<uint8_t>(bytes.begin(), bytes.end()),
          {0, 8 + hello.user.size()}};
}

// `body` framed under `magic`, its length fields shifted past the header
// and the frame's own size field marked.
Sample Framed(uint32_t magic, const Sample& body) {
  Sample frame{*EncodeFrame(magic, body.bytes, kMaxFrameBytes), {4}};
  for (size_t offset : body.length_fields) {
    frame.length_fields.push_back(12 + offset);
  }
  return frame;
}

std::vector<Sample> RequestCorpus() {
  return {
      RequestBody(RequestKind::kHello,
                  {*Credential("dr_lee", 2, {4, 9}).Serialize()}),
      RequestBody(RequestKind::kHealth, {}),
      RequestBody(RequestKind::kMine,
                  {"/nonexistent/clip.cmv", "--fast", "--strict"},
                  "rc1-00ff-3-abc"),
      RequestBody(RequestKind::kBrowse,
                  {"/nonexistent/a.cmv", "/nonexistent/b.cmv"}),
      RequestBody(RequestKind::kSkim, {"/nonexistent/clip.cmv", "2"}),
      RequestBody(RequestKind::kVerify, {"/nonexistent/library.cmdb"}),
  };
}

std::vector<Sample> ResponseCorpus() {
  return {
      ResponseBody(StatusCode::kOk, "", "fragment of a report\n", false),
      ResponseBody(StatusCode::kOk, "", "the tail\n", true),
      ResponseBody(StatusCode::kDeadlineExceeded, "too slow", "", true),
      ResponseBody(StatusCode::kPermissionDenied,
                   "mine requires clearance 1", "", true),
  };
}

TEST(ProtocolMutationTest, BodyParsersEndInOkOrACleanError) {
  Mutator mutator(kSeed);
  const std::vector<Sample> requests = RequestCorpus();
  const std::vector<Sample> responses = ResponseCorpus();
  const std::vector<Sample> hellos = {
      HelloPayload(Credential("dr_lee", 2, {4, 9})),
      HelloPayload(Credential("", 0, {})),
      HelloPayload(Credential("admin", 3, {0, 1, 2, 3, 5, 8, 13})),
  };
  const auto pick = [&](const std::vector<Sample>& corpus) -> const Sample& {
    return corpus[mutator.Below(corpus.size())];
  };
  std::set<Damage> seen;
  for (int i = 0; i < 3000; ++i) {
    Damage damage;
    const std::vector<uint8_t> request =
        mutator.Mutate(pick(requests), pick(requests), &damage);
    seen.insert(damage);
    util::StatusOr<Request> parsed_request = Request::ParseTagged(request);
    ASSERT_TRUE(CleanStatus(parsed_request.status().code()))
        << "request case " << i << " (" << mutation::DamageName(damage)
        << "): " << parsed_request.status().ToString();
    if (parsed_request.ok()) {
      // Every field is read exactly, so an accepted body is canonical.
      EXPECT_EQ(*parsed_request->SerializeTagged(), request)
          << "request case " << i;
      EXPECT_EQ(PeekRequestId(request), parsed_request->request_id);
    } else {
      (void)PeekRequestId(request);  // error answers still peek the tag
    }

    const std::vector<uint8_t> response =
        mutator.Mutate(pick(responses), pick(responses), &damage);
    util::StatusOr<Response> parsed_response = Response::ParseChunk(response);
    ASSERT_TRUE(CleanStatus(parsed_response.status().code()))
        << "response case " << i << " (" << mutation::DamageName(damage)
        << "): " << parsed_response.status().ToString();
    if (parsed_response.ok()) {
      EXPECT_EQ(*parsed_response->SerializeChunk(), response)
          << "response case " << i;
    }

    const std::vector<uint8_t> hello =
        mutator.Mutate(pick(hellos), pick(hellos), &damage);
    util::StatusOr<SessionHello> parsed_hello =
        SessionHello::Parse(std::string(hello.begin(), hello.end()));
    ASSERT_TRUE(CleanStatus(parsed_hello.status().code()))
        << "hello case " << i << " (" << mutation::DamageName(damage)
        << "): " << parsed_hello.status().ToString();
    if (parsed_hello.ok()) {
      EXPECT_EQ(*parsed_hello->Serialize(),
                std::string(hello.begin(), hello.end()))
          << "hello case " << i;
    }
  }
  EXPECT_EQ(seen.size(), 4u);  // every kind of damage was dealt
}

// Feeds `stream` to a fresh assembler in dribbles and checks what it
// yields: a clean status, and the valid frame that precedes the damage
// byte for byte.
void FeedInDribbles(Mutator* mutator, uint32_t magic,
                    const std::vector<uint8_t>& stream,
                    const std::vector<uint8_t>& first_body,
                    const std::string& what) {
  FrameAssembler assembler(magic, kMaxFrameBytes);
  util::Status status;
  size_t at = 0;
  for (size_t piece : mutator->Dribble(stream.size(), 97)) {
    status = assembler.Feed(stream.data() + at, piece);
    at += piece;
    ASSERT_TRUE(status.ok() || status.code() == StatusCode::kDataLoss)
        << what << ": " << status.ToString();
    if (!status.ok()) break;
  }
  std::vector<uint8_t> body;
  ASSERT_TRUE(assembler.PopFrame(&body)) << what;
  EXPECT_EQ(body, first_body) << what;
  while (assembler.PopFrame(&body)) {
    const StatusCode code = magic == kRequestMagicV2
                                ? Request::ParseTagged(body).status().code()
                                : Response::ParseChunk(body).status().code();
    EXPECT_TRUE(CleanStatus(code)) << what;
  }
}

TEST(ProtocolMutationTest, FrameAssemblerSurvivesDribbledDamage) {
  Mutator mutator(kSeed + 1);
  struct Direction {
    uint32_t magic;
    std::vector<Sample> bodies;
  };
  const Direction directions[] = {{kRequestMagicV2, RequestCorpus()},
                                  {kResponseMagicV2, ResponseCorpus()}};
  for (const Direction& direction : directions) {
    std::vector<Sample> frames;
    for (const Sample& body : direction.bodies) {
      frames.push_back(Framed(direction.magic, body));
    }
    for (int i = 0; i < 1500; ++i) {
      // A valid frame, then damage, then another valid frame. Half the
      // cases damage the frame bytes themselves (header, size, CRC); the
      // other half damage the body and frame it with a correct CRC, so the
      // damage reaches the body parser.
      const size_t first = mutator.Below(direction.bodies.size());
      const Sample& victim = direction.bodies[mutator.Below(direction.bodies.size())];
      const Sample& donor = direction.bodies[mutator.Below(direction.bodies.size())];
      std::vector<uint8_t> stream = frames[first].bytes;
      Damage damage;
      std::vector<uint8_t> hostile;
      if (mutator.Below(2) == 0) {
        hostile = mutator.Mutate(Framed(direction.magic, victim),
                                 Framed(direction.magic, donor), &damage);
      } else {
        hostile = *EncodeFrame(direction.magic,
                               mutator.Mutate(victim, donor, &damage),
                               kMaxFrameBytes);
      }
      stream.insert(stream.end(), hostile.begin(), hostile.end());
      const std::vector<uint8_t>& tail =
          frames[mutator.Below(frames.size())].bytes;
      stream.insert(stream.end(), tail.begin(), tail.end());
      FeedInDribbles(&mutator, direction.magic, stream,
                     direction.bodies[first].bytes,
                     std::string(direction.magic == kRequestMagicV2
                                     ? "request"
                                     : "response") +
                         " case " + std::to_string(i) + " (" +
                         mutation::DamageName(damage) + ")");
      if (HasFatalFailure()) return;
    }
  }
}

// Reads response frames until the daemon closes the session. Every frame
// the daemon writes must parse; the session must end at a frame boundary.
void ExpectAnswersThenClose(int fd, const std::string& what) {
  for (;;) {
    util::StatusOr<std::vector<uint8_t>> frame =
        ReadFrame(fd, kResponseMagicV2, kMaxFrameBytes);
    if (!frame.ok()) {
      EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable)
          << what << ": " << frame.status().ToString();
      return;
    }
    util::StatusOr<Response> chunk = Response::ParseChunk(*frame);
    ASSERT_TRUE(chunk.ok()) << what << ": " << chunk.status().ToString();
  }
}

TEST(ProtocolMutationTest, LiveDaemonSessionsEndCleanly) {
  ServerOptions options;
  options.worker_threads = 2;
  ClassMinerServer daemon(options);
  ASSERT_TRUE(daemon.Start().ok());

  Mutator mutator(kSeed + 2);
  const std::vector<Sample> bodies = RequestCorpus();
  const std::vector<uint8_t> hello =
      *EncodeFrame(kRequestMagicV2, bodies[0].bytes, kMaxFrameBytes);
  const std::vector<uint8_t> health =
      *EncodeFrame(kRequestMagicV2, bodies[1].bytes, kMaxFrameBytes);
  for (int i = 0; i < 300; ++i) {
    // One session per case: a valid hello, the hostile frame, a health
    // probe; then the write side closes and the daemon must answer what it
    // can and hang up.
    const Sample& victim = bodies[mutator.Below(bodies.size())];
    const Sample& donor = bodies[mutator.Below(bodies.size())];
    Damage damage;
    std::vector<uint8_t> hostile;
    if (mutator.Below(2) == 0) {
      hostile = mutator.Mutate(Framed(kRequestMagicV2, victim),
                               Framed(kRequestMagicV2, donor), &damage);
    } else {
      hostile = *EncodeFrame(kRequestMagicV2,
                             mutator.Mutate(victim, donor, &damage),
                             kMaxFrameBytes);
    }
    const std::string what =
        "case " + std::to_string(i) + " (" + mutation::DamageName(damage) + ")";
    util::StatusOr<int> fd = ConnectTo("127.0.0.1", daemon.port());
    ASSERT_TRUE(fd.ok()) << what << ": " << fd.status().ToString();
    timeval patience{30, 0};  // a hang fails the case instead of the suite
    ASSERT_EQ(setsockopt(*fd, SOL_SOCKET, SO_RCVTIMEO, &patience,
                         sizeof(patience)),
              0);
    std::vector<uint8_t> stream = hello;
    stream.insert(stream.end(), hostile.begin(), hostile.end());
    stream.insert(stream.end(), health.begin(), health.end());
    ASSERT_TRUE(SendAll(*fd, stream.data(), stream.size()).ok()) << what;
    shutdown(*fd, SHUT_WR);
    ExpectAnswersThenClose(*fd, what);
    CloseFd(*fd);
    if (HasFatalFailure()) return;
  }

  // Still serving: a fresh session's health probe is answered.
  util::StatusOr<std::unique_ptr<PipelinedClient>> session =
      PipelinedClient::Connect("127.0.0.1", daemon.port(),
                               Credential("probe", 0, {}));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  util::StatusOr<std::string> report =
      (*session)->CallForReport(RequestKind::kHealth, {});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("status: serving"), std::string::npos);
  (*session)->Close();

  // No session outlives its peer.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (daemon.StatsSnapshot().connections_active != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(daemon.StatsSnapshot().connections_active, 0u);
  daemon.Stop();
}

}  // namespace
}  // namespace classminer::server

namespace classminer::codec {
namespace {

using mutation::Damage;
using mutation::Mutator;
using mutation::Sample;
using util::StatusCode;

constexpr uint64_t kCmvSeed = 0x32564d43;  // "CMV2"

// Crash reproducers the harness or review turned up, replayed first.
// Payload of an I-frame whose first AC run is the exp-Golomb code of
// 0xfffffffe (31 zeros, a one, 31 ones): cast to int, the run once moved
// the coefficient position below zero and indexed the zig-zag table out
// of bounds.
const std::vector<std::vector<uint8_t>>& PayloadReproducers() {
  static const std::vector<std::vector<uint8_t>> corpus = [] {
    BitWriter run_below_zero;
    run_below_zero.PutSE(0);            // DC delta
    run_below_zero.PutBit(1);           // an AC coefficient follows
    run_below_zero.PutUE(0xfffffffeu);  // its run
    run_below_zero.PutSE(5);            // its level
    // Signed exp-Golomb codes written as their unsigned mapping.
    constexpr uint32_t kMaxPositive = 0xfffffffdu;  // SE 2147483647
    constexpr uint32_t kMaxNegative = 0xfffffffeu;  // SE -2147483647
    BitWriter dc_overflow;  // the DC predictor chain overflows an int
    dc_overflow.PutUE(kMaxPositive);
    dc_overflow.PutBit(0);
    dc_overflow.PutUE(kMaxPositive);
    dc_overflow.PutBit(0);
    BitWriter far_vector;  // a P-frame motion vector far outside the plane
    far_vector.PutUE(kMaxPositive);
    far_vector.PutUE(kMaxNegative);
    return std::vector<std::vector<uint8_t>>{
        run_below_zero.Finish(), dc_overflow.Finish(), far_vector.Finish()};
  }();
  return corpus;
}

// The codes a decoder may answer hostile bytes with.
bool CleanStatus(StatusCode code) {
  return code == StatusCode::kOk || code == StatusCode::kDataLoss ||
         code == StatusCode::kInvalidArgument;
}

CmvFile SmallContainer(int width, int height, int frames, int gop_size,
                       bool checksums, uint64_t seed) {
  util::Rng rng(seed);
  media::Video video("mutant", 12.0);
  media::Image base(width, height);
  media::FillGradient(&base, media::Rgb{40, 80, 160}, media::Rgb{10, 20, 60});
  media::FillEllipse(&base, width / 2, height / 2, width / 4, height / 4,
                     media::Rgb{210, 160, 120});
  for (int i = 0; i < frames; ++i) {
    media::Image frame = media::Translated(base, i % 5, i / 3);
    media::AddNoise(&frame, 12, &rng);
    video.AppendFrame(std::move(frame));
  }
  EncoderOptions options;
  options.gop_size = gop_size;
  CmvFile file = EncodeVideo(video, options);
  file.record_checksums = checksums;
  file.audio_sample_rate = 8000;
  file.audio_pcm.assign(48, 0.25f);
  return file;
}

std::vector<CmvFile> CmvCorpus() {
  return {SmallContainer(24, 16, 12, 4, true, 1),
          SmallContainer(33, 19, 9, 3, false, 2),
          SmallContainer(40, 32, 8, 8, true, 3)};
}

// The container's bytes with its name length, frame count, every payload
// size, the audio sample count and the GOP index count marked.
Sample ContainerSample(const CmvFile& file) {
  Sample sample{file.Serialize(), {4}};
  size_t at = 4 + 4 + file.name.size() + 4 + 4 + 8 + 4 + 4;
  sample.length_fields.push_back(at);
  at += 4;
  for (const FrameRecord& rec : file.frames) {
    sample.length_fields.push_back(at + 1);
    at += 1 + 4 + rec.payload.size() + (file.record_checksums ? 4 : 0);
  }
  sample.length_fields.push_back(at + 4);
  at += 8 + 4 * file.audio_pcm.size();
  if (!file.gop_index.empty()) sample.length_fields.push_back(at + 4);
  return sample;
}

std::string Hex(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

uint32_t FramesCrc(const std::vector<media::Image>& frames) {
  uint32_t crc = 0;
  for (const media::Image& f : frames) {
    crc = util::Crc32(reinterpret_cast<const uint8_t*>(f.pixels().data()),
                      f.pixels().size() * sizeof(media::Rgb), crc);
  }
  return crc;
}

// What the DC decode and GopReader make of `file` (decoders without a
// pool), rendered for comparison; fails the test on an unclean status.
std::string SerialOutcome(const CmvFile& file, const std::string& what) {
  std::string out;
  util::SalvageReport report;
  const util::StatusOr<std::vector<media::GrayImage>> dcs =
      DecodeDcImagesSalvage(file, &report);
  EXPECT_TRUE(CleanStatus(dcs.status().code()))
      << what << ": DC " << dcs.status().ToString();
  out += "dc " + dcs.status().ToString();
  if (dcs.ok()) {
    uint32_t crc = 0;
    for (const media::GrayImage& dc : *dcs) crc = util::Crc32(dc.pixels(), crc);
    out += " " + Hex(crc);
  }
  for (const std::string& note : report.notes) out += "\n  " + note;
  const util::StatusOr<GopReader> reader = GopReader::Create(&file);
  out += "\ngops " + reader.status().ToString();
  if (!reader.ok()) return out;
  for (int g = 0; g < reader->gop_count(); ++g) {
    const util::StatusOr<std::vector<media::Image>> frames =
        reader->DecodeGop(g);
    EXPECT_TRUE(CleanStatus(frames.status().code()))
        << what << ": GOP " << g << " " << frames.status().ToString();
    out += " | " + frames.status().ToString();
    if (frames.ok()) out += " " + Hex(FramesCrc(*frames));
  }
  return out;
}

std::string VideoOutcome(const CmvFile& file, const util::ExecutionContext& ctx,
                         const std::string& what) {
  const util::StatusOr<media::Video> video = DecodeVideo(file, ctx);
  EXPECT_TRUE(CleanStatus(video.status().code()))
      << what << ": " << video.status().ToString();
  std::string out = "video " + video.status().ToString();
  if (video.ok()) {
    uint32_t crc = 0;
    for (int i = 0; i < video->frame_count(); ++i) {
      const media::Image& f = video->frame(i);
      crc = util::Crc32(reinterpret_cast<const uint8_t*>(f.pixels().data()),
                        f.pixels().size() * sizeof(media::Rgb), crc);
    }
    out += " " + std::to_string(video->frame_count()) + " " + Hex(crc);
  }
  return out;
}

// Decodes `file` every way at every dispatch level; all must agree.
void DecodeEveryWay(const CmvFile& file, util::ThreadPool* pool,
                    const std::string& what) {
  // Dimensions a flipped header bit can reach are allowed up to 16384^2;
  // a decode that large is legitimate but too costly per case.
  if (static_cast<int64_t>(file.width) * file.height > (int64_t{1} << 20)) {
    return;
  }
  std::string first;
  for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
    util::SetDispatchLevelForTest(level);
    const std::string serial = SerialOutcome(file, what);
    for (util::ThreadPool* width :
         {static_cast<util::ThreadPool*>(nullptr), pool}) {
      const std::string got =
          VideoOutcome(file, util::ExecutionContext(width), what) + "\n" +
          serial;
      if (first.empty()) first = got;
      EXPECT_EQ(got, first)
          << what << " at " << util::DispatchLevelName(level) << ", width "
          << (width == nullptr ? 1 : width->thread_count());
    }
    util::ClearDispatchLevelForTest();
  }
}

TEST(CmvMutationTest, ContainerBytesParseAndDecodeCleanly) {
  Mutator mutator(kCmvSeed);
  util::ThreadPool pool(4);
  std::vector<Sample> corpus;
  for (const CmvFile& file : CmvCorpus()) corpus.push_back(ContainerSample(file));
  std::set<Damage> seen;
  int decoded = 0;
  for (int i = 0; i < 2000; ++i) {
    Damage damage;
    const std::vector<uint8_t> bytes =
        mutator.Mutate(corpus[mutator.Below(corpus.size())],
                       corpus[mutator.Below(corpus.size())], &damage);
    seen.insert(damage);
    const std::string what = "container case " + std::to_string(i) + " (" +
                             mutation::DamageName(damage) + ")";
    const util::StatusOr<CmvFile> strict = CmvFile::Parse(bytes);
    ASSERT_TRUE(CleanStatus(strict.status().code()))
        << what << ": " << strict.status().ToString();
    util::SalvageReport report;
    const util::StatusOr<CmvFile> salvaged =
        CmvFile::ParseBestEffort(bytes, &report);
    ASSERT_TRUE(CleanStatus(salvaged.status().code()))
        << what << ": " << salvaged.status().ToString();
    if (strict.ok()) DecodeEveryWay(*strict, &pool, what + " strict");
    if (salvaged.ok()) {
      DecodeEveryWay(*salvaged, &pool, what + " salvaged");
      ++decoded;
    }
    if (HasFailure()) return;
  }
  EXPECT_EQ(seen.size(), 4u);  // every kind of damage was dealt
  EXPECT_GT(decoded, 200);     // the damage left plenty to decode
}

TEST(CmvMutationTest, FramePayloadsDecodeCleanly) {
  Mutator mutator(kCmvSeed + 1);
  util::ThreadPool pool(4);
  const std::vector<CmvFile> corpus = CmvCorpus();
  // Reproducers first, as the payload of every frame in turn.
  for (size_t r = 0; r < PayloadReproducers().size(); ++r) {
    for (size_t f = 0; f < corpus[0].frames.size(); ++f) {
      CmvFile file = corpus[0];
      file.frames[f].payload = PayloadReproducers()[r];
      DecodeEveryWay(file, &pool,
                     "reproducer " + std::to_string(r) + " at frame " +
                         std::to_string(f));
    }
  }
  std::set<Damage> seen;
  for (int i = 0; i < 2000; ++i) {
    CmvFile file = corpus[mutator.Below(corpus.size())];
    const uint64_t hits = 1 + mutator.Below(3);
    Damage damage = Damage::kBitFlip;
    for (uint64_t h = 0; h < hits; ++h) {
      FrameRecord& victim = file.frames[mutator.Below(file.frames.size())];
      const FrameRecord& donor = file.frames[mutator.Below(file.frames.size())];
      victim.payload = mutator.Mutate(Sample{victim.payload, {}},
                                      Sample{donor.payload, {}}, &damage);
      seen.insert(damage);
      if (mutator.Below(16) == 0) {
        victim.type = victim.type == FrameType::kIntra ? FrameType::kPredicted
                                                       : FrameType::kIntra;
      }
    }
    DecodeEveryWay(file, &pool,
                   "payload case " + std::to_string(i) + " (" +
                       mutation::DamageName(damage) + ")");
    if (HasFailure()) return;
  }
  EXPECT_EQ(seen.size(), 3u);  // bare payloads carry no length fields
}

}  // namespace
}  // namespace classminer::codec

namespace classminer::index {
namespace {

using mutation::Damage;
using mutation::Mutator;
using mutation::Sample;
using util::StatusCode;

constexpr uint64_t kPersistSeed = 0x4c534d43;  // "CMSL"
constexpr uint32_t kTombstoneMagic = 0x54564d43;  // "CMVT"
constexpr size_t kLogHeaderBytes = 24;

// The codes a database reader may answer hostile bytes with (kNotFound:
// a manifest that lies about the shard count names logs that do not
// exist).
bool CleanStatus(StatusCode code) {
  return code == StatusCode::kOk || code == StatusCode::kDataLoss ||
         code == StatusCode::kInvalidArgument ||
         code == StatusCode::kNotFound;
}

void PutFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

void RemoveLibrary(const std::string& path) {
  for (const std::string& file :
       {path, path + ".tmp", DatabaseBackupPath(path)}) {
    std::remove(file.c_str());
  }
  for (int k = 0; k < 4; ++k) {
    std::remove(ShardPath(path, k).c_str());
    std::remove(ShardBackupPath(path, k).c_str());
    std::remove((ShardPath(path, k) + ".tmp").c_str());
  }
}

// Entries with every counted element present (shots with features, groups
// with clusters, scenes, scene clusters, events), seeded.
VideoDatabase PersistDatabase(uint64_t seed, int videos) {
  util::Rng rng(seed);
  VideoDatabase db;
  for (int v = 0; v < videos; ++v) {
    structure::ContentStructure cs;
    for (int i = 0; i < 3; ++i) {
      shot::Shot s;
      s.index = i;
      s.start_frame = 10 * i;
      s.end_frame = 10 * i + 9;
      s.rep_frame = 10 * i + 4;
      for (double& x : s.features.histogram) x = rng.Uniform(0.0, 1.0);
      for (double& x : s.features.tamura) x = rng.Uniform(0.0, 1.0);
      cs.shots.push_back(s);
    }
    for (int g = 0; g < 2; ++g) {
      structure::Group group;
      group.index = g;
      group.start_shot = g;
      group.end_shot = g + 1;
      group.temporally_related = g == 1;
      group.clusters.push_back({{g, g + 1}, g});
      if (g == 1) group.clusters.push_back({{2}, 2});
      group.rep_shots = {g};
      cs.groups.push_back(group);
      structure::Scene scene;
      scene.index = g;
      scene.start_group = g;
      scene.end_group = g;
      scene.rep_group = g;
      cs.scenes.push_back(scene);
    }
    cs.clustered_scenes.push_back({{0, 1}, 0});
    std::vector<events::EventRecord> events(2);
    events[0].scene_index = 0;
    events[0].type = events::EventType::kDialog;
    events[1].scene_index = 1;
    events[1].type = events::EventType::kClinicalOperation;
    events[1].has_blood = true;
    db.AddVideo("video" + std::to_string(seed) + "_" + std::to_string(v),
                std::move(cs), std::move(events), v == 1);
  }
  return db;
}

// Marks every u32 count of the entry body at `at` (the entry codec's
// layout) and returns the offset just past the body.
size_t MarkBodyCounts(const VideoEntry& v, size_t at,
                      std::vector<size_t>* fields) {
  const structure::ContentStructure& cs = v.structure;
  fields->push_back(at);  // name length
  at += 4 + v.name.size();
  fields->push_back(at);  // shots
  at += 4 + cs.shots.size() * (16 + sizeof(features::ColorHistogram) +
                               sizeof(features::TamuraVector));
  fields->push_back(at);  // groups
  at += 4;
  for (const structure::Group& g : cs.groups) {
    at += 13;
    fields->push_back(at);  // shot clusters
    at += 4;
    for (const structure::ShotCluster& c : g.clusters) {
      fields->push_back(at);  // cluster shot indices
      at += 4 + 4 * c.shot_indices.size() + 4;
    }
    fields->push_back(at);  // rep shots
    at += 4 + 4 * g.rep_shots.size();
  }
  fields->push_back(at);  // scenes
  at += 4 + 17 * cs.scenes.size();
  fields->push_back(at);  // scene clusters
  at += 4;
  for (const structure::SceneCluster& c : cs.clustered_scenes) {
    fields->push_back(at);  // scene cluster indices
    at += 4 + 4 * c.scene_indices.size() + 4;
  }
  fields->push_back(at);  // events
  return at + 4 + 23 * v.events.size() + 1;
}

// Recomputes the CRC of every record frame from `at` on whose magic and
// size are still intact, so damage behind them reaches the entry parser.
void ResealFrames(std::vector<uint8_t>* bytes, size_t at) {
  while (at + 12 <= bytes->size()) {
    const uint32_t magic = Mutator::ReadU32(*bytes, at);
    const uint32_t size = Mutator::ReadU32(*bytes, at + 4);
    if ((magic != internal::kEntryFrameMagic && magic != kTombstoneMagic) ||
        size > bytes->size() - at - 12) {
      return;
    }
    Mutator::WriteU32(bytes, at + 8,
                      util::Crc32(bytes->data() + at + 12, size));
    at += 12 + size;
  }
}

// A legacy CMDB file of `db` at `version`, its video count and every count
// in every entry marked (and, for v3, each frame's body size).
Sample LegacySample(const VideoDatabase& db, uint32_t version) {
  Sample sample{legacy_cmdb::Serialize(db, version), {8}};
  size_t at = 12;
  for (int v = 0; v < db.video_count(); ++v) {
    if (version >= 3) {
      sample.length_fields.push_back(at + 4);
      at += 12;
    }
    at = MarkBodyCounts(db.video(v), at, &sample.length_fields);
    if (version < 2) at -= 1;  // v1 bodies carry no degraded flag
  }
  EXPECT_EQ(at, sample.bytes.size()) << "v" << version;
  return sample;
}

// The shard-0 log of a 1-shard library holding `db` plus a tombstone for
// its first entry: the header's shard count, each frame's body size and
// every count in every entry marked.
Sample ShardLogSample(const VideoDatabase& db) {
  util::ByteWriter w;
  w.PutU32(0x4c534d43);  // "CMSL"
  w.PutU32(1);           // log version
  w.PutU32(0);           // shard index
  w.PutU32(1);           // shard count
  w.PutU64(1);           // generation
  Sample sample{{}, {12}};
  for (int v = 0; v < db.video_count(); ++v) {
    sample.length_fields.push_back(w.size() + 4);
    const size_t end =
        MarkBodyCounts(db.video(v), w.size() + 12, &sample.length_fields);
    internal::PutFramedEntry(&w, db.video(v));
    EXPECT_EQ(end, w.size());
  }
  util::ByteWriter name;
  name.PutString(db.video(0).name);
  sample.length_fields.push_back(w.size() + 4);
  sample.length_fields.push_back(w.size() + 12);
  w.PutU32(kTombstoneMagic);
  w.PutU32(static_cast<uint32_t>(name.size()));
  w.PutU32(util::Crc32(name.bytes()));
  w.PutBytes(name.bytes().data(), name.size());
  sample.bytes = w.Release();
  return sample;
}

std::vector<uint8_t> ValidManifest(uint32_t shard_count) {
  ShardManifest m;
  m.shard_count = shard_count;
  m.epoch = 1;
  m.shards.resize(shard_count);
  for (ShardManifest::Shard& s : m.shards) s.generation = 1;
  return SerializeShardManifest(m);
}

TEST(PersistMutationTest, LegacyCmdbImportEndsCleanly) {
  Mutator mutator(kPersistSeed);
  std::vector<Sample> corpus;
  std::vector<uint32_t> versions;
  for (uint32_t version = 1; version <= 3; ++version) {
    for (uint64_t seed : {1u, 2u}) {
      corpus.push_back(LegacySample(PersistDatabase(seed, 3), version));
      versions.push_back(version);
    }
  }
  const std::string path = ::testing::TempDir() + "/mutation_legacy.cmdb";
  RemoveLibrary(path);
  std::set<Damage> seen;
  int imported = 0;
  for (int i = 0; i < 3000; ++i) {
    const size_t pick = mutator.Below(corpus.size());
    Damage damage;
    std::vector<uint8_t> bytes = mutator.Mutate(
        corpus[pick], corpus[mutator.Below(corpus.size())], &damage);
    if (versions[pick] == 3 && mutator.Below(2) == 0) ResealFrames(&bytes, 12);
    seen.insert(damage);
    const std::string what = "legacy case " + std::to_string(i) + " (v" +
                             std::to_string(versions[pick]) + ", " +
                             mutation::DamageName(damage) + ")";
    const util::StatusOr<VideoDatabase> strict = ParseDatabase(bytes);
    ASSERT_TRUE(CleanStatus(strict.status().code()))
        << what << ": " << strict.status().ToString();
    util::SalvageReport report;
    const util::StatusOr<VideoDatabase> salvaged =
        ParseDatabaseSalvage(bytes, &report);
    ASSERT_TRUE(CleanStatus(salvaged.status().code()))
        << what << ": " << salvaged.status().ToString();
    if (i % 8 == 0) {
      // The file-level import, with the pristine encoding (or another
      // damaged one) as the previous generation now and then.
      PutFile(path, bytes);
      if (mutator.Below(2) == 0) {
        PutFile(DatabaseBackupPath(path),
                mutator.Mutate(corpus[pick], corpus[pick]));
      } else {
        std::remove(DatabaseBackupPath(path).c_str());
      }
      const util::StatusOr<OpenResult> opened =
          OpenDatabaseAnyGeneration(path, nullptr);
      ASSERT_TRUE(CleanStatus(opened.status().code()))
          << what << ": " << opened.status().ToString();
      (void)VerifyDatabaseFile(path);
      if (opened.ok()) ++imported;
    }
    if (HasFailure()) return;
  }
  RemoveLibrary(path);
  EXPECT_EQ(seen.size(), 4u);  // every kind of damage was dealt
  EXPECT_GT(imported, 40);     // the damage left plenty to import
}

TEST(PersistMutationTest, ShardLogsOpenCleanly) {
  Mutator mutator(kPersistSeed + 1);
  std::vector<Sample> corpus;
  for (uint64_t seed : {3u, 4u}) {
    corpus.push_back(ShardLogSample(PersistDatabase(seed, 3)));
  }
  const std::string path = ::testing::TempDir() + "/mutation_shardlog.cmdb";
  std::set<Damage> seen;
  int opened_with_entries = 0;
  for (int i = 0; i < 1200; ++i) {
    RemoveLibrary(path);
    const size_t pick = mutator.Below(corpus.size());
    Damage damage;
    std::vector<uint8_t> log = mutator.Mutate(
        corpus[pick], corpus[mutator.Below(corpus.size())], &damage);
    if (mutator.Below(2) == 0) ResealFrames(&log, kLogHeaderBytes);
    seen.insert(damage);
    const std::string what = "shard log case " + std::to_string(i) + " (" +
                             mutation::DamageName(damage) + ")";
    PutFile(path, ValidManifest(1));
    PutFile(ShardPath(path, 0), log);
    // Half the time the pristine log is there to fall back to.
    if (mutator.Below(2) == 0) {
      PutFile(ShardBackupPath(path, 0), corpus[pick].bytes);
    }

    const util::StatusOr<VideoDatabase> strict = LoadDatabase(path);
    ASSERT_TRUE(CleanStatus(strict.status().code()))
        << what << ": " << strict.status().ToString();
    (void)VerifyDatabaseFile(path);
    {
      const util::StatusOr<std::unique_ptr<ShardedDatabase>> read_only =
          ShardedDatabase::Open(path, nullptr, nullptr, /*read_only=*/true);
      ASSERT_TRUE(CleanStatus(read_only.status().code()))
          << what << ": " << read_only.status().ToString();
      if (read_only.ok() && (*read_only)->live_count() > 0) {
        ++opened_with_entries;
      }
    }
    if (i % 8 == 0) {
      // Read-write: truncates torn tails and heals the shard on the next
      // append; the library must verify clean afterwards.
      util::StatusOr<std::unique_ptr<ShardedDatabase>> db =
          ShardedDatabase::Open(path);
      ASSERT_TRUE(CleanStatus(db.status().code()))
          << what << ": " << db.status().ToString();
      if (db.ok()) {
        VideoDatabase extra = PersistDatabase(9, 1);
        VideoEntry entry = extra.video(0);
        ASSERT_TRUE((*db)
                        ->Upsert(entry.name, entry.structure, entry.events,
                                 entry.degraded)
                        .ok())
            << what;
        db->reset();
        const VerifyReport verify = VerifyDatabaseFile(path);
        EXPECT_TRUE(verify.loadable) << what << ": " << verify.ToString();
      }
    }
    if (HasFailure()) return;
  }
  RemoveLibrary(path);
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_GT(opened_with_entries, 100);
}

TEST(PersistMutationTest, ManifestBytesParseAndOpenCleanly) {
  Mutator mutator(kPersistSeed + 2);
  std::vector<Sample> corpus;
  for (uint32_t count : {1u, 2u, 3u}) {
    corpus.push_back(Sample{ValidManifest(count), {8}});
  }
  // A 2-shard library whose logs stay pristine; only the root is damaged.
  const std::string path = ::testing::TempDir() + "/mutation_manifest.cmdb";
  RemoveLibrary(path);
  ASSERT_TRUE(SaveShardedDatabase(PersistDatabase(5, 4), path, 2).ok());
  std::set<Damage> seen;
  for (int i = 0; i < 1000; ++i) {
    Damage damage;
    std::vector<uint8_t> bytes =
        mutator.Mutate(corpus[mutator.Below(corpus.size())],
                       corpus[mutator.Below(corpus.size())], &damage);
    if (bytes.size() >= 4 && mutator.Below(2) == 0) {
      Mutator::WriteU32(&bytes, bytes.size() - 4,
                        util::Crc32(bytes.data(), bytes.size() - 4));
    }
    seen.insert(damage);
    const std::string what = "manifest case " + std::to_string(i) + " (" +
                             mutation::DamageName(damage) + ")";
    const util::StatusOr<ShardManifest> parsed = ParseShardManifest(bytes);
    ASSERT_TRUE(CleanStatus(parsed.status().code()))
        << what << ": " << parsed.status().ToString();

    PutFile(path, bytes);
    const util::StatusOr<VideoDatabase> strict = LoadDatabase(path);
    ASSERT_TRUE(CleanStatus(strict.status().code()))
        << what << ": " << strict.status().ToString();
    (void)VerifyDatabaseFile(path);
    const util::StatusOr<std::unique_ptr<ShardedDatabase>> opened =
        ShardedDatabase::Open(path, nullptr, nullptr, /*read_only=*/true);
    ASSERT_TRUE(CleanStatus(opened.status().code()))
        << what << ": " << opened.status().ToString();
    if (HasFailure()) return;
  }
  RemoveLibrary(path);
  EXPECT_EQ(seen.size(), 4u);
}

}  // namespace
}  // namespace classminer::index
