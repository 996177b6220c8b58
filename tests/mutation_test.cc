// Hostile-input harness, protocol slice: valid request and response frames
// are damaged by the seeded mutator (tests/mutator.h) and fed to every
// layer that reads them from a peer — the incremental frame assembler in
// dribbles, the body parsers, and live daemon sessions. Each case must end
// in OK or a clean error status, never a crash, a hang or a sanitizer
// report; the daemon must keep serving and leak no session.

#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "mutator.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/wire.h"

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
