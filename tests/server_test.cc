// classminerd end-to-end: wire framing, the session handshake, the
// per-session permission matrix, admission control, deadlines, graceful
// drain, and byte-identity between server responses and the shared
// operation layer the CLI prints from.

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/cmv_pipeline.h"
#include "gtest/gtest.h"
#include "index/database.h"
#include "index/persist.h"
#include "index/shard.h"
#include "legacy_cmdb.h"
#include "server/client.h"
#include "server/ops.h"
#include "server/protocol.h"
#include "server/scrubber.h"
#include "server/server.h"
#include "server/wire.h"
#include "synth/corpus.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/retry.h"

namespace classminer::server {
namespace {

using util::Status;
using util::StatusCode;

std::string TestContainer(const std::string& name, uint64_t seed) {
  const std::string path = ::testing::TempDir() + "/" + name;
  const synth::GeneratedVideo g = synth::GenerateVideo(synth::QuickScript(seed));
  const codec::CmvFile file = core::PackGeneratedVideo(g);
  EXPECT_TRUE(file.SaveToFile(path).ok());
  return path;
}

SessionHello MakeHello(const std::string& user, int clearance) {
  SessionHello hello;
  hello.user = user;
  hello.clearance = clearance;
  return hello;
}

// One request frame as it travels on the wire.
std::vector<uint8_t> RequestFrame(RequestKind kind, uint32_t request_id,
                                  std::vector<std::string> args = {}) {
  Request request;
  request.kind = kind;
  request.request_id = request_id;
  request.args = std::move(args);
  return *EncodeFrame(kRequestMagicV2, *request.SerializeTagged(),
                      kMaxFrameBytes);
}

// Reads and parses one response chunk frame off a raw socket.
util::StatusOr<Response> ReadChunk(int fd) {
  util::StatusOr<std::vector<uint8_t>> frame =
      ReadFrame(fd, kResponseMagicV2, kMaxFrameBytes);
  if (!frame.ok()) return frame.status();
  return Response::ParseChunk(*frame);
}

// ---------------------------------------------------------------------------
// Protocol serialization

TEST(ProtocolTest, ResponseRoundTripIncludingNewCode) {
  Response response;
  response.code = StatusCode::kDeadlineExceeded;
  response.message = "too slow";
  response.body = "partial report\n";
  response.request_id = 9;
  util::StatusOr<std::vector<uint8_t>> bytes = response.SerializeChunk();
  ASSERT_TRUE(bytes.ok());
  util::StatusOr<Response> parsed = Response::ParseChunk(*bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(parsed->message, "too slow");
  EXPECT_EQ(parsed->body, "partial report\n");
  EXPECT_EQ(parsed->request_id, 9u);
  EXPECT_TRUE(parsed->final_chunk);
}

TEST(ProtocolTest, HelloRoundTripCarriesCredential) {
  SessionHello hello = MakeHello("dr_lee", 2);
  hello.denied_nodes = {4, 9};
  util::StatusOr<std::string> bytes = hello.Serialize();
  ASSERT_TRUE(bytes.ok());
  util::StatusOr<SessionHello> parsed = SessionHello::Parse(*bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->user, "dr_lee");
  EXPECT_EQ(parsed->clearance, 2);
  const index::UserCredential credential = parsed->ToCredential();
  EXPECT_EQ(credential.name, "dr_lee");
  EXPECT_EQ(credential.clearance, 2);
  EXPECT_EQ(credential.denied_nodes.count(4), 1u);
  EXPECT_EQ(credential.denied_nodes.count(9), 1u);
}

TEST(ProtocolTest, ParseRejectsDamage) {
  Request request;
  request.kind = RequestKind::kSkim;
  request.args = {"a.cmv"};
  std::vector<uint8_t> bytes = *request.SerializeTagged();
  // Unknown kind byte (offset: request_id 4).
  std::vector<uint8_t> bad_kind = bytes;
  bad_kind[4] = 0x7f;
  EXPECT_FALSE(Request::ParseTagged(bad_kind).ok());
  // Truncation inside the argument list.
  std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 6);
  EXPECT_FALSE(Request::ParseTagged(truncated).ok());
  // Trailing junk after a well-formed request.
  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(Request::ParseTagged(trailing).ok());
  // An arg count claiming more entries than the frame could hold.
  std::vector<uint8_t> lying = bytes;
  lying[9] = 0xff;  // arg count low byte (request_id 4 + kind 1 + deadline 4)
  EXPECT_FALSE(Request::ParseTagged(lying).ok());

  std::vector<uint8_t> resp_bytes =
      *MakeResponse(Status::Ok()).SerializeChunk();
  resp_bytes[5] = 0xee;  // out-of-range status code (request_id 4 + flags 1)
  EXPECT_FALSE(Response::ParseChunk(resp_bytes).ok());
}

TEST(ProtocolTest, RequestKindNamesRoundTrip) {
  for (int k = 0; k < kRequestKindCount; ++k) {
    const RequestKind kind = static_cast<RequestKind>(k);
    util::StatusOr<RequestKind> parsed =
        ParseRequestKind(RequestKindName(kind));
    ASSERT_TRUE(parsed.ok()) << RequestKindName(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseRequestKind("reboot").ok());
}

// ---------------------------------------------------------------------------
// Wire framing over a socketpair: short reads/writes must resume.

TEST(WireTest, FrameSurvivesDribbledDelivery) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  Request request;
  request.kind = RequestKind::kBrowse;
  request.args = {std::string(10000, 'x'), "--strict"};
  std::vector<uint8_t> body = *request.SerializeTagged();

  // Frame bytes trickled a few at a time across many send() calls: the
  // reader's RecvAll must resume across every short read.
  std::thread writer([&] {
    uint8_t header[12];
    const uint32_t size = static_cast<uint32_t>(body.size());
    const uint32_t crc = util::Crc32(body);
    for (int i = 0; i < 4; ++i) {
      header[i] = static_cast<uint8_t>((kRequestMagicV2 >> (8 * i)) & 0xff);
      header[4 + i] = static_cast<uint8_t>((size >> (8 * i)) & 0xff);
      header[8 + i] = static_cast<uint8_t>((crc >> (8 * i)) & 0xff);
    }
    std::vector<uint8_t> frame(header, header + 12);
    frame.insert(frame.end(), body.begin(), body.end());
    for (size_t off = 0; off < frame.size(); off += 7) {
      const size_t n = std::min<size_t>(7, frame.size() - off);
      ASSERT_TRUE(SendAll(fds[1], frame.data() + off, n).ok());
    }
    close(fds[1]);
  });

  util::StatusOr<std::vector<uint8_t>> got =
      ReadFrame(fds[0], kRequestMagicV2, kMaxFrameBytes);
  writer.join();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, body);
  close(fds[0]);
}

TEST(WireTest, CorruptFrameIsDataLossAndHangupIsUnavailable) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::vector<uint8_t> body = {1, 2, 3, 4};
  ASSERT_TRUE(WriteFrame(fds[1], kRequestMagicV2, body, kMaxFrameBytes).ok());
  // Wrong expected magic -> kDataLoss.
  util::StatusOr<std::vector<uint8_t>> got =
      ReadFrame(fds[0], kResponseMagicV2, kMaxFrameBytes);
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
  close(fds[0]);
  close(fds[1]);

  // Peer hangup before any byte -> kUnavailable (normal close); hangup
  // mid-frame -> kDataLoss (a torn frame is damage, not a clean goodbye).
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  close(fds[1]);
  got = ReadFrame(fds[0], kRequestMagicV2, kMaxFrameBytes);
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  close(fds[0]);

  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const uint8_t partial[3] = {0x43, 0x4d, 0x51};  // first bytes of "CMQ2"
  ASSERT_TRUE(SendAll(fds[1], partial, sizeof(partial)).ok());
  close(fds[1]);
  got = ReadFrame(fds[0], kRequestMagicV2, kMaxFrameBytes);
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
  close(fds[0]);
}

TEST(WireTest, OversizedFrameRefusedBothSides) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::vector<uint8_t> big(1024);
  EXPECT_EQ(WriteFrame(fds[1], kRequestMagicV2, big, 512).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(WriteFrame(fds[1], kRequestMagicV2, big, 4096).ok());
  EXPECT_EQ(ReadFrame(fds[0], kRequestMagicV2, 512).status().code(),
            StatusCode::kDataLoss);
  close(fds[0]);
  close(fds[1]);
}

// ---------------------------------------------------------------------------
// Server end-to-end

using Session = util::StatusOr<std::unique_ptr<PipelinedClient>>;

class ServerTest : public ::testing::Test {
 protected:
  // Starts a server with `options` (host/port forced to loopback/ephemeral).
  void StartServer(ServerOptions options = {}) {
    options.host = "127.0.0.1";
    options.port = 0;
    server_ = std::make_unique<ClassMinerServer>(std::move(options));
    ASSERT_TRUE(server_->Start().ok());
  }

  Session Connect(const SessionHello& hello) {
    return PipelinedClient::Connect("127.0.0.1", server_->port(), hello);
  }

  std::unique_ptr<ClassMinerServer> server_;
};

TEST_F(ServerTest, HelloRequiredBeforeAnyRequest) {
  StartServer();
  util::StatusOr<int> fd = ConnectTo("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  const std::vector<uint8_t> request =
      RequestFrame(RequestKind::kVerify, 1, {"whatever.cmdb"});
  ASSERT_TRUE(SendAll(*fd, request.data(), request.size()).ok());
  util::StatusOr<Response> response = ReadChunk(*fd);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->request_id, 1u);
  EXPECT_EQ(response->code, StatusCode::kFailedPrecondition);
  CloseFd(*fd);
}

TEST_F(ServerTest, PermissionMatrixOverAllRequestKinds) {
  const std::string cmv = TestContainer("perm.cmv", 3);
  StartServer();
  // Default clearance floor per kind: mine 1, browse 0, skim 0,
  // verify 2, repair 3.
  const struct {
    RequestKind kind;
    int required;
    std::vector<std::string> args;
  } kCases[] = {
      {RequestKind::kMine, 1, {cmv}},
      {RequestKind::kBrowse, 0, {cmv}},
      {RequestKind::kSkim, 0, {cmv}},
      {RequestKind::kVerify, 2, {"absent.cmdb"}},
      {RequestKind::kRepair, 3, {"absent.cmdb"}},
  };
  for (int clearance = 0; clearance <= 3; ++clearance) {
    Session client =
        Connect(MakeHello("matrix", clearance));
    ASSERT_TRUE(client.ok());
    for (const auto& c : kCases) {
      Request request;
      request.kind = c.kind;
      request.args = c.args;
      util::StatusOr<Response> response = (*client)->Call(request);
      ASSERT_TRUE(response.ok()) << RequestKindName(c.kind);
      if (clearance < c.required) {
        EXPECT_EQ(response->code, StatusCode::kPermissionDenied)
            << RequestKindName(c.kind) << " at clearance " << clearance;
      } else {
        EXPECT_NE(response->code, StatusCode::kPermissionDenied)
            << RequestKindName(c.kind) << " at clearance " << clearance;
      }
    }
  }
  const ServerStats stats = server_->StatsSnapshot();
  // clearance 0 denies mine+verify+repair, 1 denies verify+repair,
  // 2 denies repair, 3 denies nothing.
  EXPECT_EQ(stats.permission_denied, 6u);
}

TEST_F(ServerTest, RootDenialDisablesTheAccount) {
  const std::string cmv = TestContainer("denied.cmv", 4);
  StartServer();
  SessionHello hello = MakeHello("blocked", 3);
  hello.denied_nodes = {0};  // denied the concept root
  Session client = Connect(hello);
  ASSERT_TRUE(client.ok());
  util::StatusOr<std::string> report =
      (*client)->CallForReport(RequestKind::kBrowse, {cmv});
  EXPECT_EQ(report.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(ServerTest, ResponsesByteIdenticalToOpsLayerAcross8Clients) {
  const std::string cmv = TestContainer("identity.cmv", 7);
  StartServer();

  // The expected bytes are what the CLI prints: the shared ops layer.
  const OpEnv env;
  const OpResult mine = MineOp(cmv, /*fast=*/false, /*strict=*/false, env,
                               nullptr);
  ASSERT_TRUE(mine.ok());
  const OpResult skim = SkimOp(cmv, 3, env, nullptr);
  ASSERT_TRUE(skim.ok());
  index::UserCredential user;
  user.name = "reader";
  user.clearance = 3;
  const OpResult browse = BrowseOp({cmv}, /*strict=*/false, user, env,
                                   nullptr);
  ASSERT_TRUE(browse.ok());

  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Session client = Connect(MakeHello("reader", 3));
      if (!client.ok()) {
        ++mismatches;
        return;
      }
      const struct {
        RequestKind kind;
        std::vector<std::string> args;
        const std::string* want;
      } kCalls[] = {
          {RequestKind::kMine, {cmv}, &mine.report},
          {RequestKind::kSkim, {cmv, "3"}, &skim.report},
          {RequestKind::kBrowse, {cmv}, &browse.report},
      };
      // Stagger which call each client starts with, so all five kinds are
      // in flight together.
      for (int j = 0; j < 3; ++j) {
        const auto& call = kCalls[(i + j) % 3];
        util::StatusOr<std::string> got =
            (*client)->CallForReport(call.kind, call.args);
        if (!got.ok() || *got != *call.want) ++mismatches;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ServerStats stats = server_->StatsSnapshot();
  // Hellos are answered before dispatch; the 3 ops per client all succeed.
  EXPECT_EQ(stats.requests_ok, static_cast<uint64_t>(kClients * 3));
}

TEST_F(ServerTest, AdmissionControlRejectsPastTheQueueBound) {
  const std::string cmv = TestContainer("admission.cmv", 9);

  std::promise<void> first_started;
  std::promise<void> release_first;
  std::shared_future<void> release(release_first.get_future());
  std::atomic<int> started{0};

  ServerOptions options;
  options.worker_threads = 1;
  options.max_queue = 1;
  // All three clients skim the same container; with the cache on, B and C
  // would join A's single flight and never face admission control.
  options.enable_result_cache = false;
  options.request_started_hook = [&](RequestKind) {
    if (started.fetch_add(1) == 0) {
      first_started.set_value();
      release.wait();  // holds the only worker busy
    }
  };
  StartServer(std::move(options));

  // Request A occupies the worker.
  Session a = Connect(MakeHello("a", 3));
  ASSERT_TRUE(a.ok());
  std::thread blocked([&] {
    (void)(*a)->CallForReport(RequestKind::kSkim, {cmv});
  });
  first_started.get_future().wait();

  // Request B fills the queue slot of 1.
  Session b = Connect(MakeHello("b", 3));
  ASSERT_TRUE(b.ok());
  std::thread queued([&] {
    (void)(*b)->CallForReport(RequestKind::kSkim, {cmv});
  });
  // B must be admitted (queued) before C can be rejected deterministically.
  while (server_->StatsSnapshot().requests_admitted < 2) {  // A + B
    std::this_thread::yield();
  }

  // Request C finds the queue full -> kUnavailable, immediately.
  Session c = Connect(MakeHello("c", 3));
  ASSERT_TRUE(c.ok());
  util::StatusOr<std::string> rejected =
      (*c)->CallForReport(RequestKind::kSkim, {cmv});
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

  // kUnavailable is exactly what util::Retry retries: once the worker is
  // released, the same request goes through. The backoff must outlast the
  // two skims ahead of C, which take tens of seconds under ThreadSanitizer.
  release_first.set_value();
  util::RetryOptions retry;
  retry.max_attempts = 50;
  retry.initial_backoff_ms = 5.0;
  retry.max_backoff_ms = 2000.0;
  util::StatusOr<std::string> report = util::RetryOr<std::string>(
      retry, [&]() -> util::StatusOr<std::string> {
        return (*c)->CallForReport(RequestKind::kSkim, {cmv});
      });
  EXPECT_TRUE(report.ok()) << report.status().ToString();

  blocked.join();
  queued.join();
  EXPECT_GE(server_->StatsSnapshot().rejected_admission, 1u);
}

TEST_F(ServerTest, DeadlineExpiredInQueueNeverExecutes) {
  const std::string cmv = TestContainer("deadline.cmv", 11);

  std::promise<void> first_started;
  std::promise<void> release_first;
  std::shared_future<void> release(release_first.get_future());
  std::atomic<int> started{0};

  ServerOptions options;
  options.worker_threads = 1;
  options.max_queue = 4;
  // B skims the same container as A; joining A's flight would bypass the
  // queue (and its deadline check) entirely.
  options.enable_result_cache = false;
  options.request_started_hook = [&](RequestKind) {
    if (started.fetch_add(1) == 0) {
      first_started.set_value();
      release.wait();
    }
  };
  StartServer(std::move(options));

  Session a = Connect(MakeHello("a", 3));
  ASSERT_TRUE(a.ok());
  std::thread blocked([&] {
    (void)(*a)->CallForReport(RequestKind::kSkim, {cmv});
  });
  first_started.get_future().wait();

  // Queued behind the blocked worker with a 1 ms deadline: by the time the
  // worker frees, the deadline has long passed.
  Session b = Connect(MakeHello("b", 3));
  ASSERT_TRUE(b.ok());
  std::thread waiter([&] {
    util::StatusOr<std::string> report =
        (*b)->CallForReport(RequestKind::kSkim, {cmv}, /*deadline_ms=*/1);
    EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded);
  });
  while (server_->StatsSnapshot().requests_admitted < 2) {  // A + B
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release_first.set_value();
  blocked.join();
  waiter.join();
  EXPECT_GE(server_->StatsSnapshot().deadline_exceeded, 1u);
}

TEST_F(ServerTest, GracefulStopDrainsInFlightRequests) {
  const std::string cmv = TestContainer("drain.cmv", 13);

  std::promise<void> started_promise;
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  std::atomic<int> started{0};

  ServerOptions options;
  options.worker_threads = 2;
  options.request_started_hook = [&](RequestKind) {
    if (started.fetch_add(1) == 0) {
      started_promise.set_value();
      release.wait();
    }
  };
  StartServer(std::move(options));

  Session client = Connect(MakeHello("drain", 3));
  ASSERT_TRUE(client.ok());
  util::StatusOr<std::string> report = Status::Internal("never ran");
  std::thread in_flight([&] {
    report = (*client)->CallForReport(RequestKind::kSkim, {cmv});
  });
  started_promise.get_future().wait();

  // Stop while the request is mid-flight: it must still complete and flush
  // its response before Stop returns.
  std::thread stopper([&] { server_->Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release_promise.set_value();
  stopper.join();
  in_flight.join();

  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ServerStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.connections_active, 0u);  // no leaked connections
  EXPECT_GE(stats.requests_ok, 1u);
}

TEST_F(ServerTest, ConnectionCapacityRefusesTheExtraSession) {
  ServerOptions options;
  options.max_connections = 1;
  StartServer(std::move(options));

  Session first = Connect(MakeHello("one", 1));
  ASSERT_TRUE(first.ok());
  Session second = Connect(MakeHello("two", 1));
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(server_->StatsSnapshot().connections_rejected, 1u);
}

TEST_F(ServerTest, VerifyCarriesItsReportEvenWhenDirty) {
  StartServer();
  Session client = Connect(MakeHello("admin", 3));
  ASSERT_TRUE(client.ok());
  Request request;
  request.kind = RequestKind::kVerify;
  request.args = {::testing::TempDir() + "/no_such.cmdb"};
  util::StatusOr<Response> response = (*client)->Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kDataLoss);
  // The body is the same report the CLI prints before exiting non-zero.
  const OpResult expected = VerifyOp(request.args[0]);
  EXPECT_EQ(response->body, expected.report);
  EXPECT_FALSE(response->body.empty());
}

// ---------------------------------------------------------------------------
// Pipelining, streaming, the shared result cache.

TEST(ProtocolTest, TaggedRequestAndChunkRoundTrip) {
  Request request;
  request.kind = RequestKind::kSkim;
  request.deadline_ms = 250;
  request.args = {"a.cmv", "2"};
  request.request_id = 0xdeadbeef;
  util::StatusOr<std::vector<uint8_t>> bytes = request.SerializeTagged();
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(PeekRequestId(*bytes), 0xdeadbeefu);
  util::StatusOr<Request> parsed = Request::ParseTagged(*bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->request_id, 0xdeadbeefu);
  EXPECT_EQ(parsed->kind, RequestKind::kSkim);
  EXPECT_EQ(parsed->args, request.args);

  Response chunk;
  chunk.request_id = 7;
  chunk.final_chunk = false;
  chunk.body = "fragment";
  util::StatusOr<std::vector<uint8_t>> cb = chunk.SerializeChunk();
  ASSERT_TRUE(cb.ok());
  util::StatusOr<Response> back = Response::ParseChunk(*cb);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->request_id, 7u);
  EXPECT_FALSE(back->final_chunk);
  EXPECT_EQ(back->body, "fragment");
  // Reserved flag bits must be zero.
  (*cb)[4] |= 0x02;
  EXPECT_FALSE(Response::ParseChunk(*cb).ok());
}

TEST_F(ServerTest, PipelinedResponsesCompleteOutOfOrder) {
  std::promise<void> first_started;
  std::promise<void> release_first;
  std::shared_future<void> release(release_first.get_future());
  std::atomic<int> started{0};

  ServerOptions options;
  options.worker_threads = 2;
  options.request_started_hook = [&](RequestKind) {
    if (started.fetch_add(1) == 0) {
      first_started.set_value();
      release.wait();
    }
  };
  StartServer(std::move(options));

  util::StatusOr<std::unique_ptr<PipelinedClient>> client =
      PipelinedClient::Connect("127.0.0.1", server_->port(),
                               MakeHello("pipeline", 3));
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // A enters the worker first and blocks there; B, sent after, overtakes it.
  Request a;
  a.kind = RequestKind::kVerify;
  a.args = {::testing::TempDir() + "/oo_a.cmdb"};
  std::future<util::StatusOr<Response>> fa = (*client)->AsyncCall(a);
  first_started.get_future().wait();

  Request b;
  b.kind = RequestKind::kVerify;
  b.args = {::testing::TempDir() + "/oo_b.cmdb"};
  std::future<util::StatusOr<Response>> fb = (*client)->AsyncCall(b);

  ASSERT_EQ(fb.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(fa.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);  // A is still held in the hook
  release_first.set_value();

  util::StatusOr<Response> ra = fa.get();
  util::StatusOr<Response> rb = fb.get();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  // Both carry their own database path: tags kept request<->response pairing
  // intact across the reordering.
  EXPECT_NE(ra->body.find("oo_a.cmdb"), std::string::npos);
  EXPECT_NE(rb->body.find("oo_b.cmdb"), std::string::npos);
  EXPECT_GE(server_->StatsSnapshot().requests_pipelined, 1u);
}

TEST_F(ServerTest, StreamedPipelinedResponsesReassembleByteIdentical) {
  const std::string cmv_a = TestContainer("stream_a.cmv", 17);
  const std::string cmv_b = TestContainer("stream_b.cmv", 19);

  ServerOptions options;
  options.worker_threads = 2;
  options.stream_chunk_bytes = 32;  // force many interleaved chunks
  StartServer(std::move(options));

  const OpEnv env;
  const OpResult want_a = SkimOp(cmv_a, 3, env, nullptr);
  const OpResult want_b = SkimOp(cmv_b, 3, env, nullptr);
  ASSERT_TRUE(want_a.ok());
  ASSERT_TRUE(want_b.ok());

  util::StatusOr<std::unique_ptr<PipelinedClient>> client =
      PipelinedClient::Connect("127.0.0.1", server_->port(),
                               MakeHello("streams", 3));
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Request a;
  a.kind = RequestKind::kSkim;
  a.args = {cmv_a};
  Request b;
  b.kind = RequestKind::kSkim;
  b.args = {cmv_b};
  std::future<util::StatusOr<Response>> fa = (*client)->AsyncCall(a);
  std::future<util::StatusOr<Response>> fb = (*client)->AsyncCall(b);
  util::StatusOr<Response> ra = fa.get();
  util::StatusOr<Response> rb = fb.get();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  ASSERT_TRUE(ra->ok()) << ra->message;
  ASSERT_TRUE(rb->ok()) << rb->message;
  // Chunked delivery, interleaved across two in-flight requests on one
  // session, reassembles to exactly the ops-layer bytes.
  EXPECT_EQ(ra->body, want_a.report);
  EXPECT_EQ(rb->body, want_b.report);
  const ServerStats stats = server_->StatsSnapshot();
  EXPECT_GE(stats.responses_streamed, 2u);
}

TEST_F(ServerTest, SingleFlightCacheRunsTheMiningPipelineOnce) {
  const std::string cmv = TestContainer("cache.cmv", 23);

  std::promise<void> leader_started;
  std::promise<void> release_leader;
  std::shared_future<void> release(release_leader.get_future());
  std::atomic<int> started{0};

  ServerOptions options;
  options.request_started_hook = [&](RequestKind) {
    if (started.fetch_add(1) == 0) {
      leader_started.set_value();
      release.wait();  // holds the leader mid-flight so others can join
    }
  };
  StartServer(std::move(options));

  const OpEnv env;
  const OpResult want = MineOp(cmv, /*fast=*/true, /*strict=*/false, env,
                               nullptr);
  ASSERT_TRUE(want.ok());

  constexpr int kSessions = 4;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      Session client =
          Connect(MakeHello("joiner" + std::to_string(i), 3));
      if (!client.ok()) {
        ++mismatches;
        return;
      }
      util::StatusOr<std::string> got =
          (*client)->CallForReport(RequestKind::kMine, {cmv, "--fast"});
      if (!got.ok() || *got != want.report) ++mismatches;
    });
  }
  leader_started.get_future().wait();
  // Everyone else must have attached to the leader's flight before it runs.
  while (server_->StatsSnapshot().cache_joined <
         static_cast<uint64_t>(kSessions - 1)) {
    std::this_thread::yield();
  }
  release_leader.set_value();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // A later identical request answers from the stored entry.
  Session late = Connect(MakeHello("late", 3));
  ASSERT_TRUE(late.ok());
  util::StatusOr<std::string> cached =
      (*late)->CallForReport(RequestKind::kMine, {cmv, "--fast"});
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(*cached, want.report);

  const ServerStats stats = server_->StatsSnapshot();
  EXPECT_EQ(started.load(), 1);  // the pipeline executed exactly once
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_joined, static_cast<uint64_t>(kSessions - 1));
  EXPECT_GE(stats.cache_hits, 1u);
  // Cache-served answers still count as served requests.
  EXPECT_EQ(stats.requests_ok, static_cast<uint64_t>(kSessions + 1));
}

// A loopback connection whose receive buffer is the kernel minimum. The
// buffer is shrunk before connect, so the SYN already advertises the small
// window.
util::StatusOr<int> ConnectWithTinyReceiveBuffer(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return util::Status::Internal("socket failed");
  const int tiny = 1;  // rounded up to the kernel minimum
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    CloseFd(fd);
    return util::Status::Internal("connect failed");
  }
  return fd;
}

// The daemon's end of the loopback connection whose client end is
// `client_fd`. The daemon runs in this process, so its accepted socket is
// one of our own descriptors: the one whose address pair mirrors ours.
int DaemonEndOf(int client_fd) {
  sockaddr_in local{};
  sockaddr_in peer{};
  socklen_t len = sizeof(local);
  if (getsockname(client_fd, reinterpret_cast<sockaddr*>(&local), &len) !=
      0) {
    return -1;
  }
  len = sizeof(peer);
  if (getpeername(client_fd, reinterpret_cast<sockaddr*>(&peer), &len) != 0) {
    return -1;
  }
  const auto same = [](const sockaddr_in& a, const sockaddr_in& b) {
    return a.sin_family == b.sin_family && a.sin_port == b.sin_port &&
           a.sin_addr.s_addr == b.sin_addr.s_addr;
  };
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int found = -1;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const int fd = std::atoi(entry->d_name);
    sockaddr_in a{};
    sockaddr_in b{};
    socklen_t la = sizeof(a);
    socklen_t lb = sizeof(b);
    if (fd != client_fd &&
        getsockname(fd, reinterpret_cast<sockaddr*>(&a), &la) == 0 &&
        getpeername(fd, reinterpret_cast<sockaddr*>(&b), &lb) == 0 &&
        same(a, peer) && same(b, local)) {
      found = fd;
      break;
    }
  }
  closedir(dir);
  return found;
}

TEST_F(ServerTest, SlowReaderBackpressureBoundsTheWriteQueue) {
  const std::string cmv = TestContainer("slow.cmv", 29);

  ServerOptions options;
  options.stream_chunk_bytes = 1;      // every report byte is its own frame
  options.max_write_queue_bytes = 64;  // tiny: the op must stall
  StartServer(std::move(options));

  const OpEnv env;
  const OpResult want = SkimOp(cmv, 3, env, nullptr);
  ASSERT_TRUE(want.ok());
  // At ~39 wire bytes per one-byte chunk the reply is over 8 kB: more than
  // both minimum-size socket buffers (~5 kB together on Linux) plus the
  // write-queue bound can hold. The op cannot finish until the peer reads,
  // however fast it mined.
  ASSERT_GT(want.report.size(), 200u);

  util::StatusOr<int> fd = ConnectWithTinyReceiveBuffer(server_->port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  SessionHello hello = MakeHello("slow", 3);
  Request handshake;
  handshake.kind = RequestKind::kHello;
  handshake.args = {*hello.Serialize()};
  handshake.request_id = 1;
  ASSERT_TRUE(WriteFrame(*fd, kRequestMagicV2, *handshake.SerializeTagged(),
                         kMaxFrameBytes)
                  .ok());
  // The hello reply streams in one-byte chunks too; read all of them.
  util::StatusOr<std::vector<uint8_t>> frame = util::Status::Internal("unread");
  for (bool final_chunk = false; !final_chunk;) {
    frame = ReadFrame(*fd, kResponseMagicV2, kMaxFrameBytes);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    util::StatusOr<Response> chunk = Response::ParseChunk(*frame);
    ASSERT_TRUE(chunk.ok());
    ASSERT_EQ(chunk->request_id, 1u);
    final_chunk = chunk->final_chunk;
  }
  // The daemon has accepted by now; shrink its end of the connection too.
  const int daemon_fd = DaemonEndOf(*fd);
  ASSERT_GE(daemon_fd, 0);
  const int tiny = 1;
  ASSERT_EQ(setsockopt(daemon_fd, SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)),
            0);

  Request skim;
  skim.kind = RequestKind::kSkim;
  skim.args = {cmv};
  skim.request_id = 2;
  ASSERT_TRUE(WriteFrame(*fd, kRequestMagicV2, *skim.SerializeTagged(),
                         kMaxFrameBytes)
                  .ok());

  // Do not read. The hello reply is consumed, so anything readable now is
  // the skim's own chunks: mining is over and the op is streaming. It fills
  // both socket buffers and the write queue to the bound, then its next
  // chunk blocks on backpressure: the response cannot finish.
  pollfd readable{*fd, POLLIN, 0};
  ASSERT_EQ(poll(&readable, 1, 60000), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ServerStats stalled = server_->StatsSnapshot();
  EXPECT_EQ(stalled.requests_ok, 0u);  // still blocked mid-stream
  EXPECT_GT(stalled.write_queue_peak_bytes, options.max_write_queue_bytes);
  // The queue never ran away: bound + one in-flight chunk frame + the
  // posts-in-transit slack.
  EXPECT_LE(stalled.write_queue_peak_bytes,
            options.max_write_queue_bytes + 512);

  // Now drain like a healthy reader: the stream completes byte-identical.
  std::string body;
  for (;;) {
    frame = ReadFrame(*fd, kResponseMagicV2, kMaxFrameBytes);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    util::StatusOr<Response> chunk = Response::ParseChunk(*frame);
    ASSERT_TRUE(chunk.ok());
    ASSERT_EQ(chunk->request_id, 2u);
    body.append(chunk->body);
    if (chunk->final_chunk) {
      EXPECT_EQ(chunk->code, StatusCode::kOk) << chunk->message;
      break;
    }
  }
  EXPECT_EQ(body, want.report);
  EXPECT_EQ(server_->StatsSnapshot().requests_ok, 1u);
  CloseFd(*fd);
}

// Writes `stream` to `fd` without blocking until it is all out or the peer
// has taken nothing for 300 ms; returns the bytes written.
size_t WriteUntilStalled(int fd, const std::vector<uint8_t>& stream) {
  if (!SetNonBlocking(fd, true).ok()) return 0;
  size_t off = 0;
  auto last_progress = std::chrono::steady_clock::now();
  while (off < stream.size() && std::chrono::steady_clock::now() -
                                        last_progress <
                                    std::chrono::milliseconds(300)) {
    util::StatusOr<size_t> n =
        TrySend(fd, stream.data() + off, stream.size() - off);
    if (!n.ok()) break;
    if (*n > 0) {
      off += *n;
      last_progress = std::chrono::steady_clock::now();
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  (void)SetNonBlocking(fd, false);
  return off;
}

// requests_received once it has not moved for 300 ms.
uint64_t SettledRequestsReceived(const ClassMinerServer& server) {
  uint64_t seen = server.StatsSnapshot().requests_received;
  for (int quiet_ms = 0; quiet_ms < 300; quiet_ms += 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const uint64_t now = server.StatsSnapshot().requests_received;
    if (now != seen) {
      seen = now;
      quiet_ms = 0;
    }
  }
  return seen;
}

TEST_F(ServerTest, SessionThatNeverReadsStopsBeingRead) {
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  ServerOptions options;
  options.worker_threads = 1;
  options.max_queue = 64;
  options.max_pipeline = 4;
  options.max_write_queue_bytes = 1024;
  options.request_started_hook = [&](RequestKind) { release.wait(); };
  StartServer(options);

  // Session A floods health requests and never reads its answers. Both
  // socket buffers are shrunk to the kernel minimum, so the answers the
  // daemon can park in the kernel are few and countable.
  util::StatusOr<int> a = ConnectWithTinyReceiveBuffer(server_->port());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  int daemon_fd = -1;
  for (int i = 0; i < 500 && daemon_fd < 0; ++i) {
    daemon_fd = DaemonEndOf(*a);
    if (daemon_fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(daemon_fd, 0);
  const int tiny = 1;
  ASSERT_EQ(setsockopt(daemon_fd, SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)),
            0);
  int rcvbuf = 0;
  int sndbuf = 0;
  socklen_t len = sizeof(rcvbuf);
  ASSERT_EQ(getsockopt(*a, SOL_SOCKET, SO_RCVBUF, &rcvbuf, &len), 0);
  len = sizeof(sndbuf);
  ASSERT_EQ(getsockopt(daemon_fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, &len), 0);
  // One probe measures a health answer's frame. Later answers are no
  // shorter: their counters only grow.
  const std::vector<uint8_t> probe = RequestFrame(RequestKind::kHealth, 1);
  ASSERT_TRUE(SendAll(*a, probe.data(), probe.size()).ok());
  util::StatusOr<std::vector<uint8_t>> answer =
      ReadFrame(*a, kResponseMagicV2, kMaxFrameBytes);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  const size_t answer_bytes = 12 + answer->size();

  constexpr uint32_t kFlood = 2000;
  std::vector<uint8_t> flood;
  for (uint32_t id = 2; id < 2 + kFlood; ++id) {
    const std::vector<uint8_t> frame = RequestFrame(RequestKind::kHealth, id);
    flood.insert(flood.end(), frame.begin(), frame.end());
  }
  const size_t a_sent = WriteUntilStalled(*a, flood);
  // The session stops being read while max_pipeline requests are
  // unanswered or its write queue is past its bound. So it holds at most
  // max_pipeline unanswered requests, a write queue of the bound plus one
  // answer, and what the two kernel buffers keep.
  const uint64_t a_bound =
      1 + options.max_pipeline +
      (options.max_write_queue_bytes + answer_bytes + rcvbuf + sndbuf) /
          answer_bytes;
  const uint64_t a_received = SettledRequestsReceived(*server_);
  EXPECT_LE(a_received, a_bound);

  // Session B sends mine requests that cannot finish (the only worker is
  // held), each behind a health request, and never reads.
  util::StatusOr<int> b = ConnectTo("127.0.0.1", server_->port());
  ASSERT_TRUE(b.ok());
  SessionHello hello = MakeHello("pipeliner", 3);
  const std::vector<uint8_t> hello_frame =
      RequestFrame(RequestKind::kHello, 1, {*hello.Serialize()});
  ASSERT_TRUE(SendAll(*b, hello_frame.data(), hello_frame.size()).ok());
  ASSERT_TRUE(ReadFrame(*b, kResponseMagicV2, kMaxFrameBytes).ok());
  constexpr uint32_t kPairs = 500;
  std::vector<uint8_t> pairs;
  for (uint32_t i = 0; i < kPairs; ++i) {
    for (const std::vector<uint8_t>& frame :
         {RequestFrame(RequestKind::kHealth, 2 + 2 * i),
          RequestFrame(RequestKind::kMine, 3 + 2 * i, {"held.cmv"})}) {
      pairs.insert(pairs.end(), frame.begin(), frame.end());
    }
  }
  const size_t b_sent = WriteUntilStalled(*b, pairs);
  // The hello, then one health answered and one mine held per slot of the
  // pipeline: the daemon stops reading at the max_pipeline-th mine.
  const uint64_t b_bound = 1 + 2 * options.max_pipeline;
  EXPECT_LE(SettledRequestsReceived(*server_) - a_received, b_bound);

  // Reading resumes once the peers read and the worker is free: every
  // request is answered.
  release_promise.set_value();
  std::thread rest([&] {
    EXPECT_TRUE(SendAll(*a, flood.data() + a_sent, flood.size() - a_sent).ok());
    EXPECT_TRUE(
        SendAll(*b, pairs.data() + b_sent, pairs.size() - b_sent).ok());
  });
  for (uint32_t i = 0; i < kFlood; ++i) {
    util::StatusOr<std::vector<uint8_t>> frame =
        ReadFrame(*a, kResponseMagicV2, kMaxFrameBytes);
    ASSERT_TRUE(frame.ok()) << "health answer " << i << ": "
                            << frame.status().ToString();
  }
  for (uint32_t i = 0; i < 2 * kPairs; ++i) {
    util::StatusOr<std::vector<uint8_t>> frame =
        ReadFrame(*b, kResponseMagicV2, kMaxFrameBytes);
    ASSERT_TRUE(frame.ok()) << "answer " << i << ": "
                            << frame.status().ToString();
  }
  rest.join();
  EXPECT_EQ(server_->StatsSnapshot().requests_received,
            1 + kFlood + 1 + 2 * kPairs);
  CloseFd(*a);
  CloseFd(*b);
}

TEST_F(ServerTest, HoldsAThousandIdleConnectionsWithoutReaderThreads) {
  ServerOptions options;
  options.max_connections = 1100;
  StartServer(std::move(options));

  const auto thread_count = [] {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("Threads:", 0) == 0) {
        return std::stoi(line.substr(8));
      }
    }
    return -1;
  };
  // The active session's client reader thread exists before the count.
  Session active = Connect(MakeHello("worker", 3));
  ASSERT_TRUE(active.ok()) << active.status().ToString();
  const int threads_before = thread_count();

  constexpr int kIdle = 1024;
  std::vector<int> idle;
  idle.reserve(kIdle);
  for (int i = 0; i < kIdle; ++i) {
    util::StatusOr<int> fd = ConnectTo("127.0.0.1", server_->port());
    ASSERT_TRUE(fd.ok()) << "connection " << i << ": "
                         << fd.status().ToString();
    idle.push_back(*fd);
  }
  // All idle sessions are registered (give the reactor a moment).
  while (server_->StatsSnapshot().connections_active <
         static_cast<uint64_t>(kIdle + 1)) {
    std::this_thread::yield();
  }

  // The daemon still serves, and holding 1024 open sockets cost zero
  // additional threads — idle connections are file descriptors, not stacks.
  Request request;
  request.kind = RequestKind::kVerify;
  request.args = {::testing::TempDir() + "/idle_probe.cmdb"};
  util::StatusOr<Response> response = (*active)->Call(request);
  ASSERT_TRUE(response.ok());

  const int threads_after = thread_count();
  ASSERT_GT(threads_before, 0);
  EXPECT_EQ(threads_after, threads_before);
  const ServerStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.reader_threads, 0u);
  EXPECT_EQ(stats.connections_active, static_cast<uint64_t>(kIdle + 1));

  for (int fd : idle) CloseFd(fd);
}

TEST_F(ServerTest, MalformedRequestFrameGetsAnErrorResponse) {
  StartServer();
  util::StatusOr<int> fd = ConnectTo("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  // A CRC-valid frame whose body is not a parseable request: tag 5, then
  // an unknown kind byte.
  std::vector<uint8_t> junk = {5, 0, 0, 0, 0x7f, 0x00};
  ASSERT_TRUE(WriteFrame(*fd, kRequestMagicV2, junk, kMaxFrameBytes).ok());
  util::StatusOr<Response> response = ReadChunk(*fd);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kInvalidArgument);
  EXPECT_EQ(response->request_id, 5u);  // the tag survives the damage
  EXPECT_TRUE(response->final_chunk);
  CloseFd(*fd);
}

// ---------------------------------------------------------------------------
// Chaos hardening: idempotency keys, duplicate-tag rejection, idle reaping,
// error budgets, the health kind, fault-injected transports, the scrubber.

TEST(ProtocolTest, TaggedRequestCarriesIdempotencyKey) {
  Request request;
  request.kind = RequestKind::kRepair;
  request.deadline_ms = 0;
  request.args = {"library.cmdb"};
  request.request_id = 42;
  request.idempotency_key = "rc1-00ff-3-abc";
  util::StatusOr<std::vector<uint8_t>> bytes = request.SerializeTagged();
  ASSERT_TRUE(bytes.ok());
  util::StatusOr<Request> parsed = Request::ParseTagged(*bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->idempotency_key, "rc1-00ff-3-abc");
  EXPECT_EQ(parsed->request_id, 42u);
  EXPECT_EQ(parsed->args, request.args);

  // An absent key round-trips as empty, and trailing junk after the key is
  // still rejected (the strict framing did not move).
  request.idempotency_key.clear();
  bytes = request.SerializeTagged();
  ASSERT_TRUE(bytes.ok());
  parsed = Request::ParseTagged(*bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->idempotency_key.empty());
  std::vector<uint8_t> trailing = *bytes;
  trailing.push_back(0);
  EXPECT_FALSE(Request::ParseTagged(trailing).ok());
}

TEST_F(ServerTest, DuplicateInFlightRequestIdIsRejected) {
  std::promise<void> first_started;
  std::promise<void> release_first;
  std::shared_future<void> release(release_first.get_future());
  std::atomic<int> started{0};

  ServerOptions options;
  options.worker_threads = 2;
  options.request_started_hook = [&](RequestKind) {
    if (started.fetch_add(1) == 0) {
      first_started.set_value();
      release.wait();
    }
  };
  StartServer(std::move(options));

  util::StatusOr<int> fd = ConnectTo("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  SessionHello hello = MakeHello("dup", 3);
  Request handshake;
  handshake.kind = RequestKind::kHello;
  handshake.args = {*hello.Serialize()};
  handshake.request_id = 1;
  ASSERT_TRUE(WriteFrame(*fd, kRequestMagicV2, *handshake.SerializeTagged(),
                         kMaxFrameBytes)
                  .ok());
  util::StatusOr<std::vector<uint8_t>> frame =
      ReadFrame(*fd, kResponseMagicV2, kMaxFrameBytes);
  ASSERT_TRUE(frame.ok());

  // Original request under tag 2 is held in the worker...
  Request verify;
  verify.kind = RequestKind::kVerify;
  verify.args = {::testing::TempDir() + "/dup_orig.cmdb"};
  verify.request_id = 2;
  ASSERT_TRUE(WriteFrame(*fd, kRequestMagicV2, *verify.SerializeTagged(),
                         kMaxFrameBytes)
                  .ok());
  first_started.get_future().wait();

  // ...so a second request reusing tag 2 is a protocol error, answered
  // immediately without touching the original.
  ASSERT_TRUE(WriteFrame(*fd, kRequestMagicV2, *verify.SerializeTagged(),
                         kMaxFrameBytes)
                  .ok());
  frame = ReadFrame(*fd, kResponseMagicV2, kMaxFrameBytes);
  ASSERT_TRUE(frame.ok());
  util::StatusOr<Response> rejected = Response::ParseChunk(*frame);
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->request_id, 2u);
  EXPECT_EQ(rejected->code, StatusCode::kInvalidArgument);
  EXPECT_NE(rejected->message.find("duplicate request_id"),
            std::string::npos);

  // The original still answers once released: the rejection did not free
  // or corrupt its tag.
  release_first.set_value();
  std::string body;
  for (;;) {
    frame = ReadFrame(*fd, kResponseMagicV2, kMaxFrameBytes);
    ASSERT_TRUE(frame.ok());
    util::StatusOr<Response> chunk = Response::ParseChunk(*frame);
    ASSERT_TRUE(chunk.ok());
    EXPECT_EQ(chunk->request_id, 2u);
    body.append(chunk->body);
    if (chunk->final_chunk) break;
  }
  EXPECT_NE(body.find("dup_orig.cmdb"), std::string::npos);

  // Tag 2's lifetime ended with its final answer: reuse is legal now.
  verify.args = {::testing::TempDir() + "/dup_reuse.cmdb"};
  ASSERT_TRUE(WriteFrame(*fd, kRequestMagicV2, *verify.SerializeTagged(),
                         kMaxFrameBytes)
                  .ok());
  frame = ReadFrame(*fd, kResponseMagicV2, kMaxFrameBytes);
  ASSERT_TRUE(frame.ok());
  util::StatusOr<Response> reused = Response::ParseChunk(*frame);
  ASSERT_TRUE(reused.ok());
  EXPECT_NE(reused->code, StatusCode::kInvalidArgument);

  EXPECT_EQ(server_->StatsSnapshot().duplicate_request_ids, 1u);
  CloseFd(*fd);
}

TEST_F(ServerTest, IdleTimeoutReapsSlowLorisButNotBusySessions) {
  std::promise<void> started_promise;
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  std::atomic<int> started{0};

  ServerOptions options;
  options.idle_timeout_ms = 150;
  options.request_started_hook = [&](RequestKind) {
    if (started.fetch_add(1) == 0) {
      started_promise.set_value();
      release.wait();  // holds a request in flight well past the timeout
    }
  };
  StartServer(std::move(options));

  // A session with an executing request is busy, not idle — it must
  // survive the reaper even though no bytes move while the worker is held.
  Session busy = Connect(MakeHello("busy", 3));
  ASSERT_TRUE(busy.ok());
  util::StatusOr<std::string> report = Status::Internal("never ran");
  std::thread in_flight([&] {
    report = (*busy)->CallForReport(
        RequestKind::kVerify, {::testing::TempDir() + "/not_idle.cmdb"});
  });
  started_promise.get_future().wait();

  // The slow loris: three bytes of a frame header, then silence. The
  // deadline monitor must flag it and the reactor must close it.
  util::StatusOr<int> loris = ConnectTo("127.0.0.1", server_->port());
  ASSERT_TRUE(loris.ok());
  const uint8_t partial[3] = {0x43, 0x4d, 0x51};
  ASSERT_TRUE(SendAll(*loris, partial, sizeof(partial)).ok());
  uint8_t byte;
  ssize_t n;
  do {
    n = recv(*loris, &byte, 1, 0);  // blocks until the server closes
  } while (n < 0 && errno == EINTR);
  EXPECT_EQ(n, 0);  // EOF: reaped, not answered
  CloseFd(*loris);

  // The held request was never reaped; it completes normally.
  release_promise.set_value();
  in_flight.join();
  EXPECT_TRUE(report.status().code() == StatusCode::kDataLoss ||
              report.ok());  // verify on a missing db is kDataLoss
  const ServerStats stats = server_->StatsSnapshot();
  EXPECT_GE(stats.idle_closed, 1u);
}

TEST_F(ServerTest, ErrorBudgetClosesSessionsThatKeepSendingGarbage) {
  ServerOptions options;
  options.max_session_errors = 3;
  StartServer(std::move(options));

  util::StatusOr<int> fd = ConnectTo("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  // Each junk frame is CRC-valid but unparseable: an inline error answer,
  // charged against the session's budget.
  const std::vector<uint8_t> junk = {1, 0, 0, 0, 0x7f, 0x00};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(WriteFrame(*fd, kRequestMagicV2, junk, kMaxFrameBytes).ok());
  }
  // All three owed error responses still flush before the close.
  for (int i = 0; i < 3; ++i) {
    util::StatusOr<Response> response = ReadChunk(*fd);
    ASSERT_TRUE(response.ok()) << "error " << i << ": "
                               << response.status().ToString();
    EXPECT_EQ(response->code, StatusCode::kInvalidArgument);
  }
  // Past the budget the server hangs up instead of absorbing more abuse.
  uint8_t byte;
  ssize_t n;
  do {
    n = recv(*fd, &byte, 1, 0);
  } while (n < 0 && errno == EINTR);
  EXPECT_EQ(n, 0);
  const ServerStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.protocol_errors, 3u);
  EXPECT_EQ(stats.error_budget_closed, 1u);
  CloseFd(*fd);
}

TEST_F(ServerTest, HealthAnswersBeforeHelloAtClearanceZero) {
  StartServer();

  // Health needs no hello and no clearance: it must work on a raw
  // session as the very first frame (that is what a load balancer probe
  // looks like).
  util::StatusOr<int> fd = ConnectTo("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  Request probe;
  probe.kind = RequestKind::kHealth;
  probe.request_id = 1;
  ASSERT_TRUE(WriteFrame(*fd, kRequestMagicV2, *probe.SerializeTagged(),
                         kMaxFrameBytes)
                  .ok());
  util::StatusOr<std::vector<uint8_t>> frame =
      ReadFrame(*fd, kResponseMagicV2, kMaxFrameBytes);
  ASSERT_TRUE(frame.ok());
  util::StatusOr<Response> response = Response::ParseChunk(*frame);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kOk) << response->message;
  EXPECT_NE(response->body.find("classminerd health"), std::string::npos);
  EXPECT_NE(response->body.find("status: serving"), std::string::npos);
  EXPECT_NE(response->body.find("scrub: disabled"), std::string::npos);
  CloseFd(*fd);

  // And through an authenticated clearance-0 session, for completeness.
  Session probe_client = Connect(MakeHello("probe", 0));
  ASSERT_TRUE(probe_client.ok());
  util::StatusOr<std::string> body =
      (*probe_client)->CallForReport(RequestKind::kHealth, {});
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_NE(body->find("status: serving"), std::string::npos);
}

TEST_F(ServerTest, ResilientClientRunsRepairAtMostOnceAcrossTornSend) {
  // A degraded database entry with its pristine container next to it.
  const std::string dir = ::testing::TempDir() + "/torn_repair_media";
  (void)::mkdir(dir.c_str(), 0755);
  const std::string name = "torn_repair";
  synth::VideoScript script = synth::QuickScript(41);
  script.name = name;
  const synth::GeneratedVideo g = synth::GenerateVideo(script);
  const codec::CmvFile container = core::PackGeneratedVideo(g);
  ASSERT_TRUE(container.SaveToFile(dir + "/" + name + ".cmv").ok());
  const std::string db_path = dir + "/library.cmdb";
  {
    util::StatusOr<core::MiningResult> mined =
        core::MineCmvFileFast(container, core::MiningOptions());
    ASSERT_TRUE(mined.ok());
    index::VideoDatabase db;
    db.AddVideo(name, std::move(mined->structure), std::move(mined->events),
                /*degraded=*/true);
    ASSERT_TRUE(index::SaveDatabase(db, db_path).ok());
  }
  ASSERT_FALSE(index::VerifyDatabaseFile(db_path).clean());

  std::atomic<int> repairs_started{0};
  ServerOptions options;
  options.media_dir = dir;
  options.request_started_hook = [&](RequestKind kind) {
    if (kind == RequestKind::kRepair) ++repairs_started;
  };
  StartServer(std::move(options));

  ResilientClient::Options ropts;
  ropts.port = server_->port();
  ropts.hello = MakeHello("fixer", 3);
  ropts.retry.max_attempts = 6;
  ropts.retry.initial_backoff_ms = 5.0;
  ropts.retry.max_backoff_ms = 50.0;
  ropts.session_nonce = 77;
  ResilientClient client(std::move(ropts));

  // Establish the session first so the torn send hits the repair response,
  // not the hello.
  util::StatusOr<Response> health = client.Call([] {
    Request r;
    r.kind = RequestKind::kHealth;
    return r;
  }());
  ASSERT_TRUE(health.ok()) << health.status().ToString();

  util::FailPoint::Scoped torn("server.wire.send.torn",
                               util::FailPoint::Spec::Once());
  Request repair;
  repair.kind = RequestKind::kRepair;
  repair.args = {db_path};
  util::StatusOr<Response> response = client.Call(repair);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kOk) << response->message;
  EXPECT_NE(response->body.find(db_path), std::string::npos);

  // The side effects ran exactly once: the resumed call replayed the
  // recorded outcome instead of repairing a second time.
  EXPECT_EQ(repairs_started.load(), 1);
  EXPECT_EQ(util::FailPoint::FailureCount("server.wire.send.torn"), 1);
  EXPECT_TRUE(index::VerifyDatabaseFile(db_path).clean());
  const ServerStats stats = server_->StatsSnapshot();
  EXPECT_GE(stats.idempotent_hits + stats.idempotent_joined, 1u);
  const ResilientClient::Stats cstats = client.StatsSnapshot();
  EXPECT_EQ(cstats.dials, 2u);          // original session + the redial
  EXPECT_GE(cstats.resumed_calls, 1u);  // the repair was re-offered
}

TEST_F(ServerTest, ResilientClientSurvivesAcceptTimeConnectionReset) {
  StartServer();

  util::FailPoint::Scoped reset("server.accept.reset",
                                util::FailPoint::Spec::Once());
  ResilientClient::Options ropts;
  ropts.port = server_->port();
  ropts.hello = MakeHello("reconnector", 3);
  ropts.retry.max_attempts = 6;
  ropts.retry.initial_backoff_ms = 5.0;
  ropts.retry.max_backoff_ms = 50.0;
  ResilientClient client(std::move(ropts));

  // First dial is reset the moment it is accepted; the retry redials.
  Request probe;
  probe.kind = RequestKind::kHealth;
  util::StatusOr<Response> response = client.Call(probe);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kOk);
  EXPECT_EQ(util::FailPoint::FailureCount("server.accept.reset"), 1);
  EXPECT_EQ(client.StatsSnapshot().dials, 1u);  // one successful handshake
  EXPECT_GE(client.StatsSnapshot().resumed_calls, 1u);
}

TEST(ScrubberTest, RunOnceHealsADegradedDatabase) {
  const std::string dir = ::testing::TempDir() + "/scrub_media";
  (void)::mkdir(dir.c_str(), 0755);
  const std::string name = "scrubbable";
  synth::VideoScript script = synth::QuickScript(43);
  script.name = name;
  const synth::GeneratedVideo g = synth::GenerateVideo(script);
  const codec::CmvFile container = core::PackGeneratedVideo(g);
  ASSERT_TRUE(container.SaveToFile(dir + "/" + name + ".cmv").ok());
  const std::string db_path = dir + "/scrub.cmdb";
  {
    util::StatusOr<core::MiningResult> mined =
        core::MineCmvFileFast(container, core::MiningOptions());
    ASSERT_TRUE(mined.ok());
    index::VideoDatabase db;
    db.AddVideo(name, std::move(mined->structure), std::move(mined->events),
                /*degraded=*/true);
    ASSERT_TRUE(index::SaveDatabase(db, db_path).ok());
  }
  ASSERT_FALSE(index::VerifyDatabaseFile(db_path).clean());

  ScrubberOptions options;
  options.db_path = db_path;
  options.env.media_dir = dir;
  IntegrityScrubber scrubber(std::move(options));
  scrubber.RunOnce();

  ScrubberStats stats = scrubber.StatsSnapshot();
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.dirty_found, 1u);
  EXPECT_EQ(stats.repairs, 1u);
  EXPECT_EQ(stats.repair_failures, 0u);
  EXPECT_TRUE(stats.last_clean);
  EXPECT_TRUE(stats.ever_ran);
  EXPECT_TRUE(index::VerifyDatabaseFile(db_path).clean());

  // A second pass finds a clean library and repairs nothing.
  scrubber.RunOnce();
  stats = scrubber.StatsSnapshot();
  EXPECT_EQ(stats.passes, 2u);
  EXPECT_EQ(stats.repairs, 1u);
  EXPECT_TRUE(stats.last_clean);
}

TEST(ScrubberTest, RunOnceMigratesALegacyDatabase) {
  // A legacy CMDB file is never clean, so the scrubber's repair migrates
  // it to a 1-shard library, and the compaction that follows a clean pass
  // accepts the result.
  const std::string dir = ::testing::TempDir() + "/scrub_legacy";
  (void)::mkdir(dir.c_str(), 0755);
  const std::string db_path = dir + "/legacy.cmdb";
  for (const std::string& file :
       {db_path, index::DatabaseBackupPath(db_path),
        index::ShardPath(db_path, 0), index::ShardBackupPath(db_path, 0)}) {
    std::remove(file.c_str());
  }
  index::VideoDatabase db;
  structure::ContentStructure cs;
  cs.shots.emplace_back();
  db.AddVideo("kept", std::move(cs), {});
  ASSERT_TRUE(legacy_cmdb::Write(db, db_path).ok());
  ASSERT_FALSE(index::VerifyDatabaseFile(db_path).clean());

  ScrubberOptions options;
  options.db_path = db_path;
  options.env.media_dir = dir;
  options.compact_logs = true;
  IntegrityScrubber scrubber(std::move(options));
  scrubber.RunOnce();

  const ScrubberStats stats = scrubber.StatsSnapshot();
  EXPECT_EQ(stats.dirty_found, 1u);
  EXPECT_EQ(stats.repairs, 1u);
  EXPECT_EQ(stats.compaction_failures, 0u);
  EXPECT_TRUE(stats.last_clean);
  const index::VerifyReport verify = index::VerifyDatabaseFile(db_path);
  EXPECT_TRUE(verify.clean()) << verify.ToString();
  EXPECT_FALSE(verify.legacy);
  EXPECT_EQ(verify.shards, 1);
  EXPECT_EQ(verify.videos, 1);
}

TEST_F(ServerTest, BackgroundScrubberHealsWhileServingAndReportsInHealth) {
  const std::string dir = ::testing::TempDir() + "/bg_scrub_media";
  (void)::mkdir(dir.c_str(), 0755);
  const std::string name = "bg_scrub";
  synth::VideoScript script = synth::QuickScript(47);
  script.name = name;
  const synth::GeneratedVideo g = synth::GenerateVideo(script);
  const codec::CmvFile container = core::PackGeneratedVideo(g);
  ASSERT_TRUE(container.SaveToFile(dir + "/" + name + ".cmv").ok());
  const std::string db_path = dir + "/bg.cmdb";
  {
    util::StatusOr<core::MiningResult> mined =
        core::MineCmvFileFast(container, core::MiningOptions());
    ASSERT_TRUE(mined.ok());
    index::VideoDatabase db;
    db.AddVideo(name, std::move(mined->structure), std::move(mined->events),
                /*degraded=*/true);
    ASSERT_TRUE(index::SaveDatabase(db, db_path).ok());
  }

  ServerOptions options;
  options.media_dir = dir;
  options.scrub_db_path = db_path;
  options.scrub_interval_ms = 25;
  options.scrub_max_yield_ms = 100;
  StartServer(std::move(options));

  // Client traffic in parallel with the scrub: the daemon keeps serving.
  Session client = Connect(MakeHello("reader", 3));
  ASSERT_TRUE(client.ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server_->StatsSnapshot().scrub_repairs < 1) {
    util::StatusOr<Response> poke = (*client)->Call([] {
      Request r;
      r.kind = RequestKind::kHealth;
      return r;
    }());
    ASSERT_TRUE(poke.ok());
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "scrubber never repaired the database";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(index::VerifyDatabaseFile(db_path).clean());

  // Wait for the confirming pass to publish, then health reflects it.
  while (!server_->StatsSnapshot().scrub_repairs ||
         server_->StatsSnapshot().scrub_passes < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  util::StatusOr<std::string> body =
      (*client)->CallForReport(RequestKind::kHealth, {});
  ASSERT_TRUE(body.ok());
  EXPECT_NE(body->find("scrub: enabled"), std::string::npos);
  EXPECT_NE(body->find("last scrub: clean"), std::string::npos);
  const ServerStats stats = server_->StatsSnapshot();
  EXPECT_GE(stats.scrub_passes, 1u);
  EXPECT_EQ(stats.scrub_dirty, 1u);
  EXPECT_EQ(stats.scrub_repairs, 1u);
  EXPECT_EQ(stats.scrub_repair_failures, 0u);
}

}  // namespace
}  // namespace classminer::server
