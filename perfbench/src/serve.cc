// serve_hot and serve_browse: clinicians and students reading through the
// daemon. An in-process ClassMinerServer with default options; callers are
// closed loops (each waits for its reply before sending the next request),
// as the CLI, classminer-client and ResilientClient are.

#include <sys/stat.h>

#include <memory>
#include <thread>

#include "codec/container.h"
#include "core/cmv_pipeline.h"
#include "index/shard.h"
#include "inputs.h"
#include "server/client.h"
#include "server/ops.h"
#include "server/server.h"
#include "workload.h"

namespace perfbench {

using cm::server::PipelinedClient;
using cm::server::Request;
using cm::server::RequestKind;

bool TimedCall(PipelinedClient* session, const Request& request,
               const std::string* expected, LatencyLog* log,
               std::vector<double>* latency_ms, uint64_t* body_bytes) {
  ++log->attempted;
  const double t0 = NowSeconds();
  const cm::util::StatusOr<cm::server::Response> reply = session->Call(request);
  const double done = NowSeconds();
  const bool ok = reply.ok() && reply->ok() &&
                  (expected == nullptr || reply->body == *expected);
  if (!ok) {
    ++log->failed;
    return false;
  }
  const double ms = 1000.0 * (done - t0);
  log->Add(done, ms);
  if (latency_ms != nullptr) latency_ms->push_back(ms);
  if (body_bytes != nullptr) *body_bytes += reply->body.size();
  return true;
}

namespace {

// The archive an operator keeps of what is served: every container mined
// once (as `classminer index` does) for upserts into a sharded library.
std::vector<cm::index::VideoEntry> MineEntries(
    const std::vector<Container>& containers, RunResult* result) {
  cm::core::MiningOptions mining;
  mining.thread_count = kCallerThreads / 2;
  mining.failure_policy = cm::core::FailurePolicy::kDegraded;
  std::vector<cm::index::VideoEntry> entries(containers.size());
  std::vector<std::string> errors(containers.size());
  ParallelFor(static_cast<int>(containers.size()), 2, [&](int i) {
    const Container& c = containers[static_cast<size_t>(i)];
    auto file = cm::codec::CmvFile::LoadFromFile(c.path);
    auto mined = file.ok() ? cm::core::MineCmvFile(*file, mining)
                           : cm::util::StatusOr<cm::core::MiningResult>(
                                 file.status());
    if (!mined.ok()) {
      errors[static_cast<size_t>(i)] = c.name + ": " + mined.status().ToString();
      return;
    }
    entries[static_cast<size_t>(i)] = cm::index::VideoEntry{
        0, file->name, mined->structure, mined->events, mined->degraded};
  });
  for (const std::string& e : errors) {
    if (!e.empty()) result->Fail(e);
  }
  return entries;
}

// Builds the archive library in `dir` with one synced upsert per entry;
// upsert latencies land in `upsert_ms`. Returns the library path.
std::string BuildArchive(const std::string& dir,
                         const std::vector<cm::index::VideoEntry>& entries,
                         std::vector<double>* upsert_ms, RunResult* result) {
  mkdir(dir.c_str(), 0755);
  const std::string path = dir + "/archive.cmsm";
  cm::index::ShardedDatabase::Options options;
  options.shard_count = kShards;
  options.sync_appends = true;
  auto db = cm::index::ShardedDatabase::Create(path, options);
  if (!db.ok()) {
    result->Fail("archive: " + db.status().ToString());
    return path;
  }
  for (const cm::index::VideoEntry& e : entries) {
    const double t0 = NowSeconds();
    const cm::util::Status s =
        (*db)->Upsert(e.name, e.structure, e.events, e.degraded);
    upsert_ms->push_back(1000.0 * (NowSeconds() - t0));
    if (!s.ok()) result->Fail("archive upsert: " + s.ToString());
  }
  return path;
}

std::unique_ptr<PipelinedClient> Connect(int port, const std::string& user,
                                         int clearance, RunResult* result) {
  cm::server::SessionHello hello;
  hello.user = user;
  hello.clearance = clearance;
  auto client = PipelinedClient::Connect("127.0.0.1", port, hello);
  if (!client.ok()) {
    result->Fail("connect: " + client.status().ToString());
    return nullptr;
  }
  return std::move(*client);
}

// The archive's space and (traced runs) write latency.
void ReportArchive(const std::string& archive,
                   const std::vector<cm::index::VideoEntry>& entries,
                   const std::vector<double>& upsert_ms, RunResult* result) {
  cm::index::VideoDatabase live;
  for (const cm::index::VideoEntry& e : entries) {
    live.AddVideo(e.name, e.structure, e.events, e.degraded);
  }
  ReportSpace(archive, live, result);
  result->Set("write_latency_p50_ms", Median(upsert_ms), "ms");
}

// Probes every layer a serve workload does not exercise itself: the mining
// layers on `mining_probe`, the rest on the workload's own containers and
// archive.
void ProbeLayers(const Container& mining_probe,
                 const std::vector<Container>& containers,
                 const std::string& archive, Tracer* tracer,
                 RunResult* result) {
  ProbeMiningLayers(mining_probe, tracer, result);
  ProbeIndexLayer(archive, tracer, result);
  ProbeServerLayer(containers, tracer, result);
  std::vector<std::string> paths;
  for (const Container& c : containers) paths.push_back(c.path);
  ProbeCrc(paths, result);
}

}  // namespace

// ---------------------------------------------------------------------------

constexpr int kHotSessions = 2;

RunResult RunServeHot(const WorkloadArgs& args) {
  RunResult result;
  Tracer tracer(args.trace);
  const double inputs_t0 = NowSeconds();
  const std::string media = args.work_dir + "/media";
  mkdir(media.c_str(), 0755);
  const std::vector<Container> containers =
      WriteContainers(HotScripts(args.seed), media, kCallerThreads,
                      /*with_audio=*/false);
  const std::vector<cm::index::VideoEntry> entries =
      MineEntries(containers, &result);
  const int keys = static_cast<int>(containers.size()) * kHotVariants;
  result.Note("serve_hot: " + std::to_string(containers.size()) +
              " containers, " + std::to_string(keys) +
              " distinct keys against a 256-entry / 64 MiB result cache");

  const auto request_of = [&](int key) {
    Request r;
    const HotKey k = HotKeyOf(key);
    const std::string& path = containers[static_cast<size_t>(k.container)].path;
    if (k.skim_level == 0) {
      r.kind = RequestKind::kMine;
      r.args = {path, "--fast"};
    } else {
      r.kind = RequestKind::kSkim;
      r.args = {path, std::to_string(k.skim_level)};
    }
    return r;
  };

  const double inputs_s = NowSeconds() - inputs_t0;

  std::unique_ptr<cm::server::ClassMinerServer> server;
  std::vector<std::unique_ptr<PipelinedClient>> sessions;
  std::vector<std::string> warm(static_cast<size_t>(keys));
  std::vector<double> archive_upsert_ms;
  std::string archive;
  const double setup_s = MedianSetUp(kSetUpRepetitions, [&](int rep) {
    sessions.clear();
    server.reset();
    archive = BuildArchive(args.work_dir + "/archive" + std::to_string(rep),
                           entries, &archive_upsert_ms, &result);
    server = std::make_unique<cm::server::ClassMinerServer>(
        cm::server::ServerOptions());
    if (!server->Start().ok()) {
      result.Fail("daemon did not start");
      return;
    }
    for (int s = 0; s < kHotSessions; ++s) {
      sessions.push_back(Connect(server->port(), "hot", 3, &result));
      if (sessions.back() == nullptr) return;
    }
    // Warm every key once, four callers at a time.
    std::vector<std::thread> callers;
    for (int t = 0; t < kCallerThreads; ++t) {
      callers.emplace_back([&, t] {
        for (int k = t; k < keys; k += kCallerThreads) {
          auto r = sessions[static_cast<size_t>(t % kHotSessions)]->Call(
              request_of(k));
          if (r.ok() && r->ok()) warm[static_cast<size_t>(k)] = r->body;
        }
      });
    }
    for (std::thread& c : callers) c.join();
  });
  for (int k = 0; k < keys; ++k) {
    if (warm[static_cast<size_t>(k)].empty()) result.Fail("warm-up failed");
  }
  if (!result.correct) return result;

  // Window: each session is shared by two synchronous callers, so it keeps
  // two requests in flight (four client threads, nproc of the reference
  // host).
  std::vector<LatencyLog> logs(kCallerThreads);
  std::vector<std::vector<double>> health_ms(kCallerThreads),
      hit_ms(kCallerThreads);
  std::vector<uint64_t> bytes(kCallerThreads, 0);
  const cm::server::ServerStats s0 = server->StatsSnapshot();
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallerThreads; ++t) {
    callers.emplace_back([&, t] {
      Rng rng(DeriveSeed(args.seed, "hot.caller" + std::to_string(t)));
      PipelinedClient* session =
          sessions[static_cast<size_t>(t % kHotSessions)].get();
      Request health;
      health.kind = RequestKind::kHealth;
      for (int64_t i = 0; NowSeconds() - t0 < args.seconds; ++i) {
        const int key = NextHotRequest(&rng, keys);
        Span span(&tracer, "serve.request", (int64_t{t} << 40) | i);
        if (key < 0) {
          TimedCall(session, health, nullptr, &logs[t], &health_ms[t],
                    &bytes[t]);
        } else {
          TimedCall(session, request_of(key), &warm[static_cast<size_t>(key)],
                    &logs[t], &hit_ms[t], &bytes[t]);
        }
      }
    });
  }
  for (std::thread& c : callers) c.join();
  const double window_s = NowSeconds() - t0;
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const cm::server::ServerStats s1 = server->StatsSnapshot();
  const size_t window_spans = tracer.span_count();

  LatencyLog log;
  std::vector<double> all_health, all_hits;
  uint64_t body_bytes = 0;
  for (int t = 0; t < kCallerThreads; ++t) {
    log.Merge(logs[t]);
    all_health.insert(all_health.end(), health_ms[t].begin(), health_ms[t].end());
    all_hits.insert(all_hits.end(), hit_ms[t].begin(), hit_ms[t].end());
    body_bytes += bytes[t];
  }
  if (log.failed > 0) {
    result.Fail(std::to_string(log.failed) +
                " serve_hot response(s) failed or differed from warm-up");
  }
  ReportLatency(log, log, {t0, window_s, cpu_s, 99.0, kSliceSeconds},
                &result);
  ReportArchive(archive, entries, archive_upsert_ms, &result);
  ReportSetUp(inputs_s, setup_s, &result);

  if (args.trace) {
    // The clips have no soundtrack, so the mining probe gets one of its own.
    const std::vector<Container> probe =
        WriteContainers({ProbeScript(args.seed)}, media, 1);
    ProbeLayers(probe[0], containers, archive, &tracer, &result);
    const double hits = static_cast<double>(s1.cache_hits - s0.cache_hits);
    const double joined = static_cast<double>(s1.cache_joined - s0.cache_joined);
    const double misses = static_cast<double>(s1.cache_misses - s0.cache_misses);
    result.Set("server.health_ms_p50", Median(all_health), "ms");
    result.Set("server.queue_hop_ms", Median(all_hits) - Median(all_health),
               "ms");
    result.Set("server.cache_hit_ratio",
               hits / std::max(1.0, hits + joined + misses), "ratio");
    result.Set("server.cache_joined", joined, "count");
    result.Set("server.rejected_per_1k",
               1000.0 * static_cast<double>(s1.rejected_admission -
                                            s0.rejected_admission) /
                   static_cast<double>(std::max<uint64_t>(1, log.attempted)),
               "count");
    result.Set("server.response_bytes_per_request",
               static_cast<double>(body_bytes) /
                   static_cast<double>(std::max<size_t>(1, log.ms.size())),
               "bytes");
    result.Set("trace.ops_per_s", result.metrics["ops_per_s"].value, "1/s");
    ReportTraceOverhead(window_spans, window_s, log.ms.size(), &result);
    tracer.WriteJsonLines(args.trace_path);
  }
  sessions.clear();
  server->Stop();
  result.Set("peak_rss_mb", PeakRssMb(), "MiB");
  return result;
}

// ---------------------------------------------------------------------------

RunResult RunServeBrowse(const WorkloadArgs& args) {
  RunResult result;
  Tracer tracer(args.trace);
  const double inputs_t0 = NowSeconds();
  const std::string media = args.work_dir + "/media";
  mkdir(media.c_str(), 0755);
  const std::vector<Container> containers =
      WriteContainers(BrowseScripts(args.seed), media, kCallerThreads);
  const std::vector<cm::index::VideoEntry> entries =
      MineEntries(containers, &result);
  const std::vector<BrowseRequest> pool =
      BrowsePool(args.seed, static_cast<int>(containers.size()));
  const std::vector<int> order = BrowseOrder(args.seed, 1 << 14);
  int frames = 0;
  for (const Container& c : containers) frames += c.frames;
  result.Note("serve_browse: " + std::to_string(containers.size()) +
              " containers, " + std::to_string(frames) + " frames, " +
              std::to_string(pool.size()) + " distinct browse requests");

  // One caller at depth 1: each browse already mines on a pool as wide as
  // the host, and a second concurrent caller oversubscribed it enough that
  // host steal moved latency by 0.35 (IQR / median) between runs.
  constexpr int kCallers = 1;

  // The in-process BrowseOp answer for each distinct request: the
  // correctness reference, and its cost when run as many at a time as the
  // daemon runs them.
  std::vector<Request> requests(pool.size());
  std::vector<std::string> reference(pool.size());
  std::vector<double> direct_ms(pool.size());
  std::vector<std::string> errors(pool.size());
  ParallelFor(static_cast<int>(pool.size()), kCallers, [&](int p) {
    const BrowseRequest& b = pool[static_cast<size_t>(p)];
    Request& r = requests[static_cast<size_t>(p)];
    r.kind = RequestKind::kBrowse;
    for (const int c : b.containers) {
      r.args.push_back(containers[static_cast<size_t>(c)].path);
    }
    cm::index::UserCredential user;
    user.name = "browse";
    user.clearance = b.clearance;
    cm::server::OpDiagnostics diag;
    Span span(&tracer, "ops.browse", p);
    const double t0 = NowSeconds();
    const cm::server::OpResult op =
        cm::server::BrowseOp(r.args, false, user, cm::server::OpEnv(), &diag);
    direct_ms[static_cast<size_t>(p)] = 1000.0 * (NowSeconds() - t0);
    if (!op.ok()) errors[static_cast<size_t>(p)] = op.status.ToString();
    reference[static_cast<size_t>(p)] = op.report;
  });
  for (const std::string& e : errors) {
    if (!e.empty()) result.Fail("BrowseOp: " + e);
  }
  if (!result.correct) return result;

  const double inputs_s = NowSeconds() - inputs_t0;

  std::unique_ptr<cm::server::ClassMinerServer> server;
  // sessions[caller][clearance]: each caller holds one session per
  // clearance level and sends every request on the matching one.
  std::vector<std::vector<std::unique_ptr<PipelinedClient>>> sessions;
  std::vector<double> archive_upsert_ms;
  std::string archive;
  const double setup_s = MedianSetUp(kSetUpRepetitions, [&](int rep) {
    sessions.clear();
    server.reset();
    archive = BuildArchive(args.work_dir + "/archive" + std::to_string(rep),
                           entries, &archive_upsert_ms, &result);
    server = std::make_unique<cm::server::ClassMinerServer>(
        cm::server::ServerOptions());
    if (!server->Start().ok()) {
      result.Fail("daemon did not start");
      return;
    }
    sessions.resize(kCallers);
    for (auto& by_clearance : sessions) {
      for (int clearance = 0; clearance <= 3; ++clearance) {
        by_clearance.push_back(
            Connect(server->port(), "browse", clearance, &result));
      }
    }
  });
  if (!result.correct) return result;

  std::vector<LatencyLog> logs(kCallers);
  std::vector<std::vector<int>> sent(kCallers);  // pool index per success
  const size_t spans0 = tracer.span_count();
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c);
           i < order.size() && NowSeconds() - t0 < args.seconds;
           i += kCallers) {
        const int p = order[i];
        const BrowseRequest& b = pool[static_cast<size_t>(p)];
        Span span(&tracer, "serve.request", static_cast<int64_t>(i));
        if (TimedCall(sessions[static_cast<size_t>(c)]
                              [static_cast<size_t>(b.clearance)]
                                  .get(),
                      requests[static_cast<size_t>(p)],
                      &reference[static_cast<size_t>(p)], &logs[c], nullptr,
                      nullptr)) {
          sent[c].push_back(p);
        }
      }
    });
  }
  for (std::thread& c : callers) c.join();
  const double window_s = NowSeconds() - t0;
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const size_t window_spans = tracer.span_count() - spans0;

  LatencyLog log;
  std::vector<double> paired_direct, overhead;
  for (int c = 0; c < kCallers; ++c) {
    log.Merge(logs[c]);
    for (size_t i = 0; i < sent[c].size(); ++i) {
      const double direct = direct_ms[static_cast<size_t>(sent[c][i])];
      paired_direct.push_back(direct);
      overhead.push_back(logs[c].ms[i] - direct);
    }
  }
  if (log.failed > 0) {
    result.Fail(std::to_string(log.failed) +
                " browse response(s) failed or differed from BrowseOp");
  }
  // ~50 browses per window: p75 keeps ten samples beyond it.
  ReportLatency(log, log, {t0, window_s, cpu_s, 75.0, 0.0}, &result);
  ReportArchive(archive, entries, archive_upsert_ms, &result);
  ReportSetUp(inputs_s, setup_s, &result);

  if (args.trace) {
    ProbeLayers(containers[0], containers, archive, &tracer, &result);
    result.Set("ops.browse_ms", Median(paired_direct), "ms");
    result.Set("server.overhead_ms", Median(overhead), "ms");
    // Index build and browse tree over exactly the databases BrowseOp
    // assembles for the pool's requests.
    const cm::index::ConceptHierarchy concepts =
        cm::index::ConceptHierarchy::MedicalDefault();
    std::vector<double> build_ms, tree_ms;
    for (const BrowseRequest& b : pool) {
      cm::index::VideoDatabase db;
      for (const int c : b.containers) {
        const cm::index::VideoEntry& e = entries[static_cast<size_t>(c)];
        db.AddVideo(e.name, e.structure, e.events, e.degraded);
      }
      Span span(&tracer, "index.build");
      const double b0 = NowSeconds();
      const cm::index::HierarchicalIndex hier(&db, &concepts);
      build_ms.push_back(1000.0 * (NowSeconds() - b0));
      tree_ms.push_back(BrowseTreeMs(db));
    }
    result.Set("index.build_ms", Median(build_ms), "ms");
    result.Set("index.browse_tree_ms", Median(tree_ms), "ms");
    result.Set("trace.ops_per_s", result.metrics["ops_per_s"].value, "1/s");
    ReportTraceOverhead(window_spans, window_s, log.ms.size(), &result);
    tracer.WriteJsonLines(args.trace_path);
  }
  sessions.clear();
  server->Stop();
  result.Set("peak_rss_mb", PeakRssMb(), "MiB");
  return result;
}

}  // namespace perfbench
