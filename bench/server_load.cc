// Multi-client load driver for classminerd: starts the daemon in-process,
// hammers it from concurrent client sessions, and records request latency
// percentiles, throughput, and the observability counters (admission
// rejections, deadline misses) into BENCH_server.json.
//
// Three throughput phases:
//   serial     — sessions with one request at a time (the baseline shape);
//   pipelined  — sessions with --pipeline-depth requests in flight while
//                --idle-conns parked connections sit on the reactor;
//   cache_hit  — a fresh daemon with the result cache on, so every request
//                after the first is served from the shared mining cache.
// The serial/pipelined phases run with the cache disabled so they measure
// the transport, not the cache.
//
//   server_load [out.json] [clients] [requests-per-client]
//               [--idle-conns N] [--pipeline-depth D]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/cmv_pipeline.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "synth/corpus.h"
#include "util/parse.h"
#include "util/retry.h"

namespace {

using namespace classminer;

std::string WriteTestContainer(const std::string& path) {
  const synth::GeneratedVideo g =
      synth::GenerateVideo(synth::QuickScript(17));
  const codec::CmvFile file = core::PackGeneratedVideo(g);
  const util::Status saved = file.SaveToFile(path);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    std::abort();
  }
  return path;
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const size_t rank = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

struct PhaseResult {
  std::vector<double> latencies_ms;
  double wall_seconds = 0.0;
  int failures = 0;
  double p50() const { return Percentile(latencies_ms, 0.50); }
  double p99() const { return Percentile(latencies_ms, 0.99); }
  double qps() const {
    return wall_seconds > 0 ? latencies_ms.size() / wall_seconds : 0.0;
  }
};

// Serial sessions: one request at a time per session (pipeline depth 1),
// util::Retry absorbing admission rejections — the baseline workload
// shape.
PhaseResult RunSerialPhase(int port, const std::string& cmv, int clients,
                           int per_client) {
  std::vector<std::vector<double>> latencies(static_cast<size_t>(clients));
  std::atomic<int> failures{0};
  bench::WallTimer wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      server::SessionHello hello;
      hello.user = "load" + std::to_string(c);
      hello.clearance = 3;
      util::StatusOr<std::unique_ptr<server::PipelinedClient>> client =
          server::PipelinedClient::Connect("127.0.0.1", port, hello);
      if (!client.ok()) {
        ++failures;
        return;
      }
      util::RetryOptions retry;
      retry.max_attempts = 64;
      retry.initial_backoff_ms = 2.0;
      retry.max_backoff_ms = 200.0;
      retry.jitter_seed = 1000 + static_cast<uint64_t>(c);
      for (int r = 0; r < per_client; ++r) {
        bench::WallTimer timer;
        util::StatusOr<std::string> report = util::RetryOr<std::string>(
            retry, [&]() -> util::StatusOr<std::string> {
              return (*client)->CallForReport(server::RequestKind::kMine,
                                              {cmv, "--fast"});
            });
        if (report.ok()) {
          latencies[static_cast<size_t>(c)].push_back(timer.Seconds() *
                                                      1000.0);
        } else {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseResult result;
  result.wall_seconds = wall.Seconds();
  for (const std::vector<double>& per : latencies) {
    result.latencies_ms.insert(result.latencies_ms.end(), per.begin(),
                               per.end());
  }
  result.failures = failures.load();
  return result;
}

// Pipelined sessions: `depth` requests in flight per session, responses
// completing out of order. An admission rejection (kUnavailable inside the
// response) is re-offered with backoff; the latency of a request spans its
// first issue to its accepted response, retries included.
PhaseResult RunPipelinedPhase(int port, const std::string& cmv, int clients,
                              int per_client, int depth) {
  std::vector<std::vector<double>> latencies(static_cast<size_t>(clients));
  std::atomic<int> failures{0};
  bench::WallTimer wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      server::SessionHello hello;
      hello.user = "pipe" + std::to_string(c);
      hello.clearance = 3;
      util::StatusOr<std::unique_ptr<server::PipelinedClient>> client =
          server::PipelinedClient::Connect("127.0.0.1", port, hello);
      if (!client.ok()) {
        ++failures;
        return;
      }
      const auto make_request = [&] {
        server::Request request;
        request.kind = server::RequestKind::kMine;
        request.args = {cmv, "--fast"};
        return request;
      };
      struct Slot {
        bench::WallTimer timer;  // spans retries: first issue -> accepted
        int attempts = 0;
        std::future<util::StatusOr<server::Response>> future;
      };
      std::deque<Slot> window;
      int issued = 0;
      const auto issue = [&](Slot slot) {
        ++slot.attempts;
        slot.future = (*client)->AsyncCall(make_request());
        window.push_back(std::move(slot));
      };
      while (issued < per_client || !window.empty()) {
        while (issued < per_client &&
               static_cast<int>(window.size()) < depth) {
          issue(Slot{});
          ++issued;
        }
        Slot slot = std::move(window.front());
        window.pop_front();
        util::StatusOr<server::Response> response = slot.future.get();
        if (!response.ok()) {  // transport death: nothing will complete
          ++failures;
          return;
        }
        if (response->code == util::StatusCode::kUnavailable &&
            slot.attempts < 64) {
          std::this_thread::sleep_for(std::chrono::milliseconds(
              std::min(200, 2 << std::min(slot.attempts, 6))));
          issue(std::move(slot));
          continue;
        }
        if (response->ok()) {
          latencies[static_cast<size_t>(c)].push_back(slot.timer.Seconds() *
                                                      1000.0);
        } else {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseResult result;
  result.wall_seconds = wall.Seconds();
  for (const std::vector<double>& per : latencies) {
    result.latencies_ms.insert(result.latencies_ms.end(), per.begin(),
                               per.end());
  }
  result.failures = failures.load();
  return result;
}

}  // namespace

int Usage() {
  std::fprintf(stderr,
               "usage: server_load [out.json] [clients] "
               "[requests-per-client] [--idle-conns N] "
               "[--pipeline-depth D]\n");
  return 2;
}

int main(int argc, char** argv) {
  std::string out_path = "BENCH_server.json";
  int clients = 8;
  int per_client = 8;
  int idle_conns = 64;
  int pipeline_depth = 4;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool parsed = true;
    if (arg == "--idle-conns" && i + 1 < argc) {
      parsed = util::ParseFlag(util::ParseIntArg(argv[++i], "--idle-conns"),
                               &idle_conns);
    } else if (arg == "--pipeline-depth" && i + 1 < argc) {
      parsed = util::ParseFlag(
          util::ParseIntArg(argv[++i], "--pipeline-depth"), &pipeline_depth);
    } else if (positional == 0) {
      out_path = arg;
      ++positional;
    } else if (positional == 1) {
      parsed = util::ParseFlag(util::ParseIntArg(arg, "clients", 0), &clients);
      ++positional;
    } else if (positional == 2) {
      parsed = util::ParseFlag(
          util::ParseIntArg(arg, "requests-per-client", 0), &per_client);
      ++positional;
    } else {
      parsed = false;
    }
    if (!parsed) return Usage();
  }
  if (pipeline_depth < 1) pipeline_depth = 1;
  if (idle_conns < 0) idle_conns = 0;

  const std::string cmv = WriteTestContainer("/tmp/server_load.cmv");

  // Daemon 1: result cache OFF, so the serial and pipelined phases measure
  // the transport (every request runs the full mining pipeline).
  server::ServerOptions options;
  options.worker_threads = 4;
  options.max_queue = 4;  // small bound so the burst provokes rejections
  options.enable_result_cache = false;
  server::ClassMinerServer daemon(options);
  const util::Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  std::printf(
      "classminerd on port %d: %d clients x %d requests, depth %d, "
      "%d idle conns\n",
      daemon.port(), clients, per_client, pipeline_depth, idle_conns);

  const PhaseResult serial =
      RunSerialPhase(daemon.port(), cmv, clients, per_client);
  std::printf("serial    ok %zu  p50 %.1f ms  p99 %.1f ms  %.2f q/s\n",
              serial.latencies_ms.size(), serial.p50(), serial.p99(),
              serial.qps());

  // Park idle connections on the reactor for the pipelined phase: they
  // cost fd table entries, not threads.
  std::vector<int> idle_fds;
  for (int i = 0; i < idle_conns; ++i) {
    util::StatusOr<int> fd = server::ConnectTo("127.0.0.1", daemon.port());
    if (fd.ok()) idle_fds.push_back(*fd);
  }
  const PhaseResult pipelined = RunPipelinedPhase(
      daemon.port(), cmv, clients, per_client, pipeline_depth);
  std::printf("pipelined ok %zu  p50 %.1f ms  p99 %.1f ms  %.2f q/s\n",
              pipelined.latencies_ms.size(), pipelined.p50(),
              pipelined.p99(), pipelined.qps());
  for (int fd : idle_fds) server::CloseFd(fd);

  // Deadline phase: impossible 1 ms deadlines must come back
  // kDeadlineExceeded, never hang. (Needs the cache off: a cache hit would
  // answer before the deadline monitor ever saw the request.)
  int deadline_hits = 0;
  {
    server::SessionHello hello;
    hello.user = "deadline";
    hello.clearance = 3;
    util::StatusOr<std::unique_ptr<server::PipelinedClient>> client =
        server::PipelinedClient::Connect("127.0.0.1", daemon.port(), hello);
    if (client.ok()) {
      for (int i = 0; i < 8; ++i) {
        util::StatusOr<std::string> report = (*client)->CallForReport(
            server::RequestKind::kMine, {cmv, "--fast"}, /*deadline_ms=*/1);
        if (report.status().code() ==
            util::StatusCode::kDeadlineExceeded) {
          ++deadline_hits;
        }
      }
    }
  }

  const server::ServerStats stats = daemon.StatsSnapshot();
  daemon.Stop();
  const server::ServerStats final_stats = daemon.StatsSnapshot();

  // Daemon 2: result cache ON. Pipelined sessions re-mining one container
  // measure cache-hit throughput — the first request runs the pipeline,
  // everything after it is served from the shared result cache.
  server::ServerOptions cached_options = options;
  cached_options.enable_result_cache = true;
  server::ClassMinerServer cached_daemon(cached_options);
  PhaseResult cache_hit;
  server::ServerStats cache_stats;
  const util::Status cached_started = cached_daemon.Start();
  if (cached_started.ok()) {
    cache_hit = RunPipelinedPhase(cached_daemon.port(), cmv, clients,
                                  per_client, pipeline_depth);
    std::printf("cache_hit ok %zu  p50 %.2f ms  p99 %.2f ms  %.2f q/s\n",
                cache_hit.latencies_ms.size(), cache_hit.p50(),
                cache_hit.p99(), cache_hit.qps());
    cache_stats = cached_daemon.StatsSnapshot();
    cached_daemon.Stop();
  } else {
    std::fprintf(stderr, "%s\n", cached_started.ToString().c_str());
  }

  const int failures =
      serial.failures + pipelined.failures + cache_hit.failures;
  std::printf(
      "rejected %llu  deadline %llu  pipelined %llu  streamed %llu  "
      "cache %llu/%llu/%llu  failures %d\n",
      static_cast<unsigned long long>(stats.rejected_admission),
      static_cast<unsigned long long>(stats.deadline_exceeded),
      static_cast<unsigned long long>(stats.requests_pipelined),
      static_cast<unsigned long long>(stats.responses_streamed),
      static_cast<unsigned long long>(cache_stats.cache_hits),
      static_cast<unsigned long long>(cache_stats.cache_joined),
      static_cast<unsigned long long>(cache_stats.cache_misses), failures);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"benchmark\": \"bench/server_load.cc (classminerd "
               "multi-client load driver)\",\n");
  std::fprintf(
      out,
      "  \"description\": \"In-process epoll-reactor classminerd serving "
      "%d concurrent sessions, %d compressed-domain mine requests each "
      "(queue bound %d over %d workers). serial: sessions with one request "
      "at a time, result cache off. pipelined: sessions with %d "
      "requests in flight while %d idle connections sit on the reactor, "
      "cache off. cache_hit: fresh daemon with the shared result cache "
      "on. deadline: 8 requests carrying an impossible 1 ms deadline. "
      "Latencies are end-to-end per request, including retry backoff.\",\n",
      clients, per_client, options.max_queue, options.worker_threads,
      pipeline_depth, idle_conns);
  std::fprintf(out, "  \"command\": \"./build/bench/server_load\",\n");
  std::fprintf(out, "  \"environment\": {\n");
  std::fprintf(out, "    \"date\": \"2026-08-08\",\n");
  std::fprintf(out, "    \"cpus\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "    \"build_type\": \"Release\",\n");
  std::fprintf(out,
               "    \"note\": \"Loopback TCP, synthetic 17-scene container, "
               "mine --fast (compressed-domain). PR6 thread-per-connection "
               "baseline for the serial shape: p50 7620.05 ms, p99 7855.96 "
               "ms, 1.05 q/s over 64 requests. reader_threads is the "
               "daemon's per-connection read threads (always 0 for the "
               "reactor).\"\n");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"results\": [\n");
  const auto phase_row = [&](const char* name, const PhaseResult& r,
                             const char* tail) {
    std::fprintf(out,
                 "    { \"name\": \"%s\", \"requests_completed\": %zu, "
                 "\"latency_p50_ms\": %.2f, \"latency_p99_ms\": %.2f, "
                 "\"queries_per_second\": %.2f, \"wall_seconds\": %.2f "
                 "}%s\n",
                 name, r.latencies_ms.size(), r.p50(), r.p99(), r.qps(),
                 r.wall_seconds, tail);
  };
  phase_row("serial_phase", serial, ",");
  phase_row("pipelined_phase", pipelined, ",");
  phase_row("cache_hit_phase", cache_hit, ",");
  std::fprintf(out,
               "    { \"name\": \"deadline_phase\", \"requests_sent\": 8, "
               "\"deadline_requests_refused\": %d }\n",
               deadline_hits);
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"idle_connections\": %d,\n", idle_conns);
  std::fprintf(out, "  \"pipeline_depth\": %d,\n", pipeline_depth);
  std::fprintf(out, "  \"client_failures\": %d,\n", failures);
  std::fprintf(out, "  \"rejected_admission\": %llu,\n",
               static_cast<unsigned long long>(stats.rejected_admission));
  std::fprintf(out, "  \"deadline_exceeded\": %llu,\n",
               static_cast<unsigned long long>(stats.deadline_exceeded));
  std::fprintf(out, "  \"requests_pipelined\": %llu,\n",
               static_cast<unsigned long long>(stats.requests_pipelined));
  std::fprintf(out, "  \"reader_threads\": %llu,\n",
               static_cast<unsigned long long>(stats.reader_threads));
  std::fprintf(out, "  \"cache_hits\": %llu,\n",
               static_cast<unsigned long long>(cache_stats.cache_hits));
  std::fprintf(out, "  \"cache_joined\": %llu,\n",
               static_cast<unsigned long long>(cache_stats.cache_joined));
  std::fprintf(out, "  \"cache_misses\": %llu,\n",
               static_cast<unsigned long long>(cache_stats.cache_misses));
  std::fprintf(out, "  \"requests_received\": %llu,\n",
               static_cast<unsigned long long>(stats.requests_received));
  std::fprintf(out, "  \"connections_accepted\": %llu,\n",
               static_cast<unsigned long long>(stats.connections_accepted));
  std::fprintf(out, "  \"connections_leaked\": %llu\n",
               static_cast<unsigned long long>(final_stats.connections_active));
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return failures == 0 ? 0 : 1;
}
