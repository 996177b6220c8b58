// Unit tests of the benchmark's own code: order statistics and the tail
// choice, span self time, seeded input generation, and failure accounting
// of a daemon call.

#include <gtest/gtest.h>

#include <vector>

#include "bench_util.h"
#include "core/cmv_pipeline.h"
#include "inputs.h"
#include "server/client.h"
#include "server/server.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(PercentileRank(10, 50.0), 5u);
  EXPECT_EQ(PercentileRank(10, 90.0), 9u);
  EXPECT_EQ(PercentileRank(10, 99.0), 10u);
  EXPECT_EQ(PercentileRank(10, 0.0), 1u);
  EXPECT_EQ(PercentileRank(1, 50.0), 1u);
  EXPECT_EQ(PercentileRank(0, 50.0), 0u);
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  EXPECT_EQ(Percentile(samples, 50.0), 50.0);
  EXPECT_EQ(Percentile(samples, 99.0), 99.0);
  EXPECT_EQ(Percentile(samples, 100.0), 100.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
}

TEST(PercentileTest, TailKeepsTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(0), 0.0);
  EXPECT_EQ(TailPercentile(19), 0.0);    // not even the median
  EXPECT_EQ(TailPercentile(20), 50.0);   // rank 10, 10 beyond
  EXPECT_EQ(TailPercentile(39), 50.0);   // p75 would leave 9
  EXPECT_EQ(TailPercentile(40), 75.0);
  EXPECT_EQ(TailPercentile(99), 75.0);   // p90 would leave 9
  EXPECT_EQ(TailPercentile(100), 90.0);
  EXPECT_EQ(TailPercentile(200), 95.0);
  EXPECT_EQ(TailPercentile(999), 95.0);  // p99 would leave 9
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(TailPercentile(1000000), 99.0);  // the ladder tops out at p99
  for (size_t n = 1; n < 3000; ++n) {
    const double p = TailPercentile(n);
    if (p > 0.0) EXPECT_GE(n - PercentileRank(n, p), 10u) << n;
  }
}

TEST(PercentileTest, SlicedWindowShrugsOffAStalledSecond) {
  // Ten 1 s slices of 100 ops at 1 ms; slice 3 stalls: 10 ops at 50 ms.
  LatencyLog log;
  for (int s = 0; s < 10; ++s) {
    const int n = s == 3 ? 10 : 100;
    for (int i = 0; i < n; ++i) {
      log.Add(100.0 + s + (i + 0.5) / n, s == 3 ? 50.0 : 1.0);
    }
  }
  log.attempted = log.ms.size();
  RunResult whole, sliced;
  ReportLatency(log, log, {100.0, 10.0, 1.0, 99.0, 0.0}, &whole);
  ReportLatency(log, log, {100.0, 10.0, 1.0, 99.0, 1.0}, &sliced);
  EXPECT_DOUBLE_EQ(whole.metrics["ops_per_s"].value, 91.0);
  EXPECT_DOUBLE_EQ(whole.metrics["latency_tail_ms"].value, 50.0);
  EXPECT_DOUBLE_EQ(sliced.metrics["ops_per_s"].value, 100.0);
  EXPECT_DOUBLE_EQ(sliced.metrics["latency_tail_ms"].value, 1.0);
  EXPECT_DOUBLE_EQ(sliced.metrics["latency_p50_ms"].value, 1.0);
  EXPECT_EQ(sliced.attempted, 910u);
}

TEST(TraceTest, SelfTimeSubtractsChildrenOnce) {
  EXPECT_DOUBLE_EQ(SelfTime(0.0, 10.0, {}), 10.0);
  EXPECT_DOUBLE_EQ(SelfTime(0.0, 10.0, {{1.0, 3.0}, {5.0, 6.0}}), 7.0);
  // Overlapping children (concurrent work) are covered once.
  EXPECT_DOUBLE_EQ(SelfTime(0.0, 10.0, {{1.0, 4.0}, {2.0, 5.0}}), 6.0);
  // Children spilling past the parent are clipped.
  EXPECT_DOUBLE_EQ(SelfTime(2.0, 4.0, {{0.0, 3.0}}), 1.0);
}

TEST(TraceTest, SpansNestAndDisabledTracerRecordsNothing) {
  Tracer tracer(true);
  {
    Span outer(&tracer, "outer", 7);
    Span inner(&tracer, "inner");
  }
  const std::vector<SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].request, 7);  // inherited from the parent
  EXPECT_GE(spans[0].end_s, spans[1].end_s);
  Tracer off(false);
  { Span s(&off, "x"); }
  EXPECT_EQ(off.span_count(), 0u);
}

TEST(InputsTest, SameSeedSameBytesOtherSeedOtherBytes) {
  for (const char* w : {"ingest", "serve_hot", "serve_browse", "library"}) {
    const std::vector<uint8_t> a = InputBytes(w, 42);
    EXPECT_FALSE(a.empty()) << w;
    EXPECT_EQ(a, InputBytes(w, 42)) << w;
    EXPECT_NE(a, InputBytes(w, 43)) << w;
  }
}

TEST(InputsTest, ContainersAreByteIdenticalPerSeed) {
  const auto encode = [](uint64_t seed) {
    const synth::VideoScript script = HotScripts(seed)[0];
    return cm::core::PackGeneratedVideo(synth::GenerateVideo(script))
        .Serialize();
  };
  const std::vector<uint8_t> a = encode(5);
  EXPECT_EQ(a, encode(5));
  EXPECT_NE(a, encode(6));
}

TEST(InputsTest, BrowsePoolIsBalancedAndValid) {
  for (uint64_t seed = 1; seed < 20; ++seed) {
    const std::vector<BrowseRequest> pool = BrowsePool(seed, 8);
    ASSERT_EQ(pool.size(), static_cast<size_t>(kBrowsePool));
    size_t total = 0;
    for (const BrowseRequest& r : pool) {
      total += r.containers.size();
      EXPECT_GE(r.clearance, 0);
      EXPECT_LE(r.clearance, 3);
      std::vector<int> sorted = r.containers;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
    }
    EXPECT_EQ(total, 16u);  // same amount of work at every seed
  }
}

TEST(ResultTest, JsonLine) {
  RunResult r;
  r.attempted = 3;
  r.failed = 1;
  r.correct = false;
  r.Set("latency_p50_ms", 1.5, "ms");
  EXPECT_EQ(ResultJson(r),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, "
            "\"metrics\": {\"latency_p50_ms\": {\"value\": 1.5, "
            "\"unit\": \"ms\"}}}");
}

TEST(ServeTest, MissingContainerCountsAsFailedNotFatal) {
  cm::server::ClassMinerServer server{cm::server::ServerOptions()};
  ASSERT_TRUE(server.Start().ok());
  cm::server::SessionHello hello;
  hello.user = "test";
  hello.clearance = 3;
  auto client =
      cm::server::PipelinedClient::Connect("127.0.0.1", server.port(), hello);
  ASSERT_TRUE(client.ok());
  LatencyLog log;
  cm::server::Request browse;
  browse.kind = cm::server::RequestKind::kBrowse;
  browse.args = {"/nonexistent/missing.cmv"};
  EXPECT_FALSE(TimedCall(client->get(), browse, nullptr, &log, nullptr,
                         nullptr));
  EXPECT_EQ(log.attempted, 1u);
  EXPECT_EQ(log.failed, 1u);
  EXPECT_TRUE(log.ms.empty());
  // The session survives and the loop goes on.
  cm::server::Request health;
  health.kind = cm::server::RequestKind::kHealth;
  EXPECT_TRUE(TimedCall(client->get(), health, nullptr, &log, nullptr,
                        nullptr));
  EXPECT_EQ(log.attempted, 2u);
  EXPECT_EQ(log.failed, 1u);
  EXPECT_EQ(log.ms.size(), 1u);
  // A body that differs from the expected one is a failure too.
  const std::string wrong = "not the report";
  EXPECT_FALSE(TimedCall(client->get(), health, &wrong, &log, nullptr,
                         nullptr));
  EXPECT_EQ(log.failed, 2u);
  (*client)->Close();
  server.Stop();
}

}  // namespace
}  // namespace perfbench
