// ingest: an archive operator indexing new video. One caller loads each
// container, mines it with core::MineCmvFile (full decode, 4-thread pool,
// degraded policy, as `classminer index` does) and upserts it into a fresh
// 8-shard library with sync_appends on. At the end the library is compacted
// and reopened, and must hold exactly the entries mined in the window.

#include <sys/stat.h>

#include <map>

#include "codec/container.h"
#include "core/cmv_pipeline.h"
#include "core/metrics.h"
#include "index/shard.h"
#include "inputs.h"
#include "workload.h"

namespace perfbench {

namespace {

// Per-container shot-cut floor; the window as a whole must reach 0.9.
constexpr double kContainerCutFloor = 0.8;

}  // namespace

RunResult RunIngest(const WorkloadArgs& args) {
  RunResult result;
  Tracer tracer(args.trace);
  const double inputs_t0 = NowSeconds();
  const std::string media = args.work_dir + "/media";
  mkdir(media.c_str(), 0755);
  const std::vector<Container> containers =
      WriteContainers(IngestScripts(args.seed), media, kCallerThreads);
  int frames = 0;
  for (const Container& c : containers) frames += c.frames;
  result.Note("ingest: " + std::to_string(containers.size()) +
              " containers, " + std::to_string(frames) + " frames");

  const double inputs_s = NowSeconds() - inputs_t0;

  std::unique_ptr<cm::index::ShardedDatabase> db;
  std::string db_path;
  const double setup_s = MedianSetUp(kSetUpRepetitions, [&](int rep) {
    db.reset();
    const std::string dir = args.work_dir + "/library" + std::to_string(rep);
    mkdir(dir.c_str(), 0755);
    db_path = dir + "/library.cmsm";
    cm::index::ShardedDatabase::Options options;
    options.shard_count = kShards;
    options.sync_appends = true;
    auto created = cm::index::ShardedDatabase::Create(db_path, options);
    if (!created.ok()) {
      result.Fail("create library: " + created.status().ToString());
      return;
    }
    db = std::move(*created);
  });
  ReportSetUp(inputs_s, setup_s, &result);
  if (db == nullptr) return result;

  cm::core::MiningOptions mining;
  mining.thread_count = kCallerThreads;
  mining.failure_policy = cm::core::FailurePolicy::kDegraded;

  LatencyLog log;
  cm::core::CutScore cut_totals;
  std::vector<double> upsert_ms;
  uint64_t user_bytes = 0;
  std::map<std::string, std::vector<uint8_t>> expected;  // name -> entry
  const uint64_t written0 = WrittenBytes();
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  for (size_t i = 0; NowSeconds() - t0 < args.seconds; ++i) {
    const Container& c = containers[i % containers.size()];
    ++log.attempted;
    Span op(&tracer, "ingest.op", static_cast<int64_t>(i));
    const double start = NowSeconds();
    cm::util::SalvageReport salvage;
    cm::util::StatusOr<cm::codec::CmvFile> file = cm::util::Status::Ok();
    {
      Span span(&tracer, "codec.load");
      file = cm::codec::CmvFile::LoadFromFileBestEffort(c.path, &salvage);
    }
    if (!file.ok()) {
      ++log.failed;
      result.Fail(c.name + ": " + file.status().ToString());
      continue;
    }
    cm::util::StatusOr<cm::core::MiningResult> mined = cm::util::Status::Ok();
    {
      Span span(&tracer, "core.mine");
      mined = cm::core::MineCmvFile(*file, mining);
    }
    if (!mined.ok() || mined->degraded) {
      ++log.failed;
      result.Fail(c.name + ": mining failed or degraded");
      continue;
    }
    const cm::core::CutScore cuts =
        cm::core::ScoreCuts(mined->shot_trace.cuts, c.truth.CutPositions());
    cut_totals.truth_cuts += cuts.truth_cuts;
    cut_totals.detected_cuts += cuts.detected_cuts;
    cut_totals.matched += cuts.matched;
    if (cuts.precision < kContainerCutFloor ||
        cuts.recall < kContainerCutFloor) {
      ++log.failed;
      result.Fail(c.name + ": cut precision/recall below " +
                  std::to_string(kContainerCutFloor));
      continue;
    }
    const cm::index::VideoEntry entry{0, file->name, mined->structure,
                                      mined->events, mined->degraded};
    const double u0 = NowSeconds();
    cm::util::Status up;
    {
      Span span(&tracer, "index.upsert");
      up = db->Upsert(entry.name, entry.structure, entry.events,
                      entry.degraded);
    }
    upsert_ms.push_back(1000.0 * (NowSeconds() - u0));
    if (!up.ok()) {
      ++log.failed;
      result.Fail(c.name + ": upsert: " + up.ToString());
      continue;
    }
    expected[entry.name] = FramedEntry(entry);
    user_bytes += expected[entry.name].size();
    log.Add(NowSeconds(), 1000.0 * (NowSeconds() - start));
  }
  const double window_s = NowSeconds() - t0;
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const uint64_t written = WrittenBytes() - written0;
  const size_t window_spans = tracer.span_count();
  // ~20 containers per window: no percentile above the median keeps ten
  // samples beyond it, so the tail reported is the maximum.
  ReportLatency(log, log, {t0, window_s, cpu_s, 100.0, 0.0}, &result);
  // Gate: shot cuts over every container mined in the window (micro-
  // averaged, as the paper's Fig. 5 scores a corpus) meet the 0.9 floor of
  // cmv_pipeline_test. Per container the floor is kContainerCutFloor: after
  // the codec round trip about 2% of corpus containers miss 2 of 19 cuts
  // (recall 0.895), so a per-container 0.9 would fail runs of correct code.
  const double cut_precision =
      static_cast<double>(cut_totals.matched) /
      std::max(1, cut_totals.detected_cuts);
  const double cut_recall = static_cast<double>(cut_totals.matched) /
                            std::max(1, cut_totals.truth_cuts);
  if (cut_precision < 0.9 || cut_recall < 0.9) {
    result.failed += log.ms.size();
    result.Fail("cut precision/recall over the window below 0.9");
  }
  result.Note("cuts over the window: precision " +
              std::to_string(cut_precision) + ", recall " +
              std::to_string(cut_recall));

  // Gate: compact, reopen, and find exactly the entries mined above.
  std::vector<double> compact_ms;
  {
    Span span(&tracer, "index.compact_all");
    for (int shard = 0; shard < db->shard_count(); ++shard) {
      const double c0 = NowSeconds();
      auto report = db->CompactShard(shard);
      if (!report.ok()) result.Fail("compact: " + report.status().ToString());
      if (report.ok() && !report->skipped) {
        compact_ms.push_back(1000.0 * (NowSeconds() - c0));
      }
    }
  }
  db.reset();
  const double open0 = NowSeconds();
  auto reopened = cm::index::ShardedDatabase::Open(db_path);
  const double open_ms = 1000.0 * (NowSeconds() - open0);
  if (!reopened.ok()) {
    result.Fail("reopen: " + reopened.status().ToString());
    return result;
  }
  const cm::index::VideoDatabase live = (*reopened)->Snapshot();
  bool same = live.video_count() == static_cast<int>(expected.size());
  for (int i = 0; same && i < live.video_count(); ++i) {
    cm::index::VideoEntry e = live.video(i);
    e.id = 0;
    const auto it = expected.find(e.name);
    same = it != expected.end() && it->second == FramedEntry(e);
  }
  if (!same) result.Fail("reopened library differs from the mined entries");
  ReportSpace(db_path, live, &result);
  reopened->reset();

  if (args.trace) {
    const auto self = tracer.SelfTimesMs();
    ProbeMiningLayers(containers[0], &tracer, &result);
    ProbeIndexLayer(db_path, &tracer, &result);
    ProbeServerLayer(containers, &tracer, &result);
    std::vector<std::string> paths;
    for (const Container& c : containers) paths.push_back(c.path);
    ProbeCrc(paths, &result);
    // What this workload's own window measured replaces the probes.
    result.Set("codec.load_ms", Median(self.at("codec.load")), "ms");
    result.Set("write_latency_p50_ms", Median(upsert_ms), "ms");
    std::vector<double> upsert_us;
    for (const double ms : upsert_ms) upsert_us.push_back(1000.0 * ms);
    result.Set("index.upsert_us_p50", Median(upsert_us), "us");
    result.Set("index.upsert_us_p99", Percentile(upsert_us, 99.0), "us");
    result.Set("index.write_bytes_per_user_byte",
               static_cast<double>(written) /
                   static_cast<double>(std::max<uint64_t>(1, user_bytes)),
               "ratio");
    if (!compact_ms.empty()) {
      result.Set("index.compact_ms", Median(compact_ms), "ms");
    }
    result.Set("index.open_ms", open_ms, "ms");
    result.Set("trace.ops_per_s", result.metrics["ops_per_s"].value, "1/s");
    ReportTraceOverhead(window_spans, window_s, log.ms.size(), &result);
    tracer.WriteJsonLines(args.trace_path);
  }
  result.Set("peak_rss_mb", PeakRssMb(), "MiB");
  return result;
}

}  // namespace perfbench
