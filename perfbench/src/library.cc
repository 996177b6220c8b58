// library: reads beside writes on one large sharded library. ~1,000 videos
// (the five mined corpus titles replicated under distinct names, each
// replica's shot features with its own seeded noise) are bulk-loaded into
// an 8-shard library, reopened, and indexed by HierarchicalIndex and
// LinearIndex over its Snapshot(). One caller then interleaves k = 10
// searches on noisy corpus shots with ~2% upserts that supersede existing
// names, compacting one shard every kCompactEvery upserts. An upsert
// re-indexes an entry with the same features, alternating its degraded
// flag (a damaged re-mine, then its repair), so the index content stays
// fixed while the last acknowledged version stays checkable.

#include <sys/stat.h>

#include <memory>
#include <unordered_map>

#include "core/classminer.h"
#include "index/hier_index.h"
#include "index/linear_index.h"
#include "index/shard.h"
#include "inputs.h"
#include "util/threadpool.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr int kEntries = 320;
constexpr int kCompactEvery = 64;
constexpr int kRecallQueries = 64;
constexpr double kReplicaNoise = 0.05;
constexpr double kQueryNoise = 0.05;

// Replica `j` of the corpus: base title j % titles, features perturbed by
// a noise stream of its own. Deterministic in (seed, j).
cm::index::VideoEntry Replica(const std::vector<cm::index::VideoEntry>& bases,
                              uint64_t seed, int j) {
  cm::index::VideoEntry e = bases[static_cast<size_t>(j) % bases.size()];
  e.id = 0;
  e.name += "_" + std::to_string(j);
  uint64_t noise = DeriveSeed(seed, "library.replica" + std::to_string(j));
  for (cm::shot::Shot& s : e.structure.shots) {
    s.features = NoisyFeatures(s.features, noise++, kReplicaNoise);
  }
  return e;
}

std::vector<cm::features::ShotFeatures> RecallQueries(
    const std::vector<cm::features::ShotFeatures>& corpus_shots,
    uint64_t seed) {
  Rng rng(DeriveSeed(seed, "library.recall"));
  std::vector<cm::features::ShotFeatures> out;
  for (int i = 0; i < kRecallQueries; ++i) {
    const int s = rng.Between(0, static_cast<int>(corpus_shots.size()) - 1);
    out.push_back(NoisyFeatures(corpus_shots[static_cast<size_t>(s)],
                                rng.Next(), kQueryNoise));
  }
  return out;
}

}  // namespace

RunResult RunLibrary(const WorkloadArgs& args) {
  RunResult result;
  Tracer tracer(args.trace);
  const double inputs_t0 = NowSeconds();

  // Inputs: the corpus, mined once in process.
  std::vector<synth::GeneratedVideo> generated;
  for (const synth::VideoScript& s : LibraryCorpusScripts()) {
    generated.push_back(synth::GenerateVideo(s));
  }
  std::vector<cm::core::MiningInput> inputs;
  for (const synth::GeneratedVideo& g : generated) {
    inputs.push_back({&g.video, &g.audio});
  }
  auto mined = cm::core::MineVideosParallel(inputs, cm::core::MiningOptions(),
                                            kCallerThreads);
  if (!mined.ok()) {
    result.Fail("corpus mining: " + mined.status().ToString());
    return result;
  }
  std::vector<cm::index::VideoEntry> bases;
  std::vector<cm::features::ShotFeatures> corpus_shots;
  for (size_t i = 0; i < generated.size(); ++i) {
    const cm::core::MiningResult& r = (*mined)[i];
    bases.push_back({0, generated[i].video.name(), r.structure, r.events,
                     r.degraded});
    for (const cm::shot::Shot& s : r.structure.shots) {
      corpus_shots.push_back(s.features);
    }
  }
  generated.clear();
  const std::vector<cm::features::ShotFeatures> recall_queries =
      RecallQueries(corpus_shots, args.seed);

  const double inputs_s = NowSeconds() - inputs_t0;

  // Set-up: bulk-load, reopen, snapshot, build both indexes.
  const cm::index::ConceptHierarchy concepts =
      cm::index::ConceptHierarchy::MedicalDefault();
  std::unique_ptr<cm::index::ShardedDatabase> db;
  std::unique_ptr<cm::index::VideoDatabase> snap;
  std::unique_ptr<cm::index::HierarchicalIndex> hier;
  std::string db_path;
  std::vector<double> open_ms, build_ms;
  cm::util::ThreadPool build_pool(kCallerThreads);
  const double setup_s = MedianSetUp(kSetUpRepetitions, [&](int rep) {
    hier.reset();
    snap.reset();
    db.reset();
    const std::string dir = args.work_dir + "/library" + std::to_string(rep);
    mkdir(dir.c_str(), 0755);
    db_path = dir + "/library.cmsm";
    {
      cm::index::VideoDatabase bulk;
      for (int j = 0; j < kEntries; ++j) {
        cm::index::VideoEntry e = Replica(bases, args.seed, j);
        bulk.AddVideo(std::move(e.name), std::move(e.structure),
                      std::move(e.events), e.degraded);
      }
      Span span(&tracer, "index.bulk_load");
      const cm::util::Status saved =
          cm::index::SaveShardedDatabase(bulk, db_path, kShards);
      if (!saved.ok()) {
        result.Fail("bulk load: " + saved.ToString());
        return;
      }
    }
    double t0 = NowSeconds();
    {
      Span span(&tracer, "index.open");
      auto opened = cm::index::ShardedDatabase::Open(db_path);
      if (!opened.ok()) {
        result.Fail("open: " + opened.status().ToString());
        return;
      }
      db = std::move(*opened);
    }
    open_ms.push_back(1000.0 * (NowSeconds() - t0));
    snap = std::make_unique<cm::index::VideoDatabase>(db->Snapshot());
    t0 = NowSeconds();
    {
      Span span(&tracer, "index.build");
      hier = std::make_unique<cm::index::HierarchicalIndex>(
          snap.get(), &concepts, cm::index::HierarchicalIndex::Options(),
          cm::util::ExecutionContext(&build_pool));
    }
    build_ms.push_back(1000.0 * (NowSeconds() - t0));
  });
  ReportSetUp(inputs_s, setup_s, &result);
  if (!result.correct) return result;
  const IndexQueryStats at_setup =
      MeasureQueries(*snap, *hier, recall_queries);
  result.Note("library: " + std::to_string(snap->video_count()) +
              " entries, " + std::to_string(snap->TotalShotCount()) +
              " shots; set-up recall@10 " +
              std::to_string(at_setup.recall_at_10));

  // Window.
  Rng rng(DeriveSeed(args.seed, "library.ops"));
  LatencyLog log, searches;
  std::vector<double> search_us, upsert_us, compact_ms;
  double comparisons = 0.0;
  uint64_t user_bytes = 0;
  int upserts = 0;
  std::vector<int> versions(kEntries, 0);  // acknowledged upserts per entry
  const size_t spans0 = tracer.span_count();
  const uint64_t written0 = WrittenBytes();
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  for (int64_t i = 0; NowSeconds() - t0 < args.seconds; ++i) {
    const LibraryOp op = NextLibraryOp(
        &rng, static_cast<int>(corpus_shots.size()), kEntries);
    ++log.attempted;
    if (!op.upsert) {
      const cm::features::ShotFeatures q = NoisyFeatures(
          corpus_shots[static_cast<size_t>(op.target)], op.noise, kQueryNoise);
      cm::index::QueryStats stats;
      const double s0 = NowSeconds();
      std::vector<cm::index::QueryMatch> matches;
      {
        Span span(&tracer, "index.query", i);
        matches = hier->Search(q, 10, &stats);
      }
      const double ms = 1000.0 * (NowSeconds() - s0);
      if (matches.empty()) {
        ++log.failed;
        result.Fail("search returned nothing");
        continue;
      }
      comparisons += static_cast<double>(stats.TotalComparisons());
      search_us.push_back(1000.0 * ms);
      log.Add(NowSeconds(), ms);
      searches.Add(NowSeconds(), ms);
      continue;
    }
    cm::index::VideoEntry e = Replica(bases, args.seed, op.target);
    const int version = versions[static_cast<size_t>(op.target)] + 1;
    e.degraded = version % 2 == 1;
    const double s0 = NowSeconds();
    cm::util::Status up;
    {
      Span span(&tracer, "index.upsert", i);
      up = db->Upsert(e.name, e.structure, e.events, e.degraded);
    }
    const double ms = 1000.0 * (NowSeconds() - s0);
    if (!up.ok()) {
      ++log.failed;
      result.Fail("upsert: " + up.ToString());
      continue;
    }
    versions[static_cast<size_t>(op.target)] = version;
    user_bytes += FramedEntry(e).size();
    upsert_us.push_back(1000.0 * ms);
    log.Add(NowSeconds(), ms);
    if (++upserts % kCompactEvery == 0) {
      const double c0 = NowSeconds();
      Span span(&tracer, "index.compact", i);
      auto report = db->CompactShard((upserts / kCompactEvery) % kShards);
      if (!report.ok()) {
        result.Fail("compact: " + report.status().ToString());
      }
      compact_ms.push_back(1000.0 * (NowSeconds() - c0));
    }
  }
  const double window_s = NowSeconds() - t0;
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const uint64_t written = WrittenBytes() - written0;
  const size_t window_spans = tracer.span_count() - spans0;
  // Latency is the searches' (what readers wait on); upserts have their own
  // write_latency_p50_ms. The tail is p90: search p99 moved by 0.5 (IQR /
  // median) between runs on the reference VM, p90 by under 0.2.
  ReportLatency(log, searches, {t0, window_s, cpu_s, 90.0, kSliceSeconds},
                &result);
  result.Set("write_latency_p50_ms", Median(upsert_us) / 1000.0, "ms");
  result.Note("library: " + std::to_string(upserts) + " upserts, " +
              std::to_string(compact_ms.size()) + " compactions");

  // Gates: after a reopen every acknowledged upsert is visible (the whole
  // library equals the replica set), and recall@10 of an index rebuilt on
  // the reopened library has not dropped.
  hier.reset();
  snap.reset();
  db.reset();
  auto reopened = cm::index::ShardedDatabase::Open(db_path);
  if (!reopened.ok()) {
    result.Fail("reopen: " + reopened.status().ToString());
    return result;
  }
  const cm::index::VideoDatabase live = (*reopened)->Snapshot();
  reopened->reset();
  std::unordered_map<std::string, int> by_name;
  for (int k = 0; k < live.video_count(); ++k) by_name[live.video(k).name] = k;
  bool same = live.video_count() == kEntries;
  for (int j = 0; same && j < kEntries; ++j) {
    cm::index::VideoEntry want = Replica(bases, args.seed, j);
    want.degraded = versions[static_cast<size_t>(j)] % 2 == 1;
    const auto it = by_name.find(want.name);
    same = it != by_name.end();
    if (same) {
      cm::index::VideoEntry got = live.video(it->second);
      got.id = 0;
      same = FramedEntry(got) == FramedEntry(want);
    }
  }
  if (!same) result.Fail("reopened library lost or changed an entry");
  const cm::index::HierarchicalIndex rebuilt(
      &live, &concepts, cm::index::HierarchicalIndex::Options(),
      cm::util::ExecutionContext(&build_pool));
  const IndexQueryStats after = MeasureQueries(live, rebuilt, recall_queries);
  if (after.recall_at_10 < at_setup.recall_at_10) {
    result.Fail("recall@10 dropped after the run");
  }
  ReportSpace(db_path, live, &result);

  if (args.trace) {
    // Layers this workload does not exercise are probed on a short
    // container of its own seed.
    const std::string media = args.work_dir + "/media";
    mkdir(media.c_str(), 0755);
    const std::vector<Container> probe =
        WriteContainers({ProbeScript(args.seed)}, media, 1);
    ProbeMiningLayers(probe[0], &tracer, &result);
    ProbeServerLayer(probe, &tracer, &result);
    std::vector<std::string> shard_paths;
    for (int s = 0; s < kShards; ++s) {
      shard_paths.push_back(cm::index::ShardPath(db_path, s));
    }
    ProbeCrc(shard_paths, &result);

    result.Set("index.upsert_us_p50", Median(upsert_us), "us");
    result.Set("index.upsert_us_p99", Percentile(upsert_us, 99.0), "us");
    result.Set("index.write_bytes_per_user_byte",
               static_cast<double>(written) /
                   static_cast<double>(std::max<uint64_t>(1, user_bytes)),
               "ratio");
    result.Set("index.compact_ms", Median(compact_ms), "ms");
    result.Set("index.open_ms", Median(open_ms), "ms");
    result.Set("index.build_ms", Median(build_ms), "ms");
    result.Set("index.query_us_p50", Median(search_us), "us");
    result.Set("index.comparisons_per_query",
               comparisons / std::max<double>(1.0, search_us.size()), "count");
    result.Set("index.recall_at_10", at_setup.recall_at_10, "ratio");
    result.Set("index.speedup_vs_linear",
               at_setup.linear_us_p50 / at_setup.query_us_p50, "ratio");
    std::vector<double> tree_ms;
    for (int i = 0; i < 3; ++i) {
      Span span(&tracer, "index.browse_tree");
      tree_ms.push_back(BrowseTreeMs(live));
    }
    result.Set("index.browse_tree_ms", Median(tree_ms), "ms");
    result.Set("trace.ops_per_s", result.metrics["ops_per_s"].value, "1/s");
    ReportTraceOverhead(window_spans, window_s, log.ms.size(), &result);
    tracer.WriteJsonLines(args.trace_path);
  }
  result.Set("peak_rss_mb", PeakRssMb(), "MiB");
  return result;
}

}  // namespace perfbench
