// Shared workload plumbing (container generation, space accounting) and the
// layer probes of the traced run.

#include <algorithm>
#include <complex>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <thread>

#include "audio/features.h"
#include "audio/mfcc.h"
#include "audio/speaker_segmenter.h"
#include "codec/container.h"
#include "codec/dct.h"
#include "codec/decoder.h"
#include "core/cmv_pipeline.h"
#include "cues/cue_extractor.h"
#include "events/event_miner.h"
#include "features/histogram.h"
#include "index/browser.h"
#include "index/hier_index.h"
#include "index/linear_index.h"
#include "index/persist.h"
#include "index/shard.h"
#include "inputs.h"
#include "server/client.h"
#include "server/ops.h"
#include "server/server.h"
#include "shot/detector.h"
#include "structure/content_structure.h"
#include "util/crc32.h"
#include "util/fft.h"
#include "util/serial.h"
#include "workload.h"

namespace perfbench {

namespace {

// Runs `f` inside a span and returns its wall time in milliseconds.
template <typename F>
double TimedMs(Tracer* tracer, const char* name, F&& f) {
  Span span(tracer, name);
  const double t0 = NowSeconds();
  f();
  return 1000.0 * (NowSeconds() - t0);
}

// Repeats `f` until at least `min_s` seconds have passed; returns seconds
// per call.
template <typename F>
double SecondsPerCall(double min_s, F&& f) {
  int calls = 0;
  const double t0 = NowSeconds();
  double elapsed = 0.0;
  do {
    f();
    ++calls;
    elapsed = NowSeconds() - t0;
  } while (elapsed < min_s);
  return elapsed / calls;
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

// Keeps computed kernel results observable so the loops are not elided.
volatile double g_sink = 0.0;

}  // namespace

std::vector<Container> WriteContainers(
    const std::vector<synth::VideoScript>& scripts, const std::string& dir,
    int threads, bool with_audio) {
  std::vector<Container> out(scripts.size());
  std::vector<std::string> errors(scripts.size());
  ParallelFor(static_cast<int>(scripts.size()), threads, [&](int i) {
    const synth::GeneratedVideo g = synth::GenerateVideo(scripts[i]);
    cm::codec::CmvFile file = cm::core::PackGeneratedVideo(g);
    if (!with_audio) {
      file.audio_sample_rate = 0;
      file.audio_pcm.clear();
    }
    Container& c = out[i];
    c.name = scripts[i].name;
    c.path = dir + "/" + c.name + ".cmv";
    c.truth = g.truth;
    c.frames = file.frame_count();
    const cm::util::Status saved = file.SaveToFile(c.path);
    if (!saved.ok()) errors[i] = saved.ToString();
  });
  for (const std::string& e : errors) {
    if (!e.empty()) {
      std::fprintf(stderr, "perfbench: writing containers: %s\n", e.c_str());
      std::exit(1);
    }
  }
  return out;
}

std::vector<uint8_t> FramedEntry(const cm::index::VideoEntry& entry) {
  cm::util::ByteWriter w;
  cm::index::internal::PutFramedEntry(&w, entry);
  return w.Release();
}

void ReportSpace(const std::string& db_path,
                 const cm::index::VideoDatabase& live, RunResult* result) {
  uint64_t user = 0;
  for (int i = 0; i < live.video_count(); ++i) {
    user += FramedEntry(live.video(i)).size();
  }
  const std::string dir = db_path.substr(0, db_path.rfind('/'));
  result->Set("space_per_live_byte",
              static_cast<double>(DirectoryBytes(dir, ".prev")) /
                  static_cast<double>(std::max<uint64_t>(1, user)),
              "ratio");
}

// ---------------------------------------------------------------------------
// Mining layers: the serial chain of public layer calls on one container,
// next to the program's own MineCmvFile on the same container.

void ProbeMiningLayers(const Container& container, Tracer* tracer,
                       RunResult* result) {
  Span root(tracer, "probe.mining");
  const cm::core::MiningOptions defaults;

  cm::codec::CmvFile file;
  std::vector<double> load_ms;
  for (int i = 0; i < 3; ++i) {
    load_ms.push_back(TimedMs(tracer, "codec.load", [&] {
      cm::util::SalvageReport salvage;
      auto loaded =
          cm::codec::CmvFile::LoadFromFileBestEffort(container.path, &salvage);
      if (loaded.ok()) file = std::move(*loaded);
    }));
  }
  result->Set("codec.load_ms", Median(load_ms), "ms");
  if (file.frame_count() == 0) {
    result->Fail("probe: cannot load " + container.path);
    return;
  }

  cm::media::Video video;
  const double decode_ms = TimedMs(tracer, "codec.decode", [&] {
    auto decoded = cm::codec::DecodeVideo(file);
    if (decoded.ok()) video = std::move(*decoded);
  });
  result->Set("codec.decode_us_per_frame",
              1000.0 * decode_ms / std::max(1, file.frame_count()),
              "us/frame");

  cm::shot::ShotDetectionTrace shot_trace;
  std::vector<cm::shot::Shot> shots;
  const double shot_ms = TimedMs(tracer, "shot.detect", [&] {
    shots = cm::shot::DetectShots(video, defaults.shot, &shot_trace);
  });
  result->Set("shot.detect_ms", shot_ms, "ms");
  const int shot_count = std::max<int>(1, static_cast<int>(shots.size()));

  const double features_ms = TimedMs(tracer, "features.extract", [&] {
    for (const cm::shot::Shot& s : shots) {
      g_sink = g_sink +
               cm::features::ExtractShotFeatures(video.frame(s.rep_frame))
                   .tamura[0];
    }
  });
  result->Set("features.extract_us_per_shot", 1000.0 * features_ms / shot_count,
              "us/shot");

  cm::structure::ContentStructure cs;
  const double structure_ms = TimedMs(tracer, "structure.mine", [&] {
    cs = cm::structure::MineVideoStructure(shots, defaults.structure);
  });
  result->Set("structure.mine_ms", structure_ms, "ms");

  std::vector<cm::cues::FrameCues> cues;
  const double cues_ms = TimedMs(tracer, "cues.extract", [&] {
    cues = cm::cues::ExtractShotCues(video, shots, defaults.cues);
  });
  result->Set("cues.extract_ms", cues_ms, "ms");

  const cm::audio::AudioBuffer track(file.audio_sample_rate, file.audio_pcm);
  std::vector<cm::audio::ShotAudioAnalysis> shot_audio;
  const double audio_ms = TimedMs(tracer, "audio.analyse", [&] {
    const cm::audio::SpeakerSegmenter segmenter(defaults.events.segmenter);
    for (const cm::shot::Shot& s : shots) {
      shot_audio.push_back(segmenter.AnalyzeShot(
          track, s.StartSeconds(video.fps()), s.EndSeconds(video.fps()),
          s.index));
    }
  });
  result->Set("audio.analyse_ms", audio_ms, "ms");

  std::vector<cm::events::EventRecord> events;
  const double events_ms = TimedMs(tracer, "events.mine", [&] {
    events = cm::events::EventMiner(&cs, &cues, &shot_audio, defaults.events)
                 .MineAllScenes();
  });
  result->Set("events.mine_ms", events_ms, "ms");

  // The program's own pipeline on the same container, as ingest runs it.
  cm::core::MiningOptions options;
  options.thread_count = kCallerThreads;
  cm::util::StatusOr<cm::core::MiningResult> mined = cm::util::Status::Ok();
  const double cpu0 = ProcessCpuSeconds();
  const double mine_ms = TimedMs(tracer, "core.mine",
                                 [&] { mined = cm::core::MineCmvFile(file, options); });
  const double mine_cpu_ms = 1000.0 * (ProcessCpuSeconds() - cpu0);
  if (!mined.ok()) {
    result->Fail("probe: MineCmvFile failed: " + mined.status().ToString());
    return;
  }
  const double layer_sum = decode_ms + shot_ms + structure_ms + cues_ms +
                           audio_ms + events_ms;
  result->Set("core.mine_ms", mine_ms, "ms");
  result->Set("core.mine_cpu_ms", mine_cpu_ms, "ms");
  result->Set("core.layer_sum_ms", layer_sum, "ms");
  result->Set("core.overlap_ratio", layer_sum / mine_ms, "ratio");
  result->Set("core.reported_total_over_wall",
              mined->metrics.TotalMs() / mine_ms, "ratio");

  // Gate: the serial chain of layer calls reproduces the pipeline's entry.
  cm::index::VideoEntry chain{0, file.name, std::move(cs), std::move(events)};
  cm::index::VideoEntry piped{0, file.name, mined->structure, mined->events};
  if (FramedEntry(chain) != FramedEntry(piped)) {
    result->Fail("probe: serial layer chain differs from MineCmvFile on " +
                 container.name);
  }

  // Kernel rungs on this container's own inputs.
  std::vector<cm::audio::AudioBuffer> clips =
      cm::audio::SplitIntoClips(track, 2.0);
  if (clips.size() > 12) clips.resize(12);
  if (!clips.empty()) {
    const double mfcc_s = SecondsPerCall(0.05, [&] {
      for (const auto& clip : clips) {
        g_sink = g_sink + cm::audio::ComputeMfcc(clip).rows();
      }
    });
    result->Set("audio.mfcc_us_per_clip", 1e6 * mfcc_s / clips.size(), "us/clip");
    const double clip_s = SecondsPerCall(0.05, [&] {
      for (const auto& clip : clips) {
        g_sink = g_sink + cm::audio::ComputeClipFeatures(clip)[0];
      }
    });
    result->Set("audio.clip_features_us_per_clip", 1e6 * clip_s / clips.size(),
                "us/clip");
  }
  // FFT over the clip's own 30 ms analysis windows, zero-padded to 512.
  std::vector<std::vector<std::complex<double>>> windows;
  const std::vector<float>& pcm = file.audio_pcm;
  for (size_t at = 0; at + 480 <= pcm.size() && windows.size() < 256;
       at += 160) {
    std::vector<std::complex<double>> w(512);
    for (size_t i = 0; i < 480; ++i) w[i] = pcm[at + i];
    windows.push_back(std::move(w));
  }
  if (!windows.empty()) {
    std::vector<std::vector<std::complex<double>>> work = windows;
    const double fft_s = SecondsPerCall(0.05, [&] {
      work = windows;
      for (auto& w : work) cm::util::Fft(&w);
      g_sink = g_sink + work[0][1].real();
    });
    result->Set("util.fft_us", 1e6 * fft_s / windows.size(), "us");
  }
  // IDCT over this video's own luma blocks (forward-transformed).
  std::vector<cm::codec::Block> blocks;
  for (int f = 0; f < video.frame_count() && blocks.size() < 4096; f += 7) {
    const cm::codec::Picture pic = cm::codec::FromImage(video.frame(f));
    for (int by = 0; by * 8 < pic.y.height; ++by) {
      for (int bx = 0; bx * 8 < pic.y.width; ++bx) {
        blocks.push_back(cm::codec::ForwardDct(
            cm::codec::GetBlock(pic.y, bx, by, /*center=*/true)));
      }
    }
  }
  const double idct_s = SecondsPerCall(0.05, [&] {
    for (const auto& b : blocks) g_sink = g_sink + cm::codec::InverseDct(b)[0];
  });
  result->Set("codec.idct_ns_per_block",
              1e9 * idct_s / std::max<size_t>(1, blocks.size()), "ns/block");
  // Colour histograms of the representative frames.
  const double hist_s = SecondsPerCall(0.05, [&] {
    for (const cm::shot::Shot& s : shots) {
      g_sink = g_sink +
               cm::features::ComputeColorHistogram(video.frame(s.rep_frame))[0];
    }
  });
  result->Set("features.histogram_us_per_frame", 1e6 * hist_s / shot_count,
              "us/frame");
}

void ProbeCrc(const std::vector<std::string>& paths, RunResult* result) {
  std::vector<std::vector<uint8_t>> files;
  uint64_t total = 0;
  for (const std::string& p : paths) {
    files.push_back(ReadBytes(p));
    total += files.back().size();
  }
  const double crc_s = SecondsPerCall(0.05, [&] {
    for (const auto& bytes : files) g_sink = g_sink + cm::util::Crc32(bytes);
  });
  result->Set("util.crc32_gb_per_s",
              static_cast<double>(total) / crc_s / 1e9, "GB/s");
}

// ---------------------------------------------------------------------------
// Index layer on a workload's own library.

namespace {

// recall@k that tolerates ties: a returned match counts when it is at least
// as similar as the exact scan's k-th match.
double TieAwareRecall(const std::vector<cm::index::QueryMatch>& approx,
                      const std::vector<cm::index::QueryMatch>& exact) {
  if (exact.empty()) return 1.0;
  const double kth = exact.back().similarity - 1e-12;
  size_t hits = 0;
  for (const auto& m : approx) hits += m.similarity >= kth ? 1 : 0;
  return static_cast<double>(std::min(hits, exact.size())) /
         static_cast<double>(exact.size());
}

}  // namespace

IndexQueryStats MeasureQueries(const cm::index::VideoDatabase& db,
                               const cm::index::HierarchicalIndex& hier,
                               const std::vector<cm::features::ShotFeatures>& queries) {
  const cm::index::LinearIndex linear(&db);
  IndexQueryStats out;
  std::vector<double> hier_us, linear_us;
  double recall = 0.0, comparisons = 0.0;
  for (const auto& q : queries) {
    double t0 = NowSeconds();
    const auto approx = hier.Search(q, 10);
    hier_us.push_back(1e6 * (NowSeconds() - t0));
    cm::index::QueryStats stats;
    hier.Search(q, 10, &stats);
    comparisons += static_cast<double>(stats.TotalComparisons());
    t0 = NowSeconds();
    const auto exact = linear.Search(q, 10);
    linear_us.push_back(1e6 * (NowSeconds() - t0));
    recall += TieAwareRecall(approx, exact);
  }
  const double n = static_cast<double>(std::max<size_t>(1, queries.size()));
  out.query_us_p50 = Median(hier_us);
  out.linear_us_p50 = Median(linear_us);
  out.comparisons_per_query = comparisons / n;
  out.recall_at_10 = recall / n;
  return out;
}

double BrowseTreeMs(const cm::index::VideoDatabase& db) {
  const cm::index::ConceptHierarchy concepts =
      cm::index::ConceptHierarchy::MedicalDefault();
  const cm::index::AccessController access(&concepts);
  cm::index::UserCredential user;
  user.name = "perfbench";
  user.clearance = 3;
  const double t0 = NowSeconds();
  const auto tree = cm::index::BuildBrowseTree(db, concepts, access, user);
  g_sink = g_sink + static_cast<double>(tree.size());
  return 1000.0 * (NowSeconds() - t0);
}

void ProbeIndexLayer(const std::string& db_path, Tracer* tracer,
                     RunResult* result) {
  Span root(tracer, "probe.index");
  std::unique_ptr<cm::index::ShardedDatabase> db;
  std::vector<double> open_ms;
  for (int i = 0; i < 3; ++i) {
    db.reset();
    open_ms.push_back(TimedMs(tracer, "index.open", [&] {
      auto opened = cm::index::ShardedDatabase::Open(db_path);
      if (opened.ok()) db = std::move(*opened);
    }));
  }
  if (db == nullptr) {
    result->Fail("probe: cannot open " + db_path);
    return;
  }
  result->Set("index.open_ms", Median(open_ms), "ms");
  const cm::index::VideoDatabase snap = db->Snapshot();

  // Re-upsert the live entries (as a re-index would), three passes.
  std::vector<double> upsert_us;
  uint64_t user_bytes = 0;
  const uint64_t written0 = WrittenBytes();
  for (int pass = 0; pass < 3; ++pass) {
    for (int i = 0; i < std::min(snap.video_count(), 64); ++i) {
      const cm::index::VideoEntry& e = snap.video(i);
      user_bytes += FramedEntry(e).size();
      upsert_us.push_back(1000.0 * TimedMs(tracer, "index.upsert", [&] {
        const cm::util::Status s =
            db->Upsert(e.name, e.structure, e.events, e.degraded);
        if (!s.ok()) result->Fail("probe: upsert: " + s.ToString());
      }));
    }
  }
  result->Set("index.upsert_us_p50", Median(upsert_us), "us");
  result->Set("index.upsert_us_p99", Percentile(upsert_us, 99.0), "us");
  result->Set("index.write_bytes_per_user_byte",
              static_cast<double>(WrittenBytes() - written0) /
                  static_cast<double>(std::max<uint64_t>(1, user_bytes)),
              "ratio");
  std::vector<double> compact_ms;
  for (int shard = 0; shard < db->shard_count(); ++shard) {
    bool compacted = false;
    const double ms = TimedMs(tracer, "index.compact", [&] {
      auto report = db->CompactShard(shard);
      compacted = report.ok() && !report->skipped;
    });
    if (compacted) compact_ms.push_back(ms);
  }
  result->Set("index.compact_ms", Median(compact_ms), "ms");

  const cm::index::ConceptHierarchy concepts =
      cm::index::ConceptHierarchy::MedicalDefault();
  std::unique_ptr<cm::index::HierarchicalIndex> hier;
  result->Set("index.build_ms", TimedMs(tracer, "index.build", [&] {
                hier = std::make_unique<cm::index::HierarchicalIndex>(
                    &snap, &concepts);
              }),
              "ms");
  std::vector<cm::features::ShotFeatures> queries;
  uint64_t noise = 1;
  for (const cm::index::ShotRef& ref : snap.AllShots()) {
    if (queries.size() >= 400) break;
    queries.push_back(NoisyFeatures(snap.Features(ref), noise++, 0.05));
  }
  IndexQueryStats q;
  {
    Span span(tracer, "index.query");
    q = MeasureQueries(snap, *hier, queries);
  }
  result->Set("index.query_us_p50", q.query_us_p50, "us");
  result->Set("index.comparisons_per_query", q.comparisons_per_query, "count");
  result->Set("index.recall_at_10", q.recall_at_10, "ratio");
  result->Set("index.speedup_vs_linear", q.linear_us_p50 / q.query_us_p50,
              "ratio");
  std::vector<double> tree_ms;
  for (int i = 0; i < 3; ++i) {
    Span span(tracer, "index.browse_tree");
    tree_ms.push_back(BrowseTreeMs(snap));
  }
  result->Set("index.browse_tree_ms", Median(tree_ms), "ms");
}

// ---------------------------------------------------------------------------
// Server layer: an in-process daemon with default options, one session.

void ProbeServerLayer(const std::vector<Container>& containers,
                      Tracer* tracer, RunResult* result) {
  Span root(tracer, "probe.server");
  cm::server::ClassMinerServer server{cm::server::ServerOptions()};
  if (!server.Start().ok()) {
    result->Fail("probe: daemon did not start");
    return;
  }
  cm::server::SessionHello hello;
  hello.user = "probe";
  hello.clearance = 3;
  auto client =
      cm::server::PipelinedClient::Connect("127.0.0.1", server.port(), hello);
  if (!client.ok()) {
    result->Fail("probe: connect: " + client.status().ToString());
    return;
  }
  cm::server::Request mine;
  mine.kind = cm::server::RequestKind::kMine;
  mine.args = {containers[0].path, "--fast"};
  const auto warm = (*client)->Call(mine);
  if (!warm.ok() || !warm->ok()) {
    result->Fail("probe: warm-up mine failed");
    return;
  }
  cm::server::Request health;
  health.kind = cm::server::RequestKind::kHealth;

  const cm::server::ServerStats s0 = server.StatsSnapshot();
  std::vector<double> health_ms, hit_ms;
  uint64_t body_bytes = 0, calls = 0;
  for (int i = 0; i < 200; ++i) {
    for (const bool is_hit : {false, true}) {
      Span span(tracer, is_hit ? "server.hit" : "server.health");
      const double t0 = NowSeconds();
      const auto r = (*client)->Call(is_hit ? mine : health);
      (is_hit ? hit_ms : health_ms).push_back(1000.0 * (NowSeconds() - t0));
      if (!r.ok() || !r->ok() || (is_hit && r->body != warm->body)) {
        result->Fail("probe: daemon answer differs");
        return;
      }
      body_bytes += r->body.size();
      ++calls;
    }
  }
  const cm::server::ServerStats s1 = server.StatsSnapshot();
  const double hits = static_cast<double>(s1.cache_hits - s0.cache_hits);
  const double joined = static_cast<double>(s1.cache_joined - s0.cache_joined);
  const double misses = static_cast<double>(s1.cache_misses - s0.cache_misses);
  result->Set("server.health_ms_p50", Median(health_ms), "ms");
  result->Set("server.queue_hop_ms", Median(hit_ms) - Median(health_ms), "ms");
  result->Set("server.cache_hit_ratio",
              hits / std::max(1.0, hits + joined + misses), "ratio");
  result->Set("server.cache_joined", joined, "count");
  result->Set("server.rejected_per_1k",
              1000.0 * static_cast<double>(s1.rejected_admission -
                                           s0.rejected_admission) /
                  static_cast<double>(std::max<uint64_t>(1, calls)),
              "count");
  result->Set("server.response_bytes_per_request",
              static_cast<double>(body_bytes) / static_cast<double>(calls),
              "bytes");

  // Browse through the daemon against the same op called in process.
  cm::server::Request browse;
  browse.kind = cm::server::RequestKind::kBrowse;
  browse.args = {containers[0].path};
  cm::server::OpEnv env;
  std::vector<double> daemon_ms, direct_ms;
  for (int i = 0; i < 3; ++i) {
    double t0 = NowSeconds();
    cm::server::OpResult direct;
    {
      Span span(tracer, "ops.browse");
      cm::server::OpDiagnostics diag;
      direct = cm::server::BrowseOp(browse.args, false,
                                    hello.ToCredential(), env, &diag);
    }
    direct_ms.push_back(1000.0 * (NowSeconds() - t0));
    t0 = NowSeconds();
    cm::util::StatusOr<cm::server::Response> r = cm::util::Status::Ok();
    {
      Span span(tracer, "server.browse");
      r = (*client)->Call(browse);
    }
    daemon_ms.push_back(1000.0 * (NowSeconds() - t0));
    if (!r.ok() || !r->ok() || r->body != direct.report) {
      result->Fail("probe: daemon browse differs from BrowseOp");
      return;
    }
  }
  result->Set("ops.browse_ms", Median(direct_ms), "ms");
  result->Set("server.overhead_ms", Median(daemon_ms) - Median(direct_ms), "ms");
  (*client)->Close();
  server.Stop();
}

void ReportTraceOverhead(size_t window_spans, double window_s, uint64_t ops,
                         RunResult* result) {
  Tracer scratch(true);
  constexpr int kSpans = 20000;
  const double t0 = NowSeconds();
  for (int i = 0; i < kSpans; ++i) Span span(&scratch, "trace.cost");
  const double per_span_s = (NowSeconds() - t0) / kSpans;
  const double spans = static_cast<double>(window_spans);
  result->Set("trace.span_cost_us", 1e6 * per_span_s, "us");
  result->Set("trace.spans_per_op",
              spans / static_cast<double>(std::max<uint64_t>(1, ops)), "count");
  result->Set("trace.overhead_pct",
              100.0 * spans * per_span_s / std::max(1e-9, window_s), "%");
}

}  // namespace perfbench
