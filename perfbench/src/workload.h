#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// The four workloads and the layer probes they share.
//
// Every workload runs in three phases:
//   1. inputs   render and encode the seeded containers (benchmark work,
//               not timed as set-up);
//   2. set-up   bring the system to the state the workload measures, three
//               times, reporting the median as setup_s;
//   3. window   a closed loop of ops for --seconds, then correctness gates.
// The traced run (--trace 1) repeats the same phases with spans recorded
// around each call into a layer, then runs the layer probes so that every
// per-layer metric is measured on the workload's own inputs.

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "features/similarity.h"
#include "index/database.h"
#include "index/hier_index.h"
#include "server/client.h"
#include "synth/ground_truth.h"
#include "synth/video_generator.h"
#include "trace.h"

namespace perfbench {

struct WorkloadArgs {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    // scratch directory owned by this run
  std::string trace_path;  // where the traced run writes its spans
};

inline constexpr int kShards = 8;
// Slice length for the workloads whose throughput and tail are medians over
// slices of the window (serve_hot, library; see Window::slice_s).
inline constexpr double kSliceSeconds = 1.0;
inline constexpr int kCallerThreads = 4;  // nproc of the reference host

// One generated container on disk.
struct Container {
  std::string name;
  std::string path;
  synth::GroundTruth truth;
  int frames = 0;
};

// Renders and encodes `scripts` into `dir` (one .cmv each) on `threads`
// threads. Output is identical at any thread count. `with_audio` false
// drops the soundtrack from the containers.
std::vector<Container> WriteContainers(
    const std::vector<synth::VideoScript>& scripts, const std::string& dir,
    int threads, bool with_audio = true);

// Serialized framed entry (the exact CMVE bytes a library stores).
std::vector<uint8_t> FramedEntry(const classminer::index::VideoEntry& entry);

// Sets space_per_live_byte: bytes of the library at `db_path` (manifest and
// current shard logs, live and dead records; not the .prev generations
// compaction keeps for crash fallback) over the framed bytes of its live
// entries.
void ReportSpace(const std::string& db_path,
                 const classminer::index::VideoDatabase& live,
                 RunResult* result);

// Layer probes (traced runs). Each measures one group of per-layer metrics
// on the given inputs; workloads call all of them and then overwrite the
// metrics their own window measured directly.
void ProbeMiningLayers(const Container& container, Tracer* tracer,
                       RunResult* result);
void ProbeIndexLayer(const std::string& db_path, Tracer* tracer,
                     RunResult* result);
void ProbeServerLayer(const std::vector<Container>& containers,
                      Tracer* tracer, RunResult* result);
// util.crc32_gb_per_s over the given files' bytes.
void ProbeCrc(const std::vector<std::string>& paths, RunResult* result);
// trace.* metrics: spans recorded in the window, measured per-span cost
// and the share of the window that cost represents.
void ReportTraceOverhead(size_t window_spans, double window_s, uint64_t ops,
                         RunResult* result);

// k = 10 searches of the hierarchical index against the linear scan over
// the same database: per-query time, comparisons and tie-aware recall.
struct IndexQueryStats {
  double query_us_p50 = 0.0;
  double linear_us_p50 = 0.0;
  double comparisons_per_query = 0.0;
  double recall_at_10 = 0.0;
};
IndexQueryStats MeasureQueries(
    const classminer::index::VideoDatabase& db,
    const classminer::index::HierarchicalIndex& hier,
    const std::vector<classminer::features::ShotFeatures>& queries);
// Wall time of one browse-tree build over `db` for a clearance-3 user.
double BrowseTreeMs(const classminer::index::VideoDatabase& db);

// One timed closed-loop call: counts it as attempted, and as failed when
// the transport fails, the answer is not OK, or its body differs from
// `expected` (when given). Successful latencies go to `log` and to
// `latency_ms`, body sizes to `body_bytes` (both optional). Never retries.
bool TimedCall(classminer::server::PipelinedClient* session,
               const classminer::server::Request& request,
               const std::string* expected, LatencyLog* log,
               std::vector<double>* latency_ms, uint64_t* body_bytes);

RunResult RunIngest(const WorkloadArgs& args);
RunResult RunServeHot(const WorkloadArgs& args);
RunResult RunServeBrowse(const WorkloadArgs& args);
RunResult RunLibrary(const WorkloadArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
