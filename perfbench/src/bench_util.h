#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

// Shared plumbing of the end-to-end benchmark: clocks, order statistics,
// process counters (getrusage, /proc/self/io), seeded randomness and the
// result record every workload fills.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace classminer::features {}
namespace classminer::synth {}

namespace perfbench {

namespace cm = classminer;
namespace features = classminer::features;
namespace synth = classminer::synth;

// ---------------------------------------------------------------------------
// Time.

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// User + system CPU seconds of the whole process (getrusage RUSAGE_SELF).
double ProcessCpuSeconds();
// Peak resident set size of the process in MiB (ru_maxrss).
double PeakRssMb();
// Bytes this process has asked the kernel to write (/proc/self/io wchar).
uint64_t WrittenBytes();
// Sum of the sizes of the regular files directly inside `dir`, except
// those whose name ends in `skip_suffix` (when non-empty).
uint64_t DirectoryBytes(const std::string& dir,
                        const std::string& skip_suffix = "");

// ---------------------------------------------------------------------------
// Order statistics.
//
// Percentiles use the nearest-rank rule: the p-th percentile of n sorted
// samples is the sample at 1-based rank ceil(p/100 * n) (rank 1 for p = 0).
// "Samples beyond" a percentile are those ranked after it: n - rank.

size_t PercentileRank(size_t n, double p);
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

// The fixed ladder of tail percentiles the benchmark may report.
inline constexpr double kTailLadder[] = {99.0, 95.0, 90.0, 75.0, 50.0};

// The highest ladder percentile that has at least `min_beyond` samples
// beyond it, or 0 when not even the median does (fewer than 2*min_beyond
// samples). The benchmark reports latency_tail_ms at this percentile.
double TailPercentile(size_t n, size_t min_beyond = 10);

// ---------------------------------------------------------------------------
// Seeded randomness. The benchmark's inputs derive from --seed only through
// this generator, so the same seed gives byte-identical inputs.

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();                      // SplitMix64
  double Uniform();                     // [0, 1)
  int Between(int lo, int hi);          // inclusive

 private:
  uint64_t state_;
};

// Derives a stream seed from the run seed and a purpose tag.
uint64_t DeriveSeed(uint64_t seed, const std::string& tag);

// ---------------------------------------------------------------------------
// What one run reports.

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  // Human-readable facts about the run (sizes, chosen tail percentile,
  // failures); printed to stderr, never part of the result line.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Records a failed correctness gate: the run is not correct and the
  // reason is kept for stderr.
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("FAILED: " + why);
  }
  void Note(const std::string& note) { notes.push_back(note); }
};

// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string ResultJson(const RunResult& result);

// ---------------------------------------------------------------------------
// Latency bookkeeping for one closed-loop window.

struct LatencyLog {
  std::vector<double> ms;      // latency of each completed (successful) op
  std::vector<double> done_s;  // its completion time (NowSeconds)
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(double done, double latency_ms) {
    done_s.push_back(done);
    ms.push_back(latency_ms);
  }
  void Merge(const LatencyLog& other);
};

// A measured window: when it started, how long it ran, the process CPU it
// used, and how the workload summarises it.
struct Window {
  double start_s = 0.0;
  double seconds = 0.0;
  double cpu_s = 0.0;
  // Each workload reports its tail at a fixed percentile (100 = the
  // maximum), chosen so that its usual sample count keeps at least ten
  // samples beyond it.
  double tail_percentile = 99.0;
  // > 0: ops_per_s and latency_tail_ms are the medians of their values over
  // consecutive slices of this length (a partial last slice is dropped), so
  // that a few seconds of host stall move them little. 0: whole window.
  double slice_s = 0.0;
};

// Fills ops_per_s and cpu_ms_per_op from `ops` (every op of the window) and
// latency_p50_ms / latency_tail_ms from `latency` (the same ops, or the
// subset a workload's users wait on). The note records the sample count,
// how many samples lie beyond the tail, and what TailPercentile would pick.
void ReportLatency(const LatencyLog& ops, const LatencyLog& latency,
                   const Window& window, RunResult* result);

// setup_s = input generation (rendering, encoding, reference answers; once)
// + the median of the system set-up repetitions.
void ReportSetUp(double inputs_s, double system_setup_s, RunResult* result);

// Calls fn(i) for every i in [0, n) on `threads` threads (each thread takes
// the next unclaimed index).
void ParallelFor(int n, int threads, const std::function<void(int)>& fn);

inline constexpr int kSetUpRepetitions = 3;

// Runs `set_up` `times` times and returns the median wall seconds (the
// state of the last repetition is the one the workload measures).
template <typename F>
double MedianSetUp(int times, F&& set_up) {
  std::vector<double> walls;
  for (int i = 0; i < times; ++i) {
    const double t0 = NowSeconds();
    set_up(i);
    walls.push_back(NowSeconds() - t0);
  }
  return Median(walls);
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
