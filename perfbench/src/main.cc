// perfbench: one run of one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Prints facts about the run to stderr and, as the last line of stdout, one
// JSON object with every metric the run measured (perfbench/run.py keeps
// the end-to-end or the per-layer ones, as BENCHMARK.json lists them).
// Scratch files live under DIR/work and are removed at exit; the traced run
// leaves its spans in DIR/traces/NAME-seedN.jsonl. Exit status is 0 when
// every correctness gate passed, 1 when one failed, 2 on a usage error.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "util/cpu.h"
#include "workload.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ingest|serve_hot|serve_browse|"
               "library --seed N --seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

// Strict unsigned parse: the whole string must be digits.
bool ParseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
  }
  *out = std::stoull(text);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, out = ".bench_build";
  uint64_t seed = 0, seconds = 0, trace = 0;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      have_seed = ParseUnsigned(value, &seed);
    } else if (flag == "--seconds") {
      have_seconds = ParseUnsigned(value, &seconds) && seconds > 0;
    } else if (flag == "--trace") {
      if (!ParseUnsigned(value, &trace) || trace > 1) return Usage();
    } else if (flag == "--out") {
      out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || !have_seconds) return Usage();

  RunResult (*run)(const WorkloadArgs&) = nullptr;
  if (workload == "ingest") run = RunIngest;
  if (workload == "serve_hot") run = RunServeHot;
  if (workload == "serve_browse") run = RunServeBrowse;
  if (workload == "library") run = RunLibrary;
  if (run == nullptr) return Usage();

  WorkloadArgs args;
  args.seed = seed;
  args.seconds = static_cast<double>(seconds);
  args.trace = trace == 1;
  args.work_dir = out + "/work/" + workload + "-" + std::to_string(getpid());
  args.trace_path =
      out + "/traces/" + workload + "-seed" + std::to_string(seed) + ".jsonl";
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (args.trace) std::filesystem::create_directories(out + "/traces", ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.work_dir.c_str());
    return 1;
  }

  RunResult result = run(args);
  std::filesystem::remove_all(args.work_dir, ec);

  result.Set("failed_ratio",
             static_cast<double>(result.failed) /
                 static_cast<double>(std::max<uint64_t>(1, result.attempted)),
             "ratio");
  std::fprintf(stderr, "perfbench %s seed=%llu seconds=%llu trace=%llu: "
               "nproc=%ld dispatch=%s\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(seconds),
               static_cast<unsigned long long>(trace),
               sysconf(_SC_NPROCESSORS_ONLN),
               classminer::util::DispatchLevelName(
                   classminer::util::ActiveDispatchLevel()));
  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "  %s\n", note.c_str());
  }
  std::printf("%s\n", ResultJson(result).c_str());
  return result.correct && result.attempted > 0 ? 0 : 1;
}
