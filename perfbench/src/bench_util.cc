#include "bench_util.h"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t WrittenBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

uint64_t DirectoryBytes(const std::string& dir,
                        const std::string& skip_suffix) {
  uint64_t total = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (!skip_suffix.empty() && name.size() >= skip_suffix.size() &&
        name.compare(name.size() - skip_suffix.size(), skip_suffix.size(),
                     skip_suffix) == 0) {
      continue;
    }
    struct stat st {};
    const std::string path = dir + "/" + name;
    if (stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_size);
    }
  }
  closedir(d);
  return total;
}

size_t PercentileRank(size_t n, double p) {
  if (n == 0) return 0;
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t rank = PercentileRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

double TailPercentile(size_t n, size_t min_beyond) {
  for (const double p : kTailLadder) {
    if (n - PercentileRank(n, p) >= min_beyond && n > 0) return p;
  }
  return 0.0;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

int Rng::Between(int lo, int hi) {
  return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
}


uint64_t DeriveSeed(uint64_t seed, const std::string& tag) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a over the tag
  for (const char c : tag) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  Rng rng(seed ^ h);
  return rng.Next();
}

std::string ResultJson(const RunResult& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    // Finite numbers only: JSON has no NaN/Inf.
    std::snprintf(value, sizeof(value), "%.9g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

void LatencyLog::Merge(const LatencyLog& other) {
  ms.insert(ms.end(), other.ms.begin(), other.ms.end());
  done_s.insert(done_s.end(), other.done_s.begin(), other.done_s.end());
  attempted += other.attempted;
  failed += other.failed;
}

void ReportLatency(const LatencyLog& ops, const LatencyLog& latency,
                   const Window& window, RunResult* result) {
  const double done = static_cast<double>(ops.ms.size());
  const double p = window.tail_percentile;
  result->Set("cpu_ms_per_op", 1000.0 * window.cpu_s / std::max(1.0, done),
              "ms");
  result->Set("latency_p50_ms", Median(latency.ms), "ms");
  result->attempted += ops.attempted;
  result->failed += ops.failed;
  size_t n = latency.ms.size();  // samples the tail rests on
  const size_t slices =
      window.slice_s > 0.0
          ? static_cast<size_t>(window.seconds / window.slice_s)
          : 0;
  if (slices == 0) {
    result->Set("ops_per_s", done / window.seconds, "1/s");
    result->Set("latency_tail_ms", Percentile(latency.ms, p), "ms");
  } else {
    const auto slice_of = [&](double t) {
      return static_cast<size_t>((t - window.start_s) / window.slice_s);
    };
    std::vector<double> counts(slices, 0.0);
    for (const double t : ops.done_s) {
      if (slice_of(t) < slices) counts[slice_of(t)] += 1.0;
    }
    std::vector<std::vector<double>> by_slice(slices);
    for (size_t i = 0; i < latency.ms.size(); ++i) {
      const size_t s = slice_of(latency.done_s[i]);
      if (s < slices) by_slice[s].push_back(latency.ms[i]);
    }
    std::vector<double> rates, tails;
    for (size_t s = 0; s < slices; ++s) {
      rates.push_back(counts[s] / window.slice_s);
      tails.push_back(Percentile(by_slice[s], p));
      n = std::min(n, by_slice[s].size());
    }
    result->Set("ops_per_s", Median(rates), "1/s");
    result->Set("latency_tail_ms", Median(tails), "ms");
  }
  char note[240];
  std::snprintf(note, sizeof(note),
                "latency_tail_ms = p%g%s of %zu samples, %zu beyond it (the "
                "10-beyond rule allows p%g here); whole window p90 %.4g p95 "
                "%.4g p99 %.4g ms",
                p, slices > 0 ? " per slice (smallest slice)" : "", n,
                n - PercentileRank(n, p), TailPercentile(n),
                Percentile(latency.ms, 90.0), Percentile(latency.ms, 95.0),
                Percentile(latency.ms, 99.0));
  result->Note(note);
}

void ReportSetUp(double inputs_s, double system_setup_s, RunResult* result) {
  result->Set("setup_s", inputs_s + system_setup_s, "s");
  char note[120];
  std::snprintf(note, sizeof(note),
                "setup_s = inputs %.3f s + system set-up %.3f s (median of %d)",
                inputs_s, system_setup_s, kSetUpRepetitions);
  result->Note(note);
}

void ParallelFor(int n, int threads, const std::function<void(int)>& fn) {
  std::atomic<int> next{0};
  const auto work = [&] {
    for (int i = next++; i < n; i = next++) fn(i);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
}

}  // namespace perfbench
