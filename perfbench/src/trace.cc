#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "bench_util.h"

namespace perfbench {
namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> open_spans;

}  // namespace

int64_t Tracer::Begin(const std::string& name, int64_t request) {
  if (!enabled_) return -1;
  SpanRecord rec;
  rec.name = name;
  rec.start_s = NowSeconds();
  rec.parent = open_spans.empty() ? -1 : open_spans.back();
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int64_t>(spans_.size());
    if (request < 0 && rec.parent >= 0) {
      request = spans_[static_cast<size_t>(rec.parent)].request;
    }
    rec.id = id;
    rec.request = request;
    spans_.push_back(std::move(rec));
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  if (!enabled_ || id < 0) return;
  const double now = NowSeconds();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_s = now;
  }
  const auto it = std::find(open_spans.rbegin(), open_spans.rend(), id);
  if (it != open_spans.rend()) open_spans.erase(std::next(it).base());
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

double SelfTime(double start, double end,
                std::vector<std::pair<double, double>> children) {
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double cursor = start;
  for (auto [s, e] : children) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return std::max(0.0, (end - start) - covered);
}

std::map<std::string, std::vector<double>> Tracer::SelfTimesMs() const {
  const std::vector<SpanRecord> spans = Spans();
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (const SpanRecord& s : spans) {
    out[s.name].push_back(
        1000.0 * SelfTime(s.start_s, s.end_s,
                          std::move(children[static_cast<size_t>(s.id)])));
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : Spans()) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"id\": %lld, \"parent\": %lld, \"request\": %lld}\n",
                 s.name.c_str(), s.start_s, s.end_s,
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
