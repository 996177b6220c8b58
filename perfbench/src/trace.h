#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. The benchmark wraps each call
// into a layer's public functions in a span: name, start, end, parent span
// and request id. Spans stay in memory and are written out when the run
// ends. A layer's self time is its span minus the part of that interval its
// child spans cover.
//
// A disabled tracer records nothing: Span objects cost one branch, so the
// untraced run that measures the end-to-end numbers carries no tracing.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int64_t id = 0;
  int64_t parent = -1;  // -1 = root
  int64_t request = -1;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Opens a span on the calling thread; its parent is the innermost span
  // still open on that thread. Returns the span id (-1 when disabled).
  int64_t Begin(const std::string& name, int64_t request = -1);
  void End(int64_t id);

  std::vector<SpanRecord> Spans() const;
  size_t span_count() const;

  // Self time of every span (duration minus the union of its children's
  // intervals), in milliseconds, grouped by span name.
  std::map<std::string, std::vector<double>> SelfTimesMs() const;

  // Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // indexed by id
};

// RAII span: Begin on construction, End on destruction.
class Span {
 public:
  Span(Tracer* tracer, const std::string& name, int64_t request = -1)
      : tracer_(tracer),
        id_(tracer != nullptr && tracer->enabled()
                ? tracer->Begin(name, request)
                : -1) {}
  ~Span() {
    if (id_ >= 0) tracer_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

// Self time of one span given its children's [start, end] intervals.
double SelfTime(double start, double end,
                std::vector<std::pair<double, double>> children);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
