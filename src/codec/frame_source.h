#ifndef CLASSMINER_CODEC_FRAME_SOURCE_H_
#define CLASSMINER_CODEC_FRAME_SOURCE_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "codec/gop_reader.h"
#include "media/image.h"
#include "util/exec_context.h"
#include "util/status.h"

namespace classminer::codec {

// A decoded GOP held by the cache; shared so handles outlive eviction.
using DecodedGop = std::vector<media::Image>;

// A pinned view of one decoded frame. Holding a handle keeps its whole GOP
// alive, so the image reference stays valid even after the cache evicts the
// GOP. Default-constructed handles are empty (valid() is false).
class FrameHandle {
 public:
  FrameHandle() = default;
  bool valid() const { return gop_ != nullptr; }
  const media::Image& image() const { return (*gop_)[offset_]; }

 private:
  friend class FrameSource;
  FrameHandle(std::shared_ptr<const DecodedGop> gop, size_t offset)
      : gop_(std::move(gop)), offset_(offset) {}

  std::shared_ptr<const DecodedGop> gop_;
  size_t offset_ = 0;
};

// Construction options for FrameSource (namespace scope so it can serve as
// a default argument of FrameSource::Create).
struct FrameSourceOptions {
  // Maximum decoded GOPs held by the cache (>= 1). Bounds resident memory
  // at capacity * gop_size full frames.
  int cache_capacity_gops = 8;
  // Borrowed; may be null. Checked inside the per-GOP decode loop.
  const util::CancellationToken* cancel = nullptr;
  // Salvage mode for damaged containers: a GOP whose decode fails is marked
  // bad (counted in Stats::failed_gops) instead of poisoning the whole
  // source. GetFrame on a bad GOP keeps failing with the recorded error,
  // but frames in intact GOPs stay reachable.
  bool salvage = false;
};

// Thread-safe random-access frame supplier over a CMV container: a
// GopReader plus a capacity-bounded LRU cache of decoded GOPs. Callers ask
// for individual frames; the source decodes (at most) the containing GOP,
// so sparse access patterns — one representative frame per shot, sampled
// cue frames — cost O(touched GOPs * GOP size) decode work instead of
// O(frames). Frames are bit-identical to the same index of a full
// DecodeVideo pass (shared per-frame decode core; each GOP starts at an
// I-frame, so its decode is self-contained).
//
// Concurrency: GetFrame may be called from any number of threads. A GOP
// being decoded by one thread is awaited (not re-decoded) by concurrent
// requesters of the same GOP; distinct GOPs decode in parallel outside the
// lock. The first *non-retryable* decode failure is sticky — every later
// GetFrame returns it, mirroring pipeline first-error-wins semantics.
// Cancellation and transient codes (kUnavailable) do not poison the source:
// a later GetFrame retries the decode. In salvage mode (Options::salvage)
// nothing is sticky; failures are confined to their GOP.
class FrameSource {
 public:
  using Options = FrameSourceOptions;

  struct Stats {
    int64_t decoded_gops = 0;    // GOP decodes actually performed
    int64_t decoded_frames = 0;  // frames materialised by those decodes
    int64_t cache_hits = 0;      // GetFrame served from cache
    int64_t cache_misses = 0;    // GetFrame that triggered a decode
    int64_t evictions = 0;       // GOPs dropped by LRU pressure
    int64_t failed_gops = 0;     // GOPs marked bad in salvage mode
    double decode_ms = 0.0;      // wall time spent inside GOP decodes
  };

  // Validates the file/index via GopReader::Create.
  static util::StatusOr<std::unique_ptr<FrameSource>> Create(
      const CmvFile* file, const Options& options = Options());

  // Returns a pinned handle to frame `frame_index`, decoding its GOP on a
  // cache miss. Fails with kOutOfRange for bad indices, kCancelled when the
  // token fires, or the sticky first decode error.
  util::StatusOr<FrameHandle> GetFrame(int frame_index);

  int frame_count() const { return reader_.frame_count(); }
  int gop_count() const { return reader_.gop_count(); }
  const GopReader& reader() const { return reader_; }

  Stats stats() const;

 private:
  FrameSource(GopReader reader, const Options& options);

  GopReader reader_;
  const int capacity_;
  const util::CancellationToken* cancel_;
  const bool salvage_;

  mutable std::mutex mutex_;
  std::condition_variable decoded_cv_;
  // LRU order, most recent at the front; values are GOP indices.
  std::list<int> lru_;
  struct CacheEntry {
    std::shared_ptr<const DecodedGop> frames;
    std::list<int>::iterator lru_pos;
  };
  std::unordered_map<int, CacheEntry> cache_;
  std::set<int> inflight_;  // GOPs currently decoding on some thread
  util::Status error_;      // sticky first non-retryable decode failure
  // Salvage mode: GOPs that failed to decode, with the recorded error.
  std::unordered_map<int, util::Status> bad_gops_;
  Stats stats_;
};

}  // namespace classminer::codec

#endif  // CLASSMINER_CODEC_FRAME_SOURCE_H_
