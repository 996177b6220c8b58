#include "codec/frame_source.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "util/retry.h"

namespace classminer::codec {

util::StatusOr<std::unique_ptr<FrameSource>> FrameSource::Create(
    const CmvFile* file, const Options& options) {
  util::StatusOr<GopReader> reader = GopReader::Create(file);
  if (!reader.ok()) return reader.status();
  return std::unique_ptr<FrameSource>(
      new FrameSource(std::move(reader).value(), options));
}

FrameSource::FrameSource(GopReader reader, const Options& options)
    : reader_(std::move(reader)),
      capacity_(std::max(1, options.cache_capacity_gops)),
      cancel_(options.cancel),
      salvage_(options.salvage) {}

util::StatusOr<FrameHandle> FrameSource::GetFrame(int frame_index) {
  const int g = reader_.GopOfFrame(frame_index);
  if (g < 0) {
    return util::Status::OutOfRange(
        "frame index " + std::to_string(frame_index) + " outside [0, " +
        std::to_string(reader_.frame_count()) + ")");
  }
  const size_t offset = static_cast<size_t>(
      frame_index - reader_.gop(g).start_frame);

  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (!error_.ok()) return error_;
    if (salvage_) {
      auto bad = bad_gops_.find(g);
      if (bad != bad_gops_.end()) return bad->second;
    }
    auto it = cache_.find(g);
    if (it != cache_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      ++stats_.cache_hits;
      return FrameHandle(it->second.frames, offset);
    }
    if (inflight_.count(g) == 0) break;
    decoded_cv_.wait(lock);
  }

  // Decode outside the lock; other GOPs (and waiters on this one) proceed.
  inflight_.insert(g);
  lock.unlock();
  const auto start = std::chrono::steady_clock::now();
  util::StatusOr<std::vector<media::Image>> gop =
      reader_.DecodeGop(g, cancel_);
  const double elapsed_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          std::chrono::steady_clock::now() - start)
          .count();
  lock.lock();
  inflight_.erase(g);
  if (!gop.ok()) {
    const util::StatusCode code = gop.status().code();
    // Cancellation is transient caller state and kUnavailable-class codes
    // are retryable environment hiccups; neither is container corruption,
    // so neither poisons the source — a later GetFrame retries the decode.
    const bool retryable = code == util::StatusCode::kCancelled ||
                           util::IsTransientCode(code);
    if (salvage_ && !retryable) {
      // Confine the damage to this GOP; intact GOPs stay reachable.
      bad_gops_.emplace(g, gop.status());
      ++stats_.failed_gops;
    } else if (!salvage_ && !retryable && error_.ok()) {
      error_ = gop.status();
    }
    decoded_cv_.notify_all();
    return gop.status();
  }
  ++stats_.cache_misses;
  ++stats_.decoded_gops;
  stats_.decoded_frames += static_cast<int64_t>(gop->size());
  stats_.decode_ms += elapsed_ms;

  auto entry = std::make_shared<const DecodedGop>(std::move(gop).value());
  lru_.push_front(g);
  cache_[g] = CacheEntry{entry, lru_.begin()};
  while (static_cast<int>(cache_.size()) > capacity_) {
    cache_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
  decoded_cv_.notify_all();
  return FrameHandle(std::move(entry), offset);
}

FrameSource::Stats FrameSource::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace classminer::codec
