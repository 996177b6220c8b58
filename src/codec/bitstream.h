#ifndef CLASSMINER_CODEC_BITSTREAM_H_
#define CLASSMINER_CODEC_BITSTREAM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/status.h"

namespace classminer::codec {

// MSB-first bit writer used by the entropy coder.
class BitWriter {
 public:
  void PutBit(int bit);
  void PutBits(uint32_t value, int count);  // writes `count` low bits, MSB first

  // Unsigned exp-Golomb code (H.264-style): v >= 0.
  void PutUE(uint32_t v);
  // Signed exp-Golomb: 0, 1, -1, 2, -2, ...
  void PutSE(int32_t v);

  // Pads with zero bits to a byte boundary and returns the buffer.
  std::vector<uint8_t> Finish();

  size_t bit_count() const { return bytes_.size() * 8 + bit_pos_; }

 private:
  std::vector<uint8_t> bytes_;
  uint8_t current_ = 0;
  int bit_pos_ = 0;  // bits already used in `current_`
};

// MSB-first bit reader; out-of-data reads return DATA_LOSS ("bitstream
// exhausted"), an exp-Golomb prefix of 32 zeros DATA_LOSS ("malformed
// exp-Golomb code"). It reads a 64-bit window at a time and finds an
// exp-Golomb prefix with one count-leading-zeros; a failing read consumes
// exactly the bits a bit-at-a-time reader would have consumed before
// giving up (the rest of the stream, or the 32 zeros).
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), end_(size * 8) {}
  explicit BitReader(const std::vector<uint8_t>& bytes)
      : BitReader(bytes.data(), bytes.size()) {}

  util::StatusOr<int> GetBit() {
    if (pos_ >= end_) return Exhausted();
    const int bit = (data_[pos_ >> 3] >> (7 - (pos_ & 7))) & 1;
    ++pos_;
    return bit;
  }
  // The next `count` bits, MSB first; a count above 32 keeps the last 32.
  util::StatusOr<uint32_t> GetBits(int count);
  util::StatusOr<uint32_t> GetUE() {
    const uint64_t window = Window();
    const int zeros = std::countl_zero(window);  // 64 for an all-zero window
    const size_t avail = end_ - pos_;
    if (zeros >= 32) {
      // The window holds at least 57 stream bits, or all that are left.
      if (avail < 32) return Exhausted();
      pos_ += 32;
      return util::Status::DataLoss("malformed exp-Golomb code");
    }
    const size_t length = 2 * static_cast<size_t>(zeros) + 1;
    if (length > avail) return Exhausted();
    if (length > kWindowBits) return GetLongUE(zeros);
    pos_ += length;
    return static_cast<uint32_t>(window >> (64 - length)) - 1;
  }
  util::StatusOr<int32_t> GetSE() {
    util::StatusOr<uint32_t> ue = GetUE();
    if (!ue.ok()) return ue.status();
    const uint32_t v = *ue;
    if (v % 2 == 1) return static_cast<int32_t>((v + 1) / 2);
    return -static_cast<int32_t>(v / 2);
  }

  size_t bits_consumed() const { return pos_; }
  bool exhausted() const { return pos_ >= end_; }

 private:
  // Stream bits a window is guaranteed to hold (64 minus the bit offset
  // into its first byte) unless fewer remain.
  static constexpr size_t kWindowBits = 57;

  // The 64 bits from pos_ on, MSB first; bits past the end read as zero.
  uint64_t Window() const {
    const size_t byte = pos_ >> 3;
    uint64_t w = 0;
    if (byte + 8 <= size_) {
      std::memcpy(&w, data_ + byte, 8);
      if constexpr (std::endian::native == std::endian::little) {
        w = __builtin_bswap64(w);
      }
    } else {
      for (size_t i = 0; byte + i < size_; ++i) {
        w |= uint64_t{data_[byte + i]} << (56 - 8 * i);
      }
    }
    return w << (pos_ & 7);
  }
  // A code longer than one window: prefix, then the suffix from a second.
  util::StatusOr<uint32_t> GetLongUE(int zeros);
  // Consumes the rest of the stream and returns "bitstream exhausted".
  util::Status Exhausted();

  const uint8_t* data_;
  size_t size_;
  size_t end_;  // in bits
  size_t pos_ = 0;
};

}  // namespace classminer::codec

#endif  // CLASSMINER_CODEC_BITSTREAM_H_
