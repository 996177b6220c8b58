#include "codec/bitstream.h"

namespace classminer::codec {

void BitWriter::PutBit(int bit) {
  current_ = static_cast<uint8_t>((current_ << 1) | (bit & 1));
  if (++bit_pos_ == 8) {
    bytes_.push_back(current_);
    current_ = 0;
    bit_pos_ = 0;
  }
}

void BitWriter::PutBits(uint32_t value, int count) {
  for (int i = count - 1; i >= 0; --i) PutBit(static_cast<int>((value >> i) & 1));
}

void BitWriter::PutUE(uint32_t v) {
  // Code number v+1 with leading-zero prefix.
  const uint32_t code = v + 1;
  int len = 0;
  for (uint32_t t = code; t > 1; t >>= 1) ++len;
  for (int i = 0; i < len; ++i) PutBit(0);
  PutBits(code, len + 1);
}

void BitWriter::PutSE(int32_t v) {
  const uint32_t mapped =
      v > 0 ? static_cast<uint32_t>(2 * v - 1) : static_cast<uint32_t>(-2 * v);
  PutUE(mapped);
}

std::vector<uint8_t> BitWriter::Finish() {
  while (bit_pos_ != 0) PutBit(0);
  return std::move(bytes_);
}

util::Status BitReader::Exhausted() {
  pos_ = end_;
  return util::Status::DataLoss("bitstream exhausted");
}

util::StatusOr<uint32_t> BitReader::GetBits(int count) {
  if (count <= 0) return 0u;
  if (static_cast<size_t>(count) > end_ - pos_) return Exhausted();
  if (count > 32) {
    pos_ += static_cast<size_t>(count - 32);  // shifted out of the result
    count = 32;
  }
  const uint32_t v = static_cast<uint32_t>(Window() >> (64 - count));
  pos_ += static_cast<size_t>(count);
  return v;
}

util::StatusOr<uint32_t> BitReader::GetLongUE(int zeros) {
  pos_ += static_cast<size_t>(zeros) + 1;
  const uint32_t suffix = static_cast<uint32_t>(Window() >> (64 - zeros));
  pos_ += static_cast<size_t>(zeros);
  return ((1u << zeros) | suffix) - 1;
}

}  // namespace classminer::codec
