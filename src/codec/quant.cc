#include "codec/quant.h"

#include <algorithm>
#include <cmath>

namespace classminer::codec {
namespace {

// JPEG Annex K luminance matrix.
constexpr int kBaseMatrix[kBlockPixels] = {
    16, 11, 10, 16, 24,  40,  51,  61,   //
    12, 12, 14, 19, 26,  58,  60,  55,   //
    14, 13, 16, 24, 40,  57,  69,  56,   //
    14, 17, 22, 29, 51,  87,  80,  62,   //
    18, 22, 37, 56, 68,  109, 103, 77,   //
    24, 35, 55, 64, 81,  104, 113, 92,   //
    49, 64, 78, 87, 103, 121, 120, 101,  //
    72, 92, 95, 98, 112, 100, 103, 99};

constexpr int kTabledQualities = 31;

StepTable MakeSteps(int quality, bool chroma) {
  const double scale = std::max(1, quality) / 8.0;
  const double chroma_boost = chroma ? 1.4 : 1.0;
  StepTable steps;
  for (int i = 0; i < kBlockPixels; ++i) {
    steps[static_cast<size_t>(i)] =
        std::max(1.0, kBaseMatrix[i] * scale * chroma_boost);
  }
  return steps;
}

// [quality - 1][chroma] for qualities 1..31.
using StepTables = std::array<std::array<StepTable, 2>, kTabledQualities>;

StepTables MakeStepTables() {
  StepTables tables;
  for (int q = 1; q <= kTabledQualities; ++q) {
    tables[static_cast<size_t>(q - 1)] = {MakeSteps(q, false),
                                          MakeSteps(q, true)};
  }
  return tables;
}

std::array<int, kBlockPixels> BuildZigzag() {
  std::array<int, kBlockPixels> order{};
  int idx = 0;
  for (int s = 0; s < 2 * kBlockSize - 1; ++s) {
    if (s % 2 == 0) {
      // Walk up-right.
      for (int y = std::min(s, kBlockSize - 1); y >= 0 && s - y < kBlockSize;
           --y) {
        order[static_cast<size_t>(idx++)] = y * kBlockSize + (s - y);
      }
    } else {
      for (int x = std::min(s, kBlockSize - 1); x >= 0 && s - x < kBlockSize;
           --x) {
        order[static_cast<size_t>(idx++)] = (s - x) * kBlockSize + x;
      }
    }
  }
  return order;
}

}  // namespace

const StepTable& StepSizes(int quality, bool chroma) {
  static const StepTables tables = MakeStepTables();
  // Every quality below 1 scales like 1.
  const int row = std::max(1, quality);
  if (row <= kTabledQualities) {
    return tables[static_cast<size_t>(row - 1)][chroma ? 1 : 0];
  }
  thread_local int cached_quality = 0;
  thread_local bool cached_chroma = false;
  thread_local StepTable cached;
  if (cached_quality != row || cached_chroma != chroma) {
    cached = MakeSteps(row, chroma);
    cached_quality = row;
    cached_chroma = chroma;
  }
  return cached;
}

const std::array<int, kBlockPixels>& ZigzagOrder() {
  static const std::array<int, kBlockPixels> order = BuildZigzag();
  return order;
}

QuantizedBlock Quantize(const Block& freq, int quality, bool chroma) {
  const StepTable& steps = StepSizes(quality, chroma);
  QuantizedBlock q;
  for (size_t i = 0; i < kBlockPixels; ++i) {
    q[i] = static_cast<int32_t>(std::lround(freq[i] / steps[i]));
  }
  return q;
}

Block Dequantize(const QuantizedBlock& q, int quality, bool chroma) {
  const StepTable& steps = StepSizes(quality, chroma);
  Block freq;
  for (size_t i = 0; i < kBlockPixels; ++i) freq[i] = q[i] * steps[i];
  return freq;
}

void ReconstructBlock(const QuantizedBlock& q, int quality, bool chroma,
                      bool predicted, int bx, int by, Plane* out) {
  int32_t coded = 0;
  for (int32_t level : q) coded |= level;
  // Prediction samples are integers in [0, 255], so adding a +0.0
  // residual and rounding gives each one back.
  if (coded == 0 && predicted) return;
  AddResidual(InverseDct(Dequantize(q, quality, chroma)), predicted, bx, by,
              out);
}

int32_t EncodeBlock(BitWriter* writer, const QuantizedBlock& q,
                    int32_t dc_predictor) {
  const auto& zz = ZigzagOrder();
  const int32_t dc = q[0];
  writer->PutSE(dc - dc_predictor);

  int run = 0;
  for (int i = 1; i < kBlockPixels; ++i) {
    const int32_t level = q[static_cast<size_t>(zz[static_cast<size_t>(i)])];
    if (level == 0) {
      ++run;
      continue;
    }
    writer->PutBit(1);  // coefficient flag
    writer->PutUE(static_cast<uint32_t>(run));
    writer->PutSE(level);
    run = 0;
  }
  writer->PutBit(0);  // EOB
  return dc;
}

util::StatusOr<int32_t> DecodeBlock(BitReader* reader, QuantizedBlock* q,
                                    int32_t dc_predictor) {
  q->fill(0);
  const auto& zz = ZigzagOrder();

  util::StatusOr<int32_t> dc_delta = reader->GetSE();
  if (!dc_delta.ok()) return dc_delta.status();
  // Wrapping add: a hostile delta must not overflow a signed int.
  const int32_t dc = static_cast<int32_t>(static_cast<uint32_t>(dc_predictor) +
                                          static_cast<uint32_t>(*dc_delta));
  (*q)[0] = dc;

  int pos = 1;
  while (true) {
    util::StatusOr<int> flag = reader->GetBit();
    if (!flag.ok()) return flag.status();
    if (*flag == 0) break;  // EOB
    util::StatusOr<uint32_t> run = reader->GetUE();
    if (!run.ok()) return run.status();
    util::StatusOr<int32_t> level = reader->GetSE();
    if (!level.ok()) return level.status();
    if (*run >= static_cast<uint32_t>(kBlockPixels - pos)) {
      return util::Status::DataLoss("AC run exceeds block size");
    }
    pos += static_cast<int>(*run);
    (*q)[static_cast<size_t>(zz[static_cast<size_t>(pos)])] = *level;
    ++pos;
  }
  return dc;
}

}  // namespace classminer::codec
