#ifndef CLASSMINER_CODEC_QUANT_H_
#define CLASSMINER_CODEC_QUANT_H_

#include <array>
#include <cstdint>

#include "codec/bitstream.h"
#include "codec/dct.h"

namespace classminer::codec {

using QuantizedBlock = std::array<int32_t, kBlockPixels>;
using StepTable = std::array<double, kBlockPixels>;

// JPEG-style luminance base quantisation matrix scaled by `quality`
// (1 = near-lossless ... 31 = very coarse, MPEG-1 quantiser-scale range).
// Chroma uses the same matrix with a 1.4x factor. Steps of the MPEG-1
// range come from tables built once; other qualities are computed into a
// per-thread table, valid until the thread's next call.
const StepTable& StepSizes(int quality, bool chroma);
QuantizedBlock Quantize(const Block& freq, int quality, bool chroma);
Block Dequantize(const QuantizedBlock& q, int quality, bool chroma);

// The one block reconstruction of the codec, shared by the encoder's
// reconstruction loop and the decoder: sample (x, y) of 8x8 block (bx, by)
// of `out` becomes RoundClamp255(base + InverseDct(Dequantize(q))[y][x]),
// where base is the sample's motion-compensated prediction, already in
// `out`, when `predicted`, and 128 for an intra block. The footprint is
// clipped to `out`. A predicted block with all coefficients zero keeps its
// prediction untouched (DESIGN.md, "Codec pixel path").
void ReconstructBlock(const QuantizedBlock& q, int quality, bool chroma,
                      bool predicted, int bx, int by, Plane* out);

// Zig-zag scan order (index in raster order -> scan position).
const std::array<int, kBlockPixels>& ZigzagOrder();

// Entropy-codes a quantised block: DC as a signed exp-Golomb delta against
// `dc_predictor`, AC as (run, level) pairs in zig-zag order with an EOB
// marker. Returns the block's DC value for predictor chaining.
int32_t EncodeBlock(BitWriter* writer, const QuantizedBlock& q,
                    int32_t dc_predictor);

// Inverse of EncodeBlock. On success stores the block and returns its DC
// value (new predictor).
util::StatusOr<int32_t> DecodeBlock(BitReader* reader, QuantizedBlock* q,
                                    int32_t dc_predictor);

}  // namespace classminer::codec

#endif  // CLASSMINER_CODEC_QUANT_H_
