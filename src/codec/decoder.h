#ifndef CLASSMINER_CODEC_DECODER_H_
#define CLASSMINER_CODEC_DECODER_H_

#include <vector>

#include "codec/container.h"
#include "codec/dct.h"
#include "media/image.h"
#include "media/video.h"
#include "util/exec_context.h"
#include "util/salvage.h"
#include "util/status.h"

namespace classminer::codec {

// Fully decodes a CMV file back into an in-memory video. GOPs (derived from
// the frame records; a stored gop_index is ignored) decode in parallel on
// ctx's pool, bit-identical at any width. ctx's token is checked between
// frames (kCancelled); of several failing GOPs the first in order decides.
util::StatusOr<media::Video> DecodeVideo(
    const CmvFile& file,
    const util::ExecutionContext& ctx = util::ExecutionContext());

// Compressed-domain fast path: reconstructs the sequence of DC images (one
// luma mean per 8x8 block, i.e. a width/8 x height/8 thumbnail per frame)
// without inverse-transforming AC coefficients. I-frames use their coded DC
// terms directly; P-frames apply motion-vector shifts to the previous DC
// image plus the residual DC (Yeo & Liu-style DC sequence extraction). This
// is what the MPEG-domain shot detector consumes. `cancel` as above.
util::StatusOr<std::vector<media::GrayImage>> DecodeDcImages(
    const CmvFile& file, const util::CancellationToken* cancel = nullptr);

// Best-effort DC sequence for damaged payloads: a frame whose bitstream
// fails to decode (bit flips survive structural parse — record lengths stay
// intact — and only surface here) is replaced by the previous DC image, and
// the rest of its GOP rides on that substitute until the next I-frame
// resynchronises the stream. Frame indices stay aligned with the container
// so shot boundaries land on real frame numbers. Skipped GOPs land in
// `report` (gops_skipped; pass nullptr to discard). Fails only when not a
// single frame decodes.
util::StatusOr<std::vector<media::GrayImage>> DecodeDcImagesSalvage(
    const CmvFile& file, util::SalvageReport* report,
    const util::CancellationToken* cancel = nullptr);

// PSNR (dB) between two equally-sized images; +inf for identical content.
double Psnr(const media::Image& a, const media::Image& b);

namespace internal {

// Decodes one frame record into a full pixel reconstruction. For kIntra
// frames `ref` is ignored; for kPredicted frames `ref` must hold the
// previous reconstruction at the same dimensions.
//
// `scratch` (may be null → heap) backs the returned picture's planes. An
// arena-backed picture is only valid until the arena resets (see
// DecodeGopFrames).
util::StatusOr<Picture> DecodePicture(const FrameRecord& rec, int width,
                                      int height, int quality,
                                      const Picture* ref,
                                      std::pmr::memory_resource* scratch =
                                          nullptr);

// The one per-GOP loop behind DecodeVideo and GopReader::DecodeGop: appends
// `gop`'s frames to *frames as each decodes, double-buffering in arenas[0..1]
// (reusable across calls). `cancel` (may be null) is checked between frames.
util::Status DecodeGopFrames(const CmvFile& file, const GopIndexEntry& gop,
                             const util::CancellationToken* cancel,
                             util::Arena* arenas,
                             std::vector<media::Image>* frames);

}  // namespace internal
}  // namespace classminer::codec

#endif  // CLASSMINER_CODEC_DECODER_H_
