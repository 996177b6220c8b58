#ifndef CLASSMINER_CODEC_CONTAINER_H_
#define CLASSMINER_CODEC_CONTAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/salvage.h"
#include "util/status.h"

namespace classminer::codec {

enum class FrameType : uint8_t { kIntra = 0, kPredicted = 1 };

// One encoded frame: type + entropy-coded payload.
struct FrameRecord {
  FrameType type = FrameType::kIntra;
  std::vector<uint8_t> payload;
};

// One entry of the per-GOP random-access index: each GOP starts at an
// I-frame and covers the run of P-frames up to (excluding) the next
// I-frame. Byte offsets address the concatenated video payload stream (the
// frame payloads in order, headers excluded), so a reader holding the index
// can seek to and decode an arbitrary GOP without touching the rest of the
// bitstream.
struct GopIndexEntry {
  int start_frame = 0;      // index of the GOP's opening I-frame
  int frame_count = 0;      // frames in this GOP (the I-frame + its P-run)
  uint64_t byte_offset = 0; // offset of the I-frame payload in the stream
  uint64_t byte_size = 0;   // total payload bytes of the GOP's frames

  friend bool operator==(const GopIndexEntry&, const GopIndexEntry&) =
      default;
};

// The "CMV" container: sequence header, GOP-structured frame records, a
// per-GOP seek index and an optional mono PCM audio track. This is the
// at-rest representation of a video in the database (the stand-in for the
// paper's MPEG-I files).
//
// Two on-disk generations share the layout: "CMV1" frame records are
// (type u8, size u32, payload); "CMV2" appends a CRC-32 over type+payload
// to every record, so a bit-flip is detected at the record that took it
// (and the best-effort parser can resynchronise onto a checksum-confirmed
// record after a tear). Writers emit CMV2 unless `record_checksums` is
// cleared; CMV1-era files (with or without the GIDX section) still load
// bit-identically.
struct CmvFile {
  static constexpr uint32_t kMagic = 0x31564d43;      // "CMV1"
  static constexpr uint32_t kMagicV2 = 0x32564d43;    // "CMV2"
  static constexpr uint32_t kGopIndexMagic = 0x58444947;  // "GIDX"

  std::string name;
  int width = 0;
  int height = 0;
  double fps = 25.0;
  int quality = 8;    // quantiser scale used at encode time
  int gop_size = 12;  // I-frame period

  std::vector<FrameRecord> frames;

  // Seek index, one entry per GOP in stream order. The encoder emits it;
  // Parse validates a stored index against the frame records (corrupt or
  // truncated indexes fail with DataLoss) and rebuilds it for legacy
  // containers that predate the index section.
  std::vector<GopIndexEntry> gop_index;

  // Whether frame records carry a trailing CRC-32 (the CMV2 format).
  // Parse sets it from the magic, so legacy files round-trip byte-stable;
  // freshly encoded containers default to checksummed.
  bool record_checksums = true;

  int audio_sample_rate = 0;       // 0 = no audio track
  std::vector<float> audio_pcm;    // mono samples in [-1, 1]

  int frame_count() const { return static_cast<int>(frames.size()); }
  int gop_count() const { return static_cast<int>(gop_index.size()); }

  // Total encoded video payload size in bytes (excludes header/audio).
  size_t VideoPayloadBytes() const;

  // Derives the GOP index from the frame records (I-frame positions and
  // payload sizes). Fails when the stream does not open with an I-frame.
  static util::StatusOr<std::vector<GopIndexEntry>> DeriveGopIndex(
      const std::vector<FrameRecord>& frames);
  // Recomputes `gop_index` in place from `frames`.
  util::Status RebuildGopIndex();
  // Index of the GOP containing `frame_index` (binary search), or -1 when
  // out of range / the index is empty.
  int GopOfFrame(int frame_index) const;
  // The same search over any index sorted by start_frame.
  static int FindGop(const std::vector<GopIndexEntry>& index,
                     int frame_index);

  // Serializability guard: every collection Serialize() writes behind a u32
  // length prefix (frame count, per-frame payload size, audio samples, GOP
  // index entries, the name) must actually fit one, or the narrowing cast
  // would silently truncate the count into a corrupt-but-checksum-valid
  // file. Returns kInvalidArgument naming the offending field. SaveToFile
  // checks it before writing.
  util::Status ValidateForSerialize() const;

  std::vector<uint8_t> Serialize() const;
  // Strict parse: any structural damage — truncation, bad magic, an
  // inconsistent index — fails with DataLoss (messages carry the section
  // name and byte offset of the damage).
  static util::StatusOr<CmvFile> Parse(const std::vector<uint8_t>& bytes);

  // Best-effort parse for damaged containers: recovers the valid frame
  // prefix from a truncated or bit-flipped stream (dropping a torn trailing
  // record), drops leading undecodable P-frames, survives a corrupt audio
  // track by dropping it, and rebuilds a corrupt or missing GOP index from
  // the recovered records. For checksummed (CMV2) containers it goes
  // further: after a tear it scans forward for the next checksum-confirmed
  // I-frame record (or the audio/GIDX trailer) and recovers the suffix
  // behind the damage too, itemising every dropped span in `report`
  // (resync_points counts the tears crossed). What was dropped/rebuilt
  // lands in `report` (never null semantics: pass nullptr to discard).
  // Fails only when the header is unreadable or no decodable GOP survives.
  static util::StatusOr<CmvFile> ParseBestEffort(
      const std::vector<uint8_t>& bytes, util::SalvageReport* report);

  util::Status SaveToFile(const std::string& path) const;
  static util::StatusOr<CmvFile> LoadFromFile(const std::string& path);
  static util::StatusOr<CmvFile> LoadFromFileBestEffort(
      const std::string& path, util::SalvageReport* report);
};

}  // namespace classminer::codec

#endif  // CLASSMINER_CODEC_CONTAINER_H_
