#ifndef CLASSMINER_TESTS_LEGACY_CMDB_H_
#define CLASSMINER_TESTS_LEGACY_CMDB_H_

// Writers for the legacy monolithic "CMDB" database format. The library
// only reads CMDB files (import-only; repair migrates them), so the tests
// that pin the importer build their v1/v2/v3 fixtures here:
//   v3  header (magic "CMDB", version, video count) + one framed entry
//       (magic "CMVE", body size, CRC-32, body) per video
//   v2  the same bodies back to back, no frames
//   v1  v2 without the trailing per-body degraded flag

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "index/database.h"
#include "index/persist.h"
#include "util/serial.h"
#include "util/status.h"

namespace classminer::legacy_cmdb {

inline constexpr uint32_t kMagic = 0x42444d43;  // "CMDB"

// Reconstructs a legacy CMDB file (version 1 or 2) from v3 bytes: the
// version field is stamped back, every entry's 12-byte frame (magic + body
// size + CRC) is stripped, and for v1 the trailing per-body degraded byte
// goes too.
inline std::vector<uint8_t> StripToLegacy(const std::vector<uint8_t>& v3,
                                          uint32_t version) {
  auto read_u32 = [&v3](size_t pos) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(v3[pos + i]) << (8 * i);
    }
    return v;
  };
  std::vector<uint8_t> out(v3.begin(), v3.begin() + 12);
  out[4] = static_cast<uint8_t>(version);
  const uint32_t videos = read_u32(8);
  size_t pos = 12;
  for (uint32_t i = 0; i < videos; ++i) {
    const uint32_t body_size = read_u32(pos + 4);
    const size_t body = pos + 12;
    const size_t keep = version >= 2 ? body_size : body_size - 1;
    out.insert(out.end(), v3.begin() + static_cast<ptrdiff_t>(body),
               v3.begin() + static_cast<ptrdiff_t>(body + keep));
    pos = body + body_size;
  }
  return out;
}

// The CMDB bytes of `db` at `version` (1, 2 or 3).
inline std::vector<uint8_t> Serialize(const index::VideoDatabase& db,
                                      uint32_t version = 3) {
  util::ByteWriter w;
  w.PutU32(kMagic);
  w.PutU32(3);
  w.PutU32(static_cast<uint32_t>(db.video_count()));
  for (int v = 0; v < db.video_count(); ++v) {
    index::internal::PutFramedEntry(&w, db.video(v));
  }
  std::vector<uint8_t> v3 = w.Release();
  return version >= 3 ? v3 : StripToLegacy(v3, version);
}

// Writes `db` as a legacy CMDB file at `path` (a `.prev` generation is a
// second call with index::DatabaseBackupPath(path)).
inline util::Status Write(const index::VideoDatabase& db,
                          const std::string& path, uint32_t version = 3) {
  return util::WriteFile(path, Serialize(db, version));
}

}  // namespace classminer::legacy_cmdb

#endif  // CLASSMINER_TESTS_LEGACY_CMDB_H_
