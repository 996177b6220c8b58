#ifndef CLASSMINER_INDEX_PERSIST_H_
#define CLASSMINER_INDEX_PERSIST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/database.h"
#include "util/salvage.h"
#include "util/serial.h"
#include "util/status.h"

namespace classminer::index {

// Binary persistence of the mined database (features + structure + events;
// raw media stays in CMV containers).
//
// A database on disk is a sharded library (index/shard.h): a "CMSM" root
// manifest and one "CMSL" append log per shard. Everything that writes
// (SaveDatabase, repair, compaction, upserts) writes that format; a fresh
// path gets a 1-shard library. This file holds the per-entry codec the
// shard logs frame their records with, and the format-dispatching entry
// points that callers (repair, server ops, the scrubber, the CLI) use.
//
// Legacy monolithic "CMDB" files are import-only:
//   v1  bodies written back to back, no per-video degraded flag
//   v2  appends a per-video degraded flag to each body
//   v3  frames every video entry as (entry magic "CMVE", body size u32,
//       CRC-32 u32, body) so a bit-flip is detected at the entry that took
//       it and a salvage parse can resynchronise onto the next
//       checksum-confirmed entry after a tear
// together with the `<path>.prev` generation an old save rotated aside.
// They load, open and verify (never clean), and repair migrates them in
// place to a 1-shard library; nothing writes them.

// Serializability guard: every count the entry codec writes behind a u32
// length prefix (per-entry shot/group/scene/cluster/event counts, string
// lengths) and every framed entry body size must fit 32 bits, or the
// narrowing cast would silently truncate it into a corrupt-but-checksum-
// valid record. Entry names must be unique too: a library keys entries by
// name, so a repeated one would silently replace the earlier entry.
// Returns kInvalidArgument naming the offending entry and field; full
// saves check it before writing anything.
util::Status ValidateForSerialize(const VideoDatabase& db);

// Strict parse of a legacy CMDB file: any structural damage — including a
// v3 entry whose stored CRC-32 does not match its body — fails with
// DataLoss (messages carry the section name and byte offset of the damage).
util::StatusOr<VideoDatabase> ParseDatabase(const std::vector<uint8_t>& bytes);

// Best-effort parse of a damaged legacy CMDB file: recovers the valid video
// prefix, and for v3 files scans past a torn entry for the next
// checksum-confirmed entry frame and recovers the suffix behind the damage
// too (dropped spans itemised in `report`, tears crossed counted in
// `report->resync_points`). Fails only when the header is unreadable.
util::StatusOr<VideoDatabase> ParseDatabaseSalvage(
    const std::vector<uint8_t>& bytes, util::SalvageReport* report);

// The previous generation of a legacy CMDB file: <path>.prev.
std::string DatabaseBackupPath(const std::string& path);

// Full rewrite of the database at `path` as a sharded library: an existing
// library keeps its shard count, anything else (a fresh path, a legacy CMDB
// file) becomes a 1-shard library, and the legacy companions are removed
// once the library is in place. Crash-consistent through the shard path
// (see SaveShardedDatabase). Honours fail point "index.persist.save"
// (before anything is written).
util::Status SaveDatabase(const VideoDatabase& db, const std::string& path);
// Strict load of a library or a legacy CMDB file. Honours fail point
// "index.persist.load" (before the read).
util::StatusOr<VideoDatabase> LoadDatabase(const std::string& path);

// How OpenDatabaseAnyGeneration satisfied the open.
struct OpenResult {
  VideoDatabase db;
  std::string source_path;   // the file that actually loaded
  bool used_backup = false;  // came from a .prev generation
  bool salvaged = false;     // needed a best-effort parse
  bool legacy = false;       // a legacy CMDB file (repair migrates it)
};

// Opens whatever is loadable at `path`, preferring completeness over
// recency. A library opens read-write with per-shard fallback (see
// ShardedDatabase::Open); a legacy CMDB file tries strict current → strict
// previous → salvage current → salvage previous. Fails only when nothing
// yields a database. Fallback steps taken are noted in `report` (nullptr to
// discard).
util::StatusOr<OpenResult> OpenDatabaseAnyGeneration(
    const std::string& path, util::SalvageReport* report);

// Integrity audit of one database (strict parse + manifest check).
struct VerifyReport {
  bool loadable = false;          // strict parse succeeded
  int videos = 0;
  int degraded_videos = 0;        // entries still flagged degraded
  bool manifest_present = false;
  bool manifest_matches = false;  // every shard log is the recorded generation
  uint64_t generation = 0;        // manifest epoch, when present
  bool legacy = false;            // a loadable legacy CMDB file
  int shards = 0;                 // shard count of a library
  // When the manifest is stale, names each shard whose log generation
  // disagrees with the manifest, so "manifest=stale" is actionable, not
  // just clean()==false.
  std::string stale_detail;
  std::string error;              // first integrity failure, empty if none

  // True when the library is pristine: strictly loadable, no degraded
  // entries, and the manifest describes exactly the logs on disk. A legacy
  // file is never clean, so repair migrates it.
  bool clean() const {
    return loadable && !legacy && degraded_videos == 0 &&
           (!manifest_present || manifest_matches);
  }
  std::string ToString() const;
};

VerifyReport VerifyDatabaseFile(const std::string& path);

namespace internal {

// The entry-frame magic "CMVE": a shard log's upsert record, and the
// entry frame of a legacy CMDB v3 file.
inline constexpr uint32_t kEntryFrameMagic = 0x45564d43;

// Serializes one framed entry (magic, body size u32, CRC-32 u32, body).
void PutFramedEntry(util::ByteWriter* w, const VideoEntry& v);
// Parses one framed entry at the cursor, verifying the stored CRC-32
// before touching the body and requiring exact body consumption.
util::Status GetFramedEntry(util::ByteReader* r, VideoEntry* out);
// u32-narrowing guard for a single entry (every count PutFramedEntry writes
// behind a u32 prefix, plus the framed body size itself); `at` labels the
// entry in error messages.
util::Status ValidateEntry(const VideoEntry& v, const std::string& at);

}  // namespace internal

}  // namespace classminer::index

#endif  // CLASSMINER_INDEX_PERSIST_H_
