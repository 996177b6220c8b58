#include "index/persist.h"

#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>

#include "index/shard.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/serial.h"

namespace classminer::index {
namespace {

constexpr uint32_t kMagic = 0x42444d43;  // "CMDB" (legacy, import-only)
// v1: no per-video degraded flag. v2: one u8 degraded flag per video.
// v3: every video entry framed as (kEntryMagic, body size, CRC-32, body).
// The library's shard logs frame their entries the v3 way.
constexpr uint32_t kVersion = 3;
constexpr uint32_t kEntryMagic = internal::kEntryFrameMagic;

// Smallest serialized size of each counted element (PutVideo's layout), so
// a count can be checked against the bytes left before anything is
// allocated for it.
constexpr size_t kShotBytes = 16 + sizeof(features::ColorHistogram) +
                              sizeof(features::TamuraVector);
constexpr size_t kGroupBytes = 3 * 4 + 1 + 4 + 4;  // + clusters, rep shots
constexpr size_t kShotClusterBytes = 4 + 4;        // + shot indices
constexpr size_t kSceneBytes = 4 * 4 + 1;
constexpr size_t kSceneClusterBytes = 4 + 4;       // + scene indices
constexpr size_t kEventBytes = 2 * 4 + 7 + 2 * 4;

uint32_t ReadU32LE(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

void PutFeatures(util::ByteWriter* w, const features::ShotFeatures& f) {
  for (double v : f.histogram) w->PutF64(v);
  for (double v : f.tamura) w->PutF64(v);
}

util::Status GetFeatures(util::ByteReader* r, features::ShotFeatures* f) {
  for (double& v : f->histogram) {
    util::StatusOr<double> x = r->GetF64();
    if (!x.ok()) return x.status();
    v = *x;
  }
  for (double& v : f->tamura) {
    util::StatusOr<double> x = r->GetF64();
    if (!x.ok()) return x.status();
    v = *x;
  }
  return util::Status::Ok();
}

void PutIntVector(util::ByteWriter* w, const std::vector<int>& v) {
  w->PutU32(static_cast<uint32_t>(v.size()));
  for (int x : v) w->PutI32(x);
}

// Reads a u32 element count and rejects one the bytes left cannot hold,
// each element taking at least `min_bytes`: a hostile count fails here
// instead of sizing an allocation.
util::Status GetCount(util::ByteReader* r, size_t min_bytes,
                      const char* what, uint32_t* count) {
  util::StatusOr<uint32_t> n = r->GetU32();
  if (!n.ok()) return n.status();
  if (*n > r->remaining() / min_bytes) {
    return r->Corrupt(std::string(what) + " count exceeds database size");
  }
  *count = *n;
  return util::Status::Ok();
}

util::Status GetIntVector(util::ByteReader* r, const char* what,
                          std::vector<int>* v) {
  uint32_t n = 0;
  CLASSMINER_RETURN_IF_ERROR(GetCount(r, 4, what, &n));
  v->resize(n);
  for (int& x : *v) {
    util::StatusOr<int32_t> i = r->GetI32();
    if (!i.ok()) return i.status();
    x = *i;
  }
  return util::Status::Ok();
}

void PutVideo(util::ByteWriter* w, const VideoEntry& v) {
  w->PutString(v.name);

  const structure::ContentStructure& cs = v.structure;
  w->PutU32(static_cast<uint32_t>(cs.shots.size()));
  for (const shot::Shot& s : cs.shots) {
    w->PutI32(s.index);
    w->PutI32(s.start_frame);
    w->PutI32(s.end_frame);
    w->PutI32(s.rep_frame);
    PutFeatures(w, s.features);
  }

  w->PutU32(static_cast<uint32_t>(cs.groups.size()));
  for (const structure::Group& g : cs.groups) {
    w->PutI32(g.index);
    w->PutI32(g.start_shot);
    w->PutI32(g.end_shot);
    w->PutU8(g.temporally_related ? 1 : 0);
    w->PutU32(static_cast<uint32_t>(g.clusters.size()));
    for (const structure::ShotCluster& c : g.clusters) {
      PutIntVector(w, c.shot_indices);
      w->PutI32(c.rep_shot);
    }
    PutIntVector(w, g.rep_shots);
  }

  w->PutU32(static_cast<uint32_t>(cs.scenes.size()));
  for (const structure::Scene& s : cs.scenes) {
    w->PutI32(s.index);
    w->PutI32(s.start_group);
    w->PutI32(s.end_group);
    w->PutI32(s.rep_group);
    w->PutU8(s.eliminated ? 1 : 0);
  }

  w->PutU32(static_cast<uint32_t>(cs.clustered_scenes.size()));
  for (const structure::SceneCluster& c : cs.clustered_scenes) {
    PutIntVector(w, c.scene_indices);
    w->PutI32(c.rep_group);
  }

  w->PutU32(static_cast<uint32_t>(v.events.size()));
  for (const events::EventRecord& e : v.events) {
    w->PutI32(e.scene_index);
    w->PutI32(static_cast<int32_t>(e.type));
    w->PutU8(e.has_slide ? 1 : 0);
    w->PutU8(e.has_face_closeup ? 1 : 0);
    w->PutU8(e.has_temporal_group ? 1 : 0);
    w->PutU8(e.any_speaker_change ? 1 : 0);
    w->PutU8(e.dialog_speaker_duplicated ? 1 : 0);
    w->PutU8(e.has_skin_closeup ? 1 : 0);
    w->PutU8(e.has_blood ? 1 : 0);
    w->PutI32(e.skin_shot_count);
    w->PutI32(e.shot_count);
  }

  w->PutU8(v.degraded ? 1 : 0);  // v2
}

util::Status GetVideo(util::ByteReader* r, uint32_t version,
                      VideoEntry* out) {
  util::StatusOr<std::string> name = r->GetString();
  if (!name.ok()) return name.status();
  out->name = *name;

  auto get_i32 = [r](int* v) -> util::Status {
    util::StatusOr<int32_t> x = r->GetI32();
    if (!x.ok()) return x.status();
    *v = *x;
    return util::Status::Ok();
  };
  auto get_u8 = [r](bool* v) -> util::Status {
    util::StatusOr<uint8_t> x = r->GetU8();
    if (!x.ok()) return x.status();
    *v = *x != 0;
    return util::Status::Ok();
  };

  structure::ContentStructure& cs = out->structure;
  uint32_t count = 0;
  CLASSMINER_RETURN_IF_ERROR(GetCount(r, kShotBytes, "shot", &count));
  cs.shots.resize(count);
  for (shot::Shot& s : cs.shots) {
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.index));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.start_frame));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.end_frame));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.rep_frame));
    CLASSMINER_RETURN_IF_ERROR(GetFeatures(r, &s.features));
  }

  CLASSMINER_RETURN_IF_ERROR(GetCount(r, kGroupBytes, "group", &count));
  cs.groups.resize(count);
  for (structure::Group& g : cs.groups) {
    CLASSMINER_RETURN_IF_ERROR(get_i32(&g.index));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&g.start_shot));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&g.end_shot));
    CLASSMINER_RETURN_IF_ERROR(get_u8(&g.temporally_related));
    CLASSMINER_RETURN_IF_ERROR(
        GetCount(r, kShotClusterBytes, "shot cluster", &count));
    g.clusters.resize(count);
    for (structure::ShotCluster& c : g.clusters) {
      CLASSMINER_RETURN_IF_ERROR(
          GetIntVector(r, "cluster shot index", &c.shot_indices));
      CLASSMINER_RETURN_IF_ERROR(get_i32(&c.rep_shot));
    }
    CLASSMINER_RETURN_IF_ERROR(GetIntVector(r, "rep shot", &g.rep_shots));
  }

  CLASSMINER_RETURN_IF_ERROR(GetCount(r, kSceneBytes, "scene", &count));
  cs.scenes.resize(count);
  for (structure::Scene& s : cs.scenes) {
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.index));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.start_group));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.end_group));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.rep_group));
    CLASSMINER_RETURN_IF_ERROR(get_u8(&s.eliminated));
  }

  CLASSMINER_RETURN_IF_ERROR(
      GetCount(r, kSceneClusterBytes, "scene cluster", &count));
  cs.clustered_scenes.resize(count);
  for (structure::SceneCluster& c : cs.clustered_scenes) {
    CLASSMINER_RETURN_IF_ERROR(
        GetIntVector(r, "scene cluster index", &c.scene_indices));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&c.rep_group));
  }

  CLASSMINER_RETURN_IF_ERROR(GetCount(r, kEventBytes, "event", &count));
  out->events.resize(count);
  for (events::EventRecord& e : out->events) {
    CLASSMINER_RETURN_IF_ERROR(get_i32(&e.scene_index));
    int type = 0;
    CLASSMINER_RETURN_IF_ERROR(get_i32(&type));
    if (type < 0 || type > 3) {
      return r->Corrupt("invalid event type in database");
    }
    e.type = static_cast<events::EventType>(type);
    CLASSMINER_RETURN_IF_ERROR(get_u8(&e.has_slide));
    CLASSMINER_RETURN_IF_ERROR(get_u8(&e.has_face_closeup));
    CLASSMINER_RETURN_IF_ERROR(get_u8(&e.has_temporal_group));
    CLASSMINER_RETURN_IF_ERROR(get_u8(&e.any_speaker_change));
    CLASSMINER_RETURN_IF_ERROR(get_u8(&e.dialog_speaker_duplicated));
    CLASSMINER_RETURN_IF_ERROR(get_u8(&e.has_skin_closeup));
    CLASSMINER_RETURN_IF_ERROR(get_u8(&e.has_blood));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&e.skin_shot_count));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&e.shot_count));
  }

  if (version >= 2) {
    CLASSMINER_RETURN_IF_ERROR(get_u8(&out->degraded));
  }
  return util::Status::Ok();
}

// Writes one v3 framed entry: entry magic, body size, CRC-32 over the
// body bytes, then the body itself.
void PutFramedVideo(util::ByteWriter* w, const VideoEntry& v) {
  util::ByteWriter body;
  PutVideo(&body, v);
  w->PutU32(kEntryMagic);
  w->PutU32(static_cast<uint32_t>(body.size()));
  w->PutU32(util::Crc32(body.bytes()));
  w->PutBytes(body.bytes().data(), body.size());
}

// Reads one v3 framed entry, verifying the stored CRC-32 against the body
// bytes before parsing them (so a bit-flip surfaces as a checksum mismatch
// at this entry, not as a structural error somewhere downstream). The body
// must consume exactly its declared size.
util::Status GetFramedVideo(util::ByteReader* r, uint32_t version,
                            VideoEntry* out) {
  util::StatusOr<uint32_t> magic = r->GetU32();
  if (!magic.ok()) return magic.status();
  if (*magic != kEntryMagic) return r->Corrupt("bad video entry magic");
  util::StatusOr<uint32_t> body_size = r->GetU32();
  if (!body_size.ok()) return body_size.status();
  util::StatusOr<uint32_t> stored = r->GetU32();
  if (!stored.ok()) return stored.status();
  if (*body_size > r->remaining()) {
    return r->Corrupt("video entry body exceeds database size");
  }
  const size_t body_start = r->position();
  if (util::Crc32(r->data() + body_start, *body_size) != *stored) {
    return r->Corrupt("video entry checksum mismatch");
  }
  CLASSMINER_RETURN_IF_ERROR(GetVideo(r, version, out));
  if (r->position() != body_start + *body_size) {
    return r->Corrupt("video entry body size mismatch");
  }
  return util::Status::Ok();
}

// Dispatches on the format generation: v3 entries are framed + checksummed,
// v1/v2 bodies sit back to back.
util::Status GetVideoEntry(util::ByteReader* r, uint32_t version,
                           VideoEntry* out) {
  if (version >= 3) return GetFramedVideo(r, version, out);
  return GetVideo(r, version, out);
}

// True when a complete, checksum-confirmed v3 entry frame starts at `pos`.
// The CRC makes a false positive on arbitrary bytes ~2^-32, so the salvage
// scanner can treat a hit as a confirmed resynchronisation point.
bool PlausibleEntryAt(const std::vector<uint8_t>& bytes, size_t pos) {
  if (pos + 12 > bytes.size()) return false;
  if (ReadU32LE(bytes.data() + pos) != kEntryMagic) return false;
  const uint32_t body_size = ReadU32LE(bytes.data() + pos + 4);
  if (body_size > bytes.size() - pos - 12) return false;
  return util::Crc32(bytes.data() + pos + 12, body_size) ==
         ReadU32LE(bytes.data() + pos + 8);
}

// Reads the CMDB header (magic, version, video count).
util::Status ParseDatabaseHeader(util::ByteReader* r, uint32_t* version,
                                 uint32_t* video_count) {
  r->set_section("header");
  util::StatusOr<uint32_t> magic = r->GetU32();
  if (!magic.ok()) return magic.status();
  if (*magic != kMagic) return r->Corrupt("bad CMDB magic");
  util::StatusOr<uint32_t> v = r->GetU32();
  if (!v.ok()) return v.status();
  if (*v < 1 || *v > kVersion) {
    return r->Corrupt("unsupported CMDB version " + std::to_string(*v));
  }
  *version = *v;
  util::StatusOr<uint32_t> videos = r->GetU32();
  if (!videos.ok()) return videos.status();
  *video_count = *videos;
  return util::Status::Ok();
}

// Exact serialized body size of one entry, mirroring PutVideo's layout
// (string = 4 + length, shot = 4 i32 + feature doubles, scene = 4 i32 +
// flag, event = 4 i32 + 7 flags). Counted in 64 bits so an entry too large
// to frame is detected instead of wrapped.
uint64_t SerializedBodySize(const VideoEntry& v) {
  const structure::ContentStructure& cs = v.structure;
  uint64_t size = 4 + v.name.size();
  size += 4;
  for (const shot::Shot& s : cs.shots) {
    size += 16 + 8ull * (s.features.histogram.size() + s.features.tamura.size());
  }
  size += 4;
  for (const structure::Group& g : cs.groups) {
    size += 13 + 4;
    for (const structure::ShotCluster& c : g.clusters) {
      size += 4 + 4ull * c.shot_indices.size() + 4;
    }
    size += 4 + 4ull * g.rep_shots.size();
  }
  size += 4 + 17ull * cs.scenes.size();
  size += 4;
  for (const structure::SceneCluster& c : cs.clustered_scenes) {
    size += 4 + 4ull * c.scene_indices.size() + 4;
  }
  size += 4 + 23ull * v.events.size();
  size += 1;  // degraded flag
  return size;
}

}  // namespace

util::Status ValidateForSerialize(const VideoDatabase& db) {
  std::unordered_map<std::string, int> first_use;
  for (int i = 0; i < db.video_count(); ++i) {
    const std::string at = "videos[" + std::to_string(i) + "]";
    CLASSMINER_RETURN_IF_ERROR(internal::ValidateEntry(db.video(i), at));
    const auto [it, fresh] = first_use.emplace(db.video(i).name, i);
    if (!fresh) {
      return util::Status::InvalidArgument(
          at + " repeats the name \"" + it->first + "\" of videos[" +
          std::to_string(it->second) +
          "]; a library keys its entries by name");
    }
  }
  return util::Status::Ok();
}

namespace internal {

void PutFramedEntry(util::ByteWriter* w, const VideoEntry& v) {
  PutFramedVideo(w, v);
}

util::Status GetFramedEntry(util::ByteReader* r, VideoEntry* out) {
  return GetFramedVideo(r, kVersion, out);
}

util::Status ValidateEntry(const VideoEntry& v, const std::string& at) {
  const structure::ContentStructure& cs = v.structure;
  CLASSMINER_RETURN_IF_ERROR(
      util::CheckU32Count(v.name.size(), at + " name byte"));
  CLASSMINER_RETURN_IF_ERROR(
      util::CheckU32Count(cs.shots.size(), at + " shot"));
  CLASSMINER_RETURN_IF_ERROR(
      util::CheckU32Count(cs.groups.size(), at + " group"));
  for (const structure::Group& g : cs.groups) {
    CLASSMINER_RETURN_IF_ERROR(
        util::CheckU32Count(g.clusters.size(), at + " shot cluster"));
    for (const structure::ShotCluster& c : g.clusters) {
      CLASSMINER_RETURN_IF_ERROR(util::CheckU32Count(
          c.shot_indices.size(), at + " cluster shot index"));
    }
    CLASSMINER_RETURN_IF_ERROR(
        util::CheckU32Count(g.rep_shots.size(), at + " rep shot"));
  }
  CLASSMINER_RETURN_IF_ERROR(
      util::CheckU32Count(cs.scenes.size(), at + " scene"));
  CLASSMINER_RETURN_IF_ERROR(util::CheckU32Count(
      cs.clustered_scenes.size(), at + " scene cluster"));
  for (const structure::SceneCluster& c : cs.clustered_scenes) {
    CLASSMINER_RETURN_IF_ERROR(util::CheckU32Count(
        c.scene_indices.size(), at + " scene cluster index"));
  }
  CLASSMINER_RETURN_IF_ERROR(
      util::CheckU32Count(v.events.size(), at + " event"));
  return util::CheckU32Count(static_cast<size_t>(SerializedBodySize(v)),
                             at + " entry body byte");
}

}  // namespace internal

util::StatusOr<VideoDatabase> ParseDatabase(
    const std::vector<uint8_t>& bytes) {
  util::ByteReader r(bytes);
  uint32_t version = 0;
  uint32_t videos = 0;
  CLASSMINER_RETURN_IF_ERROR(ParseDatabaseHeader(&r, &version, &videos));

  VideoDatabase db;
  for (uint32_t i = 0; i < videos; ++i) {
    r.set_section("videos[" + std::to_string(i) + "]");
    VideoEntry entry;
    CLASSMINER_RETURN_IF_ERROR(GetVideoEntry(&r, version, &entry));
    db.AddVideo(std::move(entry.name), std::move(entry.structure),
                std::move(entry.events), entry.degraded);
  }
  if (r.remaining() > 0) {
    return r.Corrupt("trailing bytes after last video entry");
  }
  return db;
}

util::StatusOr<VideoDatabase> ParseDatabaseSalvage(
    const std::vector<uint8_t>& bytes, util::SalvageReport* report) {
  util::SalvageReport local;
  if (report == nullptr) report = &local;
  util::ByteReader r(bytes);
  uint32_t version = 0;
  uint32_t videos = 0;
  // Nothing precedes the header, so a damaged header is unrecoverable.
  CLASSMINER_RETURN_IF_ERROR(ParseDatabaseHeader(&r, &version, &videos));

  VideoDatabase db;
  uint32_t parsed = 0;
  for (uint32_t i = 0; i < videos; ++i) {
    r.set_section("videos[" + std::to_string(i) + "]");
    const size_t entry_start = r.position();
    VideoEntry entry;
    const util::Status video = GetVideoEntry(&r, version, &entry);
    if (video.ok()) {
      db.AddVideo(std::move(entry.name), std::move(entry.structure),
                  std::move(entry.events), entry.degraded);
      ++parsed;
      continue;
    }
    report->AddNote("videos: " + video.message());
    if (version < 3) {
      // v1/v2 entries are written back to back with no framing: a torn
      // entry makes everything behind it unframed bytes. Keep the prefix.
      report->bytes_dropped += bytes.size() - entry_start;
      break;
    }
    // v3: scan forward for the next checksum-confirmed entry frame and
    // resynchronise there; the suffix behind the tear is recoverable.
    bool resynced = false;
    for (size_t scan = entry_start + 1; scan < bytes.size(); ++scan) {
      if (!PlausibleEntryAt(bytes, scan)) continue;
      (void)r.SeekTo(scan);
      VideoEntry recovered;
      if (!GetFramedVideo(&r, version, &recovered).ok()) {
        // CRC-confirmed frame whose body still refuses to parse (in
        // practice only hostile bytes); keep scanning behind it.
        continue;
      }
      report->bytes_dropped += scan - entry_start;
      report->resync_points += 1;
      report->AddNote(
          "videos: resynchronised onto checksum-confirmed entry at byte "
          "offset " +
          std::to_string(scan) + " (dropped " +
          std::to_string(scan - entry_start) + " bytes)");
      db.AddVideo(std::move(recovered.name), std::move(recovered.structure),
                  std::move(recovered.events), recovered.degraded);
      ++parsed;
      resynced = true;
      break;
    }
    if (!resynced) {
      // No confirmed entry frame behind the tear; the rest is lost.
      report->bytes_dropped += bytes.size() - entry_start;
      break;
    }
  }
  if (parsed < videos) {
    report->items_dropped += static_cast<int>(videos - parsed);
  }
  report->items_recovered += db.video_count();
  return db;
}

std::string DatabaseBackupPath(const std::string& path) {
  return path + ".prev";
}

util::Status SaveDatabase(const VideoDatabase& db, const std::string& path) {
  CLASSMINER_RETURN_IF_ERROR(util::FailPoint::Check("index.persist.save"));
  if (IsShardedDatabasePath(path)) {
    // A library stays partitioned the way it is across full rewrites.
    util::StatusOr<int> shards = ShardedDatabaseShardCount(path);
    if (!shards.ok()) return shards.status();
    return SaveShardedDatabase(db, path, *shards);
  }
  // A fresh path or a legacy CMDB file: the library's manifest replaces the
  // root in one atomic rename, so a crash before it leaves the legacy file
  // untouched (and its stray shard log ignored). Once the library is in
  // place, the legacy previous generation and manifest are dead weight.
  CLASSMINER_RETURN_IF_ERROR(SaveShardedDatabase(db, path, 1));
  (void)std::remove(DatabaseBackupPath(path).c_str());
  (void)std::remove((path + ".manifest").c_str());
  return util::Status::Ok();
}

namespace {

util::StatusOr<std::vector<uint8_t>> ReadLegacyFile(const std::string& path) {
  CLASSMINER_RETURN_IF_ERROR(util::FailPoint::Check("index.persist.load"));
  return util::ReadFile(path);
}

// The legacy ladder: strict current → strict previous → salvage current →
// salvage previous.
util::StatusOr<OpenResult> OpenLegacyDatabase(const std::string& path,
                                              util::SalvageReport* report) {
  const std::string backup = DatabaseBackupPath(path);
  const util::StatusOr<std::vector<uint8_t>> current = ReadLegacyFile(path);
  if (current.ok()) {
    util::StatusOr<VideoDatabase> db = ParseDatabase(*current);
    if (db.ok()) {
      return OpenResult{std::move(db).value(), path, false, false, true};
    }
    report->AddNote("open: " + db.status().message());
  } else {
    report->AddNote("open: " + current.status().message());
  }

  const util::StatusOr<std::vector<uint8_t>> previous = ReadLegacyFile(backup);
  if (previous.ok()) {
    util::StatusOr<VideoDatabase> db = ParseDatabase(*previous);
    if (db.ok()) {
      report->AddNote("open: fell back to previous generation " + backup);
      return OpenResult{std::move(db).value(), backup, true, false, true};
    }
    report->AddNote("open: " + db.status().message());
  } else if (previous.status().code() != util::StatusCode::kNotFound) {
    report->AddNote("open: " + previous.status().message());
  }

  if (current.ok()) {
    util::StatusOr<VideoDatabase> db = ParseDatabaseSalvage(*current, report);
    if (db.ok()) {
      report->AddNote("open: salvaged current generation " + path);
      return OpenResult{std::move(db).value(), path, false, true, true};
    }
  }
  if (previous.ok()) {
    util::StatusOr<VideoDatabase> db = ParseDatabaseSalvage(*previous, report);
    if (db.ok()) {
      report->AddNote("open: salvaged previous generation " + backup);
      return OpenResult{std::move(db).value(), backup, true, true, true};
    }
  }
  return util::Status::DataLoss("no loadable generation of " + path +
                                " (tried strict and salvage on current and "
                                "previous)");
}

}  // namespace

util::StatusOr<VideoDatabase> LoadDatabase(const std::string& path) {
  CLASSMINER_RETURN_IF_ERROR(util::FailPoint::Check("index.persist.load"));
  if (IsShardedDatabasePath(path)) return LoadShardedDatabase(path);
  util::StatusOr<std::vector<uint8_t>> bytes = util::ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  return ParseDatabase(*bytes);
}

util::StatusOr<OpenResult> OpenDatabaseAnyGeneration(
    const std::string& path, util::SalvageReport* report) {
  util::SalvageReport local;
  if (report == nullptr) report = &local;
  if (!IsShardedDatabasePath(path)) return OpenLegacyDatabase(path, report);
  // Shards fall back / salvage individually inside Open (read-write, so
  // torn tails are truncated back to the last confirmed frame); the flags
  // aggregate "any shard fell back / was salvaged".
  ShardedDatabase::OpenReport shards;
  util::StatusOr<std::unique_ptr<ShardedDatabase>> sdb =
      ShardedDatabase::Open(path, report, &shards, /*read_only=*/false);
  if (!sdb.ok()) return sdb.status();
  return OpenResult{(*sdb)->Snapshot(), path, shards.any_backup(),
                    shards.any_salvaged() || shards.any_lost(), false};
}

std::string VerifyReport::ToString() const {
  std::string s = loadable ? "loadable" : "unloadable";
  if (legacy) s += " legacy-cmdb";
  if (shards > 0) s += " shards=" + std::to_string(shards);
  s += " videos=" + std::to_string(videos);
  s += " degraded=" + std::to_string(degraded_videos);
  if (manifest_present) {
    s += " generation=" + std::to_string(generation);
    if (manifest_matches) {
      s += " manifest=ok";
    } else {
      s += " manifest=stale";
      if (!stale_detail.empty()) s += "(" + stale_detail + ")";
    }
  } else {
    s += " manifest=absent";
  }
  if (legacy) s += " (import-only: repair migrates it to a library)";
  if (!error.empty()) s += " error=\"" + error + "\"";
  return s;
}

VerifyReport VerifyDatabaseFile(const std::string& path) {
  VerifyReport report;
  if (IsShardedDatabasePath(path)) {
    VerifyShardedDatabaseFile(path, &report);
    return report;
  }
  util::StatusOr<std::vector<uint8_t>> bytes = util::ReadFile(path);
  if (!bytes.ok()) {
    report.error = bytes.status().message();
    return report;
  }
  util::StatusOr<VideoDatabase> db = ParseDatabase(*bytes);
  if (!db.ok()) {
    report.error = db.status().message();
    return report;
  }
  report.loadable = true;
  report.legacy = true;
  report.videos = db->video_count();
  report.degraded_videos = db->DegradedCount();
  return report;
}

}  // namespace classminer::index
