// Crash-consistent persistence and self-healing recovery: a crash injected
// at any step of a full save must leave a loadable database (old or new,
// never a torn mixture); OpenDatabaseAnyGeneration must find it; the
// legacy CMDB importer must open every file the old writer left (v1-v3,
// torn, bit-flipped, with or without its .prev generation) and repair must
// migrate it to a library without losing an entry at any crash point; and
// the repair pass must re-mine degraded entries back to pristine so a
// subsequent verify reports zero integrity failures.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "codec/container.h"
#include "core/cmv_pipeline.h"
#include "core/repair.h"
#include "index/database.h"
#include "index/persist.h"
#include "index/repair.h"
#include "index/shard.h"
#include "legacy_cmdb.h"
#include "shot/detector.h"
#include "structure/content_structure.h"
#include "synth/video_generator.h"
#include "util/failpoint.h"
#include "util/salvage.h"
#include "util/serial.h"
#include "util/status.h"

namespace classminer {
namespace {

using util::FailPoint;
using util::StatusCode;

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoint::DisarmAll();
    dir_ = ::testing::TempDir();
  }
  void TearDown() override { FailPoint::DisarmAll(); }

  // A unique database path per test; stale generations and shard logs
  // from earlier runs are cleared so fallback assertions see only this
  // test's files.
  std::string FreshDbPath(const std::string& stem) {
    const std::string path = dir_ + "/" + stem + ".cmdb";
    for (const std::string& file :
         {path, path + ".tmp", index::DatabaseBackupPath(path),
          index::ShardPath(path, 0), index::ShardBackupPath(path, 0),
          index::ShardPath(path, 0) + ".tmp"}) {
      std::remove(file.c_str());
    }
    return path;
  }

  std::string dir_;
};

// A database with `videos` single-shot entries named video0..videoN.
index::VideoDatabase MakeDatabase(int videos, bool degrade_first = false) {
  index::VideoDatabase db;
  for (int v = 0; v < videos; ++v) {
    structure::ContentStructure cs;
    shot::Shot s;
    s.index = 0;
    s.end_frame = 29;
    s.rep_frame = 9;
    cs.shots.push_back(s);
    db.AddVideo("video" + std::to_string(v), std::move(cs), {},
                degrade_first && v == 0);
  }
  return db;
}

const char* const kAtomicSites[] = {"serial.atomic_write.tmp_write",
                                    "serial.atomic_write.fsync",
                                    "serial.atomic_write.rename"};

// ---------------------------------------------------------------------------
// Crash matrix: every atomic-write site of a full save.

TEST_F(RecoveryTest, CrashAtEverySiteWithPriorGenerationKeepsADatabase) {
  for (const char* site : kAtomicSites) {
    // The prior generation is a legacy file: the save that crashes is the
    // one that would have replaced it with a library.
    const std::string path = FreshDbPath(std::string("crash_prior_") + site);
    ASSERT_TRUE(legacy_cmdb::Write(MakeDatabase(1), path).ok()) << site;

    FailPoint::Arm(site, FailPoint::Spec::Once(StatusCode::kDataLoss));
    const util::Status crashed = index::SaveDatabase(MakeDatabase(2), path);
    FailPoint::DisarmAll();
    EXPECT_FALSE(crashed.ok()) << site;

    // Whatever the crash point, a complete generation is reopenable: the
    // one-video database survives (the two-video save never became
    // current before the injected crash).
    util::SalvageReport report;
    const util::StatusOr<index::OpenResult> opened =
        index::OpenDatabaseAnyGeneration(path, &report);
    ASSERT_TRUE(opened.ok()) << site;
    EXPECT_FALSE(opened->salvaged) << site;
    EXPECT_EQ(opened->db.video_count(), 1) << site;
    EXPECT_EQ(opened->db.video(0).name, "video0") << site;
  }
}

TEST_F(RecoveryTest, CompletedSaveAfterCrashesWinsCleanly) {
  const std::string path = FreshDbPath("crash_then_win");
  ASSERT_TRUE(index::SaveDatabase(MakeDatabase(1), path).ok());
  for (const char* site : kAtomicSites) {
    FailPoint::Arm(site, FailPoint::Spec::Once(StatusCode::kDataLoss));
    EXPECT_FALSE(index::SaveDatabase(MakeDatabase(2), path).ok());
    FailPoint::DisarmAll();
  }
  // After the outage clears, a full save lands and verifies pristine.
  ASSERT_TRUE(index::SaveDatabase(MakeDatabase(3), path).ok());
  const index::VerifyReport verify = index::VerifyDatabaseFile(path);
  EXPECT_TRUE(verify.clean()) << verify.ToString();
  EXPECT_EQ(verify.videos, 3);
}

// ---------------------------------------------------------------------------
// The library manifest.

TEST_F(RecoveryTest, InterruptedManifestWriteIsAdvisoryNotFatal) {
  const std::string path = FreshDbPath("stale_manifest");
  ASSERT_TRUE(index::SaveDatabase(MakeDatabase(1), path).ok());
  // A full save writes the shard log, then the manifest through one atomic
  // write; failing that write models a crash between the two: new data,
  // stale manifest.
  FailPoint::Arm("serial.atomic_write.tmp_write",
                 FailPoint::Spec::Once(StatusCode::kDataLoss));
  EXPECT_FALSE(index::SaveDatabase(MakeDatabase(2), path).ok());
  FailPoint::DisarmAll();

  // The new generation is fully readable; only the manifest lags behind.
  const util::StatusOr<index::VideoDatabase> loaded =
      index::LoadDatabase(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->video_count(), 2);
  const index::VerifyReport verify = index::VerifyDatabaseFile(path);
  EXPECT_TRUE(verify.loadable);
  EXPECT_TRUE(verify.manifest_present);
  EXPECT_FALSE(verify.manifest_matches);
  EXPECT_FALSE(verify.clean());
  // Any-generation open treats the stale manifest as advisory.
  const util::StatusOr<index::OpenResult> opened =
      index::OpenDatabaseAnyGeneration(path, nullptr);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->db.video_count(), 2);
}

TEST_F(RecoveryTest, StaleManifestDiagnosticsNameTheRecordedGeneration) {
  const std::string path = FreshDbPath("stale_manifest_detail");
  ASSERT_TRUE(index::SaveDatabase(MakeDatabase(1), path).ok());
  FailPoint::Arm("serial.atomic_write.tmp_write",
                 FailPoint::Spec::Once(StatusCode::kDataLoss));
  EXPECT_FALSE(index::SaveDatabase(MakeDatabase(2), path).ok());
  FailPoint::DisarmAll();

  // The report says more than "stale": it names the generation the manifest
  // still records and the one actually on disk, so an operator can tell a
  // harmless lagging manifest from a damaged log.
  const index::VerifyReport verify = index::VerifyDatabaseFile(path);
  EXPECT_FALSE(verify.manifest_matches);
  ASSERT_FALSE(verify.stale_detail.empty());
  EXPECT_NE(verify.stale_detail.find("manifest records 1"), std::string::npos)
      << verify.stale_detail;
  EXPECT_NE(verify.stale_detail.find("log generation 2"), std::string::npos)
      << verify.stale_detail;
  EXPECT_NE(verify.ToString().find("manifest=stale(" + verify.stale_detail),
            std::string::npos)
      << verify.ToString();

  // A clean save clears the diagnostic entirely.
  ASSERT_TRUE(index::SaveDatabase(MakeDatabase(2), path).ok());
  const index::VerifyReport healed = index::VerifyDatabaseFile(path);
  EXPECT_TRUE(healed.clean()) << healed.ToString();
  EXPECT_TRUE(healed.stale_detail.empty());
}

// ---------------------------------------------------------------------------
// Fallback chain of OpenDatabaseAnyGeneration over legacy CMDB files (the
// current generation at <path>, the one an old save rotated aside at
// <path>.prev).

TEST_F(RecoveryTest, UnsalvageableCurrentFallsBackToPreviousGeneration) {
  const std::string path = FreshDbPath("fallback_prev");
  ASSERT_TRUE(
      legacy_cmdb::Write(MakeDatabase(1), index::DatabaseBackupPath(path))
          .ok());
  ASSERT_TRUE(legacy_cmdb::Write(MakeDatabase(2), path).ok());
  // Destroy the current generation's header: strict and salvage parses
  // both refuse it, so the previous generation answers.
  std::vector<uint8_t> bytes = *util::ReadFile(path);
  bytes[0] ^= 0xFF;
  ASSERT_TRUE(util::WriteFile(path, bytes).ok());

  util::SalvageReport report;
  const util::StatusOr<index::OpenResult> opened =
      index::OpenDatabaseAnyGeneration(path, &report);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->used_backup);
  EXPECT_FALSE(opened->salvaged);
  EXPECT_EQ(opened->db.video_count(), 1);
  EXPECT_FALSE(report.notes.empty());
}

TEST_F(RecoveryTest, BitFlippedCurrentIsSalvagedWithResync) {
  const std::string path = FreshDbPath("fallback_salvage");
  ASSERT_TRUE(legacy_cmdb::Write(MakeDatabase(3), path).ok());
  // Flip one byte mid-file (inside the second entry's body): strict load
  // fails on its checksum, salvage resynchronises onto the third entry.
  std::vector<uint8_t> bytes = *util::ReadFile(path);
  bytes[bytes.size() * 2 / 5] ^= 0xFF;
  ASSERT_TRUE(util::WriteFile(path, bytes).ok());

  util::SalvageReport report;
  const util::StatusOr<index::OpenResult> opened =
      index::OpenDatabaseAnyGeneration(path, &report);
  ASSERT_TRUE(opened.ok());
  EXPECT_FALSE(opened->used_backup);  // no .prev generation exists here
  EXPECT_TRUE(opened->salvaged);
  EXPECT_EQ(opened->db.video_count(), 2);
  EXPECT_EQ(report.resync_points, 1);
}

TEST_F(RecoveryTest, LoadSiteInjectsAndOpenReportsTheOutage) {
  const std::string path = FreshDbPath("load_site");
  ASSERT_TRUE(legacy_cmdb::Write(MakeDatabase(1), path).ok());
  FailPoint::Arm("index.persist.load",
                 FailPoint::Spec::Always(StatusCode::kDataLoss));
  EXPECT_EQ(index::LoadDatabase(path).status().code(), StatusCode::kDataLoss);
  // Every rung of the fallback chain goes through the same site, so the
  // open fails cleanly instead of crashing or spinning.
  EXPECT_FALSE(index::OpenDatabaseAnyGeneration(path, nullptr).ok());
  FailPoint::DisarmAll();
  EXPECT_TRUE(index::OpenDatabaseAnyGeneration(path, nullptr).ok());
}

// ---------------------------------------------------------------------------
// Repair pass: re-mine degraded entries from pristine containers, then
// verify reports zero integrity failures.

synth::GeneratedVideo SmallGenerated(const std::string& name) {
  synth::VideoScript script;
  script.name = name;
  script.seed = 33;
  script.width = 64;
  script.height = 48;
  script.scenes.push_back({synth::SceneKind::kPresentation, 3, 0, 0, -1, 1.0});
  script.scenes.push_back({synth::SceneKind::kDialog, 3, 1, 0, 1, 1.0});
  return synth::GenerateVideo(script);
}

TEST_F(RecoveryTest, RepairReminesDegradedEntryAndVerifyComesBackClean) {
  const std::string name = "repairable";
  const std::string db_path = FreshDbPath("repair_e2e");
  const synth::GeneratedVideo generated = SmallGenerated(name);
  const codec::CmvFile container = core::PackGeneratedVideo(generated);
  ASSERT_TRUE(container.SaveToFile(dir_ + "/" + name + ".cmv").ok());

  // Ingest the entry flagged degraded (as a salvage-path ingest would).
  util::StatusOr<core::MiningResult> mined =
      core::MineCmvFileFast(container, core::MiningOptions());
  ASSERT_TRUE(mined.ok()) << mined.status().message();
  index::VideoDatabase db;
  db.AddVideo(name, std::move(mined->structure), std::move(mined->events),
              /*degraded=*/true);
  ASSERT_TRUE(index::SaveDatabase(db, db_path).ok());
  EXPECT_FALSE(index::VerifyDatabaseFile(db_path).clean());

  util::SalvageReport salvage;
  const util::StatusOr<index::RepairReport> report = index::RepairDatabaseFile(
      db_path, core::MakeCmvRemineFn(dir_), &salvage);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->examined, 1);
  EXPECT_EQ(report->degraded, 1);
  EXPECT_EQ(report->repaired, 1);
  EXPECT_EQ(report->failed, 0);
  EXPECT_TRUE(report->rewritten);

  const index::VerifyReport verify = index::VerifyDatabaseFile(db_path);
  EXPECT_TRUE(verify.clean()) << verify.ToString();
  EXPECT_EQ(verify.degraded_videos, 0);
  // The repaired entry carries real mined structure, not a husk.
  const util::StatusOr<index::VideoDatabase> loaded =
      index::LoadDatabase(db_path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->video(0).degraded);
  EXPECT_GT(loaded->TotalShotCount(), 0u);

  // A second pass finds nothing to do and does not rewrite.
  const util::StatusOr<index::RepairReport> again = index::RepairDatabaseFile(
      db_path, core::MakeCmvRemineFn(dir_), nullptr);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->degraded, 0);
  EXPECT_FALSE(again->rewritten);
}

TEST_F(RecoveryTest, RepairLeavesEntryDegradedWhenSourceIsMissing) {
  const std::string db_path = FreshDbPath("repair_missing");
  index::VideoDatabase db = MakeDatabase(2, /*degrade_first=*/true);
  ASSERT_TRUE(index::SaveDatabase(db, db_path).ok());

  const util::StatusOr<index::RepairReport> report = index::RepairDatabaseFile(
      db_path, core::MakeCmvRemineFn(dir_ + "/no_such_dir"), nullptr);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->degraded, 1);
  EXPECT_EQ(report->repaired, 0);
  EXPECT_EQ(report->failed, 1);
  EXPECT_FALSE(report->rewritten);
  // The entry stays flagged rather than being dropped or blanked.
  const util::StatusOr<index::VideoDatabase> loaded =
      index::LoadDatabase(db_path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->video_count(), 2);
  EXPECT_TRUE(loaded->video(0).degraded);
}

TEST_F(RecoveryTest, RepairPromotesASalvagedOpenToAPristineGeneration) {
  const std::string db_path = FreshDbPath("repair_promote");
  ASSERT_TRUE(legacy_cmdb::Write(MakeDatabase(3), db_path).ok());
  std::vector<uint8_t> bytes = *util::ReadFile(db_path);
  bytes[bytes.size() * 2 / 5] ^= 0xFF;  // tear the middle entry
  ASSERT_TRUE(util::WriteFile(db_path, bytes).ok());

  // No entry is flagged degraded, but the open itself needed salvage, so
  // repair rewrites a pristine current generation from what survived.
  const util::StatusOr<index::RepairReport> report =
      index::RepairDatabaseFile(db_path, index::RemineFn(), nullptr);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->repaired, 0);
  EXPECT_TRUE(report->rewritten);
  const index::VerifyReport verify = index::VerifyDatabaseFile(db_path);
  EXPECT_TRUE(verify.clean()) << verify.ToString();
  EXPECT_EQ(verify.videos, 2);
}

// ---------------------------------------------------------------------------
// Legacy CMDB import and migration: every file the old monolithic writer
// left opens to the same entries, byte for byte under PutFramedEntry, and
// repair turns it into a 1-shard library holding exactly those entries.

const char* const kCompactSites[] = {
    "index.shard.compact.write", "index.shard.compact.fsync",
    "index.shard.compact.rename", "index.shard.compact.manifest"};

std::vector<std::vector<uint8_t>> FramedEntries(
    const index::VideoDatabase& db) {
  std::vector<std::vector<uint8_t>> frames;
  for (int i = 0; i < db.video_count(); ++i) {
    util::ByteWriter w;
    index::internal::PutFramedEntry(&w, db.video(i));
    frames.push_back(w.Release());
  }
  return frames;
}

uint32_t RootMagic(const std::string& path) {
  const util::StatusOr<std::vector<uint8_t>> bytes = util::ReadFile(path);
  if (!bytes.ok() || bytes->size() < 4) return 0;
  uint32_t magic = 0;
  for (int i = 0; i < 4; ++i) {
    magic |= static_cast<uint32_t>((*bytes)[static_cast<size_t>(i)]) << (8 * i);
  }
  return magic;
}

constexpr uint32_t kLibraryMagic = 0x4d534d43;  // "CMSM"

bool FileExists(const std::string& path) {
  return util::ReadFile(path).status().code() != StatusCode::kNotFound;
}

// Two mined entries (real features, groups, clusters, scenes and events)
// and a bare one; nothing degraded, so every format version stores the
// same entries.
index::VideoDatabase RichDatabase() {
  index::VideoDatabase db;
  for (const char* name : {"lecture", "ward_round"}) {
    const codec::CmvFile container =
        core::PackGeneratedVideo(SmallGenerated(name));
    util::StatusOr<core::MiningResult> mined =
        core::MineCmvFileFast(container, core::MiningOptions());
    EXPECT_TRUE(mined.ok()) << mined.status().message();
    if (!mined.ok()) return db;
    db.AddVideo(name, std::move(mined->structure), std::move(mined->events));
  }
  index::VideoDatabase bare = MakeDatabase(1);
  db.AddVideo(bare.video(0).name, bare.video(0).structure, {});
  return db;
}

TEST_F(RecoveryTest, EveryLegacyVersionImportsTheSameEntriesAndMigrates) {
  const index::VideoDatabase db = RichDatabase();
  ASSERT_EQ(db.video_count(), 3);
  ASSERT_GT(db.video(0).events.size(), 0u);
  const std::vector<std::vector<uint8_t>> expected = FramedEntries(db);

  for (uint32_t version = 1; version <= 3; ++version) {
    const std::string path =
        FreshDbPath("legacy_v" + std::to_string(version));
    ASSERT_TRUE(legacy_cmdb::Write(db, path, version).ok()) << version;
    ASSERT_TRUE(util::WriteFile(path + ".manifest", {1, 2, 3}).ok());

    // Import: strict, from the current generation, never reported clean.
    EXPECT_FALSE(index::IsShardedDatabasePath(path)) << version;
    const util::StatusOr<index::VideoDatabase> loaded =
        index::LoadDatabase(path);
    ASSERT_TRUE(loaded.ok()) << version << ": " << loaded.status().message();
    EXPECT_EQ(FramedEntries(*loaded), expected) << version;
    const util::StatusOr<index::OpenResult> opened =
        index::OpenDatabaseAnyGeneration(path, nullptr);
    ASSERT_TRUE(opened.ok()) << version;
    EXPECT_TRUE(opened->legacy) << version;
    EXPECT_FALSE(opened->used_backup || opened->salvaged) << version;
    EXPECT_EQ(FramedEntries(opened->db), expected) << version;
    const index::VerifyReport before = index::VerifyDatabaseFile(path);
    EXPECT_TRUE(before.loadable) << before.ToString();
    EXPECT_TRUE(before.legacy) << before.ToString();
    EXPECT_FALSE(before.clean()) << before.ToString();
    EXPECT_EQ(before.videos, 3) << before.ToString();

    // Repair migrates it in place to a 1-shard library with the same
    // entries, and drops the legacy companions.
    const util::StatusOr<index::RepairReport> repaired =
        index::RepairDatabaseFile(path, index::RemineFn(), nullptr);
    ASSERT_TRUE(repaired.ok()) << version << ": "
                               << repaired.status().message();
    EXPECT_TRUE(repaired->rewritten) << version;
    EXPECT_EQ(RootMagic(path), kLibraryMagic) << version;
    EXPECT_FALSE(FileExists(path + ".manifest")) << version;
    const index::VerifyReport after = index::VerifyDatabaseFile(path);
    EXPECT_TRUE(after.clean()) << after.ToString();
    EXPECT_EQ(after.shards, 1) << after.ToString();
    const util::StatusOr<index::VideoDatabase> migrated =
        index::LoadDatabase(path);
    ASSERT_TRUE(migrated.ok()) << version;
    EXPECT_EQ(FramedEntries(*migrated), expected) << version;
  }
}

TEST_F(RecoveryTest, TornLegacyCurrentFallsBackToPrevious) {
  const std::string path = FreshDbPath("legacy_torn");
  const index::VideoDatabase previous = MakeDatabase(2);
  ASSERT_TRUE(
      legacy_cmdb::Write(previous, index::DatabaseBackupPath(path)).ok());
  std::vector<uint8_t> current = legacy_cmdb::Serialize(MakeDatabase(3));
  current.resize(current.size() * 3 / 5);  // torn inside an entry
  ASSERT_TRUE(util::WriteFile(path, current).ok());

  // A complete previous generation beats a salvaged prefix of the current.
  util::SalvageReport report;
  const util::StatusOr<index::OpenResult> opened =
      index::OpenDatabaseAnyGeneration(path, &report);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  EXPECT_TRUE(opened->legacy);
  EXPECT_TRUE(opened->used_backup);
  EXPECT_FALSE(opened->salvaged);
  EXPECT_EQ(opened->source_path, index::DatabaseBackupPath(path));
  EXPECT_EQ(FramedEntries(opened->db), FramedEntries(previous));

  // Repair migrates what the open found, and the legacy .prev goes.
  const util::StatusOr<index::RepairReport> repaired =
      index::RepairDatabaseFile(path, index::RemineFn(), nullptr);
  ASSERT_TRUE(repaired.ok()) << repaired.status().message();
  EXPECT_TRUE(repaired->rewritten);
  EXPECT_FALSE(FileExists(index::DatabaseBackupPath(path)));
  EXPECT_TRUE(index::VerifyDatabaseFile(path).clean());
  const util::StatusOr<index::VideoDatabase> migrated =
      index::LoadDatabase(path);
  ASSERT_TRUE(migrated.ok());
  EXPECT_EQ(FramedEntries(*migrated), FramedEntries(previous));
}

TEST_F(RecoveryTest, LegacyMigrationCrashMatrixKeepsEveryEntry) {
  std::vector<const char*> sites(std::begin(kAtomicSites),
                                 std::end(kAtomicSites));
  sites.insert(sites.end(), std::begin(kCompactSites), std::end(kCompactSites));
  const index::VideoDatabase current = MakeDatabase(3);
  const std::vector<std::vector<uint8_t>> expected = FramedEntries(current);
  int stray_logs = 0;
  for (const char* site : sites) {
    const std::string path = FreshDbPath(std::string("migrate_") + site);
    ASSERT_TRUE(legacy_cmdb::Write(current, path).ok()) << site;
    ASSERT_TRUE(
        legacy_cmdb::Write(MakeDatabase(1), index::DatabaseBackupPath(path))
            .ok())
        << site;

    FailPoint::Arm(site, FailPoint::Spec::Once(StatusCode::kDataLoss));
    const util::StatusOr<index::RepairReport> crashed =
        index::RepairDatabaseFile(path, index::RemineFn(), nullptr);
    FailPoint::DisarmAll();
    EXPECT_FALSE(crashed.ok()) << site;

    // Either the legacy file is untouched (a shard log the crash left next
    // to it is ignored) or the migration landed; both hold every entry.
    const uint32_t magic = RootMagic(path);
    ASSERT_TRUE(magic == legacy_cmdb::kMagic || magic == kLibraryMagic)
        << site;
    const util::StatusOr<index::OpenResult> reopened =
        index::OpenDatabaseAnyGeneration(path, nullptr);
    ASSERT_TRUE(reopened.ok()) << site << ": "
                               << reopened.status().message();
    EXPECT_EQ(FramedEntries(reopened->db), expected) << site;
    EXPECT_FALSE(reopened->salvaged || reopened->used_backup) << site;
    if (magic == legacy_cmdb::kMagic) {
      EXPECT_TRUE(reopened->legacy) << site;
      if (FileExists(index::ShardPath(path, 0))) ++stray_logs;
    }

    // With the fault cleared, the migration completes.
    const util::StatusOr<index::RepairReport> repaired =
        index::RepairDatabaseFile(path, index::RemineFn(), nullptr);
    ASSERT_TRUE(repaired.ok()) << site << ": "
                               << repaired.status().message();
    EXPECT_EQ(RootMagic(path), kLibraryMagic) << site;
    const index::VerifyReport verify = index::VerifyDatabaseFile(path);
    EXPECT_TRUE(verify.clean()) << site << ": " << verify.ToString();
    EXPECT_EQ(verify.shards, 1) << site;
    const util::StatusOr<index::VideoDatabase> migrated =
        index::LoadDatabase(path);
    ASSERT_TRUE(migrated.ok()) << site;
    EXPECT_EQ(FramedEntries(*migrated), expected) << site;
  }
  // Crashes after the shard log landed but before the manifest did leave
  // a stray log next to the legacy root.
  EXPECT_GT(stray_logs, 0);
}

TEST_F(RecoveryTest, LegacyFileIsRefusedByCompactAndAppend) {
  const std::string path = FreshDbPath("legacy_refused");
  ASSERT_TRUE(legacy_cmdb::Write(MakeDatabase(2), path).ok());
  const util::Status compacted = index::CompactDatabaseFile(path).status();
  EXPECT_EQ(compacted.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(compacted.message().find("repair"), std::string::npos)
      << compacted.message();
  const util::Status appended = index::ShardedDatabase::Open(path).status();
  EXPECT_EQ(appended.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(appended.message().find("repair"), std::string::npos)
      << appended.message();
  // Neither refusal touched the file.
  EXPECT_EQ(RootMagic(path), legacy_cmdb::kMagic);
  EXPECT_FALSE(FileExists(index::ShardPath(path, 0)));
}

TEST_F(RecoveryTest, RepeatedNamesAreRefusedInsteadOfCollapsed) {
  // A legacy file could hold two entries under one name; a library keys
  // entries by name, so migrating it would silently drop one. Repair
  // refuses before writing anything, and the file keeps importing whole.
  const std::string path = FreshDbPath("legacy_repeated");
  index::VideoDatabase db = MakeDatabase(2);
  index::VideoDatabase twin = MakeDatabase(1, /*degrade_first=*/true);
  db.AddVideo(twin.video(0).name, twin.video(0).structure, {}, true);
  ASSERT_TRUE(legacy_cmdb::Write(db, path).ok());

  const util::StatusOr<index::RepairReport> repaired =
      index::RepairDatabaseFile(path, index::RemineFn(), nullptr);
  EXPECT_EQ(repaired.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(repaired.status().message().find("repeats the name \"video0\""),
            std::string::npos)
      << repaired.status().message();
  EXPECT_EQ(RootMagic(path), legacy_cmdb::kMagic);
  EXPECT_FALSE(FileExists(index::ShardPath(path, 0)));
  const util::StatusOr<index::OpenResult> opened =
      index::OpenDatabaseAnyGeneration(path, nullptr);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(FramedEntries(opened->db), FramedEntries(db));

  // The same rule holds for a fresh save.
  const std::string fresh = FreshDbPath("fresh_repeated");
  EXPECT_EQ(index::SaveDatabase(db, fresh).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(FileExists(fresh));
  EXPECT_FALSE(FileExists(index::ShardPath(fresh, 0)));
}

}  // namespace
}  // namespace classminer
