// Crash-safe checkpoint/restart manager (docs/CHECKPOINT.md).
//
// The repo's recovery model is deterministic replay, which PR 6's
// determinism contract makes sound: a scenario re-run from t=0 with the
// same config produces bit-identical events at any thread count.  A
// checkpoint directory therefore holds two kinds of durable artifact:
//
//   * snapshot-<id>.dsnp — periodic, checksummed witnesses of the
//     experiment state (ckpt/snapshot.h): the sim clock, the WAL cursor and
//     one digest per state section, written atomically (tmp + rename,
//     fsync) with last-two retention.  On resume the newest valid snapshot
//     is not "loaded into" the engines — the run replays from t=0, and when
//     the replay reaches the snapshot's sim time the live section digests
//     must match the stored ones, or the resume fails as divergent, naming
//     the first section that differs.
//
//   * trace.dwal — the write-ahead trace spool (ckpt/wal.h).  Records the
//     replay re-emits over the durable prefix are verified against the
//     stored per-record hashes instead of re-appended; records past the
//     prefix are appended as usual.  A torn tail from the crash is
//     truncated on open.
//
// The net effect: a SIGKILL at any instant — mid-snapshot, mid-WAL-append —
// loses no durable record, and the resumed run's outputs are byte-identical
// to an uninterrupted run's (tools/crash/crash_harness proves it).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "ckpt/snapshot.h"
#include "ckpt/wal.h"

namespace dct::ckpt {

/// Checkpointing knobs, carried on ScenarioConfig.  Disabled (the default,
/// empty dir) costs one null branch per record: runs are bit-identical to a
/// build without the subsystem.
struct CheckpointConfig {
  /// Checkpoint directory; empty disables checkpointing entirely.
  std::string dir;
  /// Simulated seconds between snapshots.
  double interval_s = 30.0;
  /// fsync the WAL before each snapshot and the snapshot itself.  Turning
  /// this off trades crash-durability of the newest interval for speed; the
  /// on-disk formats remain torn-write safe either way.
  bool fsync = true;

  [[nodiscard]] bool enabled() const noexcept { return !dir.empty(); }
  /// Throws dct::Error on nonsense (enabled with interval_s <= 0).
  void validate() const;
};

/// Owns one checkpoint directory for the lifetime of one run attempt.
///
/// Construction performs recovery: stale snapshot temp files from a
/// mid-snapshot kill are removed, the WAL is opened (truncating any torn
/// tail), and the newest snapshot that decodes, matches the scenario
/// fingerprint and is consistent with the durable WAL prefix becomes the
/// resume target.  Snapshots that fail any of those checks — an older
/// format version among them — are skipped in favor of the next-older one;
/// that is what last-two retention is for.  A snapshot file name whose id
/// is not a u64 is not a snapshot and is ignored.
class CheckpointManager {
 public:
  /// Recovery/progress counters, published as ckpt.* metrics after the run.
  struct Counters {
    std::uint64_t snapshots_written = 0;
    std::uint64_t snapshots_verified = 0;   ///< replay matched stored snapshot
    std::uint64_t snapshots_skipped = 0;    ///< unreadable/stale, passed over
    std::uint64_t wal_records_appended = 0;
    std::uint64_t wal_records_verified = 0;  ///< replay matched durable prefix
    std::uint64_t wal_torn_bytes = 0;        ///< torn tail truncated on open
    std::uint64_t stale_tmp_removed = 0;     ///< mid-snapshot kill leftovers
  };

  /// Opens `cfg.dir` (created if missing) for the scenario identified by
  /// `fingerprint`.  `cfg` must be enabled and valid.
  CheckpointManager(CheckpointConfig cfg, std::uint64_t fingerprint);

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  [[nodiscard]] const CheckpointConfig& config() const noexcept { return cfg_; }
  /// True when recovery found prior progress (a crashed or completed run).
  [[nodiscard]] bool resuming() const noexcept { return resume_count_ > 0; }
  /// Snapshot the replay must reproduce; null on a fresh run or when the
  /// crash predated the first snapshot (WAL-only recovery).
  [[nodiscard]] const Snapshot* resume_snapshot() const noexcept {
    return resume_ ? &*resume_ : nullptr;
  }
  /// Times this run has been resumed, this attempt included.
  [[nodiscard]] std::uint64_t resume_count() const noexcept { return resume_count_; }
  [[nodiscard]] std::uint64_t last_snapshot_id() const noexcept {
    return last_snapshot_id_;
  }
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
  /// Records spooled so far this attempt (verified replays + new appends).
  [[nodiscard]] std::uint64_t records_emitted() const noexcept { return emitted_; }

  /// Record tap: verifies `rec` against the durable WAL prefix while the
  /// replay is inside it (throwing on any byte of divergence), appends past
  /// it.
  void on_record(const FlowRecord& rec);

  /// Checkpoint tick.  `live` carries the capture's id, sim time and section
  /// digests; the manager fills identity/lineage/WAL-cursor fields.
  /// Before the resume point: skipped (fast replay).  At the resume point:
  /// verified against the stored snapshot.  Past it: WAL is
  /// flushed, the snapshot is written atomically, and the
  /// two-generations-old snapshot is deleted.
  void checkpoint(Snapshot live);

  /// Completes the attempt: proves the replay covered the whole durable
  /// prefix, appends the WAL finalize marker, flushes, and rewrites the
  /// lineage manifest as finished.
  void finalize();

 private:
  [[nodiscard]] std::string snapshot_path(std::uint64_t id) const;
  [[nodiscard]] std::string wal_path() const;
  [[nodiscard]] std::string lineage_path() const;
  void recover();
  /// WAL cursor (bytes, chain hash) after the first `records` records.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> wal_cursor(
      std::uint64_t records) const;
  void write_snapshot_file(const std::string& path,
                           const std::vector<std::uint8_t>& bytes);
  void write_lineage(bool finished);

  CheckpointConfig cfg_;
  std::uint64_t fingerprint_ = 0;
  std::int64_t slow_ns_ = 0;  ///< DCT_CKPT_TEST_SLOW_NS crash-window widener
  std::unique_ptr<TraceWal> wal_;
  std::optional<Snapshot> resume_;
  std::uint64_t resume_count_ = 0;
  std::uint64_t last_snapshot_id_ = 0;
  bool wrote_snapshot_ = false;
  std::uint64_t emitted_ = 0;
  Counters counters_;
};

}  // namespace dct::ckpt
