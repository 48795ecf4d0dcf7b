#include "ckpt/checkpoint.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <utility>

#include "common/fsio.h"
#include "common/require.h"

namespace dct::ckpt {
namespace fs = std::filesystem;

namespace {

constexpr const char* kWalFile = "trace.dwal";
constexpr const char* kLineageFile = "ckpt_manifest.json";
constexpr const char* kSnapshotPrefix = "snapshot-";
constexpr const char* kSnapshotSuffix = ".dsnp";

void sleep_ns(std::int64_t ns) {
  timespec ts{};
  ts.tv_sec = ns / 1000000000;
  ts.tv_nsec = ns % 1000000000;
  nanosleep(&ts, nullptr);
}

/// Minimal extraction of an unsigned integer field from the lineage
/// manifest this module itself writes ("key": 123).  Returns `fallback`
/// when the key is absent or the file is unreadable garbage — lineage is
/// best-effort metadata, never a correctness input.
std::uint64_t parse_lineage_u64(const std::string& text, const std::string& key,
                                std::uint64_t fallback) {
  const std::string needle = "\"" + key + "\":";
  const auto at = text.find(needle);
  if (at == std::string::npos) return fallback;
  const char* p = text.c_str() + at + needle.size();
  while (*p == ' ') ++p;
  if (*p < '0' || *p > '9') return fallback;
  std::uint64_t v = 0;
  while (*p >= '0' && *p <= '9') v = v * 10 + static_cast<std::uint64_t>(*p++ - '0');
  return v;
}

}  // namespace

void CheckpointConfig::validate() const {
  if (!enabled()) return;
  require(interval_s > 0, "CheckpointConfig: interval_s must be > 0 (got " +
                              std::to_string(interval_s) + ")");
}

CheckpointManager::CheckpointManager(CheckpointConfig cfg, std::uint64_t fingerprint)
    : cfg_(std::move(cfg)), fingerprint_(fingerprint) {
  cfg_.validate();
  require(cfg_.enabled(), "CheckpointManager: config has no checkpoint dir");
  if (const char* env = std::getenv("DCT_CKPT_TEST_SLOW_NS")) {
    slow_ns_ = std::atoll(env);
  }
  std::error_code ec;
  fs::create_directories(cfg_.dir, ec);
  require(!ec, "CheckpointManager: cannot create " + cfg_.dir);
  recover();
}

std::string CheckpointManager::snapshot_path(std::uint64_t id) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%06llu%s", kSnapshotPrefix,
                static_cast<unsigned long long>(id), kSnapshotSuffix);
  return (fs::path(cfg_.dir) / name).string();
}

std::string CheckpointManager::wal_path() const {
  return (fs::path(cfg_.dir) / kWalFile).string();
}

std::string CheckpointManager::lineage_path() const {
  return (fs::path(cfg_.dir) / kLineageFile).string();
}

void CheckpointManager::recover() {
  // A kill between tmp-write and rename leaves a *.tmp; the rename never
  // happened, so the named generation simply does not exist.  Clean up.
  std::vector<std::uint64_t> snapshot_ids;
  for (const auto& entry : fs::directory_iterator(cfg_.dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      std::error_code ec;
      fs::remove(entry.path(), ec);
      ++counters_.stale_tmp_removed;
      continue;
    }
    const std::size_t prefix_len = std::strlen(kSnapshotPrefix);
    const std::size_t suffix_len = std::strlen(kSnapshotSuffix);
    if (name.size() > prefix_len + suffix_len &&
        name.compare(0, prefix_len, kSnapshotPrefix) == 0 &&
        name.compare(name.size() - suffix_len, suffix_len, kSnapshotSuffix) == 0) {
      // Only all-digit ids that fit in a u64 name snapshots; anything else
      // is a stray file, not a generation to recover from.
      const char* first = name.data() + prefix_len;
      const char* last = name.data() + name.size() - suffix_len;
      std::uint64_t id = 0;
      const auto [end, ec] = std::from_chars(first, last, id);
      if (ec == std::errc() && end == last) snapshot_ids.push_back(id);
    }
  }

  std::uint64_t prior_resumes = 0;
  if (fs::exists(lineage_path())) {
    const auto bytes = read_file_bytes(lineage_path());
    const std::string text(bytes.begin(), bytes.end());
    prior_resumes = parse_lineage_u64(text, "resume_count", 0);
  }

  wal_ = std::make_unique<TraceWal>(wal_path(), fingerprint_, slow_ns_);
  counters_.wal_torn_bytes = wal_->truncated_bytes();

  // Newest snapshot first; fall back to older generations when a snapshot
  // is unreadable or describes WAL state the durable prefix cannot back
  // (possible with fsync off).
  std::sort(snapshot_ids.rbegin(), snapshot_ids.rend());
  for (std::uint64_t id : snapshot_ids) {
    Snapshot s;
    try {
      s = decode_snapshot(read_file_bytes(snapshot_path(id)));
    } catch (const Error&) {
      ++counters_.snapshots_skipped;
      continue;
    }
    require(s.fingerprint == fingerprint_,
            "CheckpointManager: " + snapshot_path(id) +
                " belongs to a different scenario (fingerprint mismatch)");
    if (s.wal_records > wal_->durable_frames().size()) {
      ++counters_.snapshots_skipped;
      continue;
    }
    const auto [bytes, hash] = wal_cursor(s.wal_records);
    if (bytes != s.wal_bytes || hash != s.wal_hash) {
      ++counters_.snapshots_skipped;
      continue;
    }
    resume_ = std::move(s);
    last_snapshot_id_ = id;
    break;
  }

  if (wal_->resumed_existing() || resume_ || prior_resumes > 0) {
    resume_count_ =
        std::max(prior_resumes, resume_ ? resume_->resume_count : 0) + 1;
  }
  write_lineage(wal_->finalized());
}

std::pair<std::uint64_t, std::uint64_t> CheckpointManager::wal_cursor(
    std::uint64_t records) const {
  if (records == 0) return {wal_->header_bytes(), kFnvOffset};
  const auto& frames = wal_->durable_frames();
  require(records <= frames.size(),
          "CheckpointManager: WAL cursor past the durable prefix");
  const WalFrameInfo& f = frames[records - 1];
  return {f.bytes_after, f.chain_after};
}

void CheckpointManager::on_record(const FlowRecord& rec) {
  const auto& frames = wal_->durable_frames();
  if (emitted_ < frames.size() && !wal_->finalized()) {
    // Replay inside the durable prefix: prove the re-emitted record is the
    // one already spooled instead of re-appending it.
    const std::vector<std::uint8_t> payload = encode_wal_record(rec);
    require(fnv1a(kFnvOffset, payload) == frames[emitted_].payload_hash,
            "ckpt: divergent resume: replayed record #" + std::to_string(emitted_) +
                " does not match the durable WAL");
    ++counters_.wal_records_verified;
  } else if (emitted_ < frames.size()) {
    // Completed-run WAL: everything is durable, verify only.
    const std::vector<std::uint8_t> payload = encode_wal_record(rec);
    require(fnv1a(kFnvOffset, payload) == frames[emitted_].payload_hash,
            "ckpt: divergent resume: replayed record #" + std::to_string(emitted_) +
                " does not match the finalized WAL");
    ++counters_.wal_records_verified;
  } else {
    wal_->append(rec);
    ++counters_.wal_records_appended;
  }
  ++emitted_;
}

void CheckpointManager::checkpoint(Snapshot live) {
  live.fingerprint = fingerprint_;
  live.resume_count = resume_count_;
  if (resume_ && live.sim_time_us < resume_->sim_time_us) {
    return;  // fast replay below the resume point; nothing durable to add
  }
  live.wal_records = emitted_;
  if (resume_ && live.sim_time_us == resume_->sim_time_us) {
    // The replay has reached the crashed run's last proven state: the live
    // capture must reproduce the stored snapshot bit-for-bit.
    require(emitted_ <= wal_->durable_frames().size(),
            "ckpt: divergent resume: replay emitted more records than the "
            "durable WAL holds at the snapshot point");
    const auto [bytes, hash] = wal_cursor(emitted_);
    live.wal_bytes = bytes;
    live.wal_hash = hash;
    const std::string diff = describe_divergence(*resume_, live);
    require(diff.empty(), "ckpt: divergent resume at snapshot " +
                              std::to_string(resume_->id) + ": " + diff);
    ++counters_.snapshots_verified;
    last_snapshot_id_ = live.id;
    return;
  }

  // New ground: make the WAL durable up to this instant, then persist the
  // snapshot that vouches for it.
  wal_->flush(cfg_.fsync);
  const auto [bytes, hash] = wal_cursor(emitted_);
  live.wal_bytes = bytes;
  live.wal_hash = hash;
  write_snapshot_file(snapshot_path(live.id), encode_snapshot(live));
  ++counters_.snapshots_written;
  last_snapshot_id_ = live.id;
  wrote_snapshot_ = true;
  if (live.id >= 2) {
    std::error_code ec;
    fs::remove(snapshot_path(live.id - 2), ec);  // last-two retention
  }
  write_lineage(false);
}

void CheckpointManager::finalize() {
  require(emitted_ >= wal_->durable_frames().size(),
          "ckpt: divergent resume: run completed with fewer records than the "
          "durable WAL holds");
  wal_->finalize(emitted_, wal_->durable_chain_hash());
  wal_->flush(cfg_.fsync);
  write_lineage(true);
}

void CheckpointManager::write_snapshot_file(const std::string& path,
                                            const std::vector<std::uint8_t>& bytes) {
  if (slow_ns_ <= 0) {
    atomic_write_file(path, bytes, cfg_.fsync);
    return;
  }
  // Test mode: stretch the tmp write and the pre-rename window so the crash
  // harness can land SIGKILLs mid-snapshot; the tmp + rename protocol must
  // make every such kill invisible to recovery.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  require(f != nullptr, "ckpt: cannot create " + tmp);
  const std::size_t half = bytes.size() / 2;
  std::fwrite(bytes.data(), 1, half, f);
  std::fflush(f);
  sleep_ns(slow_ns_);
  std::fwrite(bytes.data() + half, 1, bytes.size() - half, f);
  std::fflush(f);
  if (cfg_.fsync) ::fsync(::fileno(f));
  std::fclose(f);
  sleep_ns(slow_ns_);
  std::error_code ec;
  fs::rename(tmp, path, ec);
  require(!ec, "ckpt: cannot rename " + tmp + " -> " + path);
}

void CheckpointManager::write_lineage(bool finished) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"fingerprint\": %llu,\n"
                "  \"resume_count\": %llu,\n"
                "  \"last_snapshot_id\": %llu,\n"
                "  \"wal_records\": %llu,\n"
                "  \"wal_torn_bytes\": %llu,\n"
                "  \"stale_tmp_removed\": %llu,\n"
                "  \"finished\": %s,\n"
                "  \"updated_unix_s\": %lld\n"
                "}\n",
                static_cast<unsigned long long>(fingerprint_),
                static_cast<unsigned long long>(resume_count_),
                static_cast<unsigned long long>(last_snapshot_id_),
                static_cast<unsigned long long>(emitted_),
                static_cast<unsigned long long>(counters_.wal_torn_bytes),
                static_cast<unsigned long long>(counters_.stale_tmp_removed),
                finished ? "true" : "false",
                static_cast<long long>(std::time(nullptr)));
  atomic_write_file(lineage_path(), std::string_view(buf));
}

}  // namespace dct::ckpt
