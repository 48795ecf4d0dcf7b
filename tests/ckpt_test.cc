#include "ckpt/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "ckpt/snapshot.h"
#include "ckpt/wal.h"
#include "common/fsio.h"
#include "common/require.h"
#include "core/experiment.h"
#include "trace/codec.h"

namespace dct {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test, removed on teardown.
class CkptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dct_ckpt_test_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
};

ckpt::Snapshot sample_snapshot() {
  ckpt::Snapshot s;
  s.fingerprint = 0xfeedfacecafebeefULL;
  s.id = 3;
  s.sim_time_us = 15'000'000;
  s.resume_count = 2;
  s.wal_records = 17;
  s.wal_bytes = 421;
  s.wal_hash = 0x1234;
  s.flowsim = 0x0123456789abcdefULL;
  s.workload = 0xfedcba9876543210ULL;
  s.faults = 0;  // no injector
  s.obs = 0x5555aaaa5555aaaaULL;
  return s;
}

FlowRecord sample_record(int i) {
  FlowRecord r;
  r.id = FlowId{i};
  r.src = ServerId{i % 5};
  r.dst = ServerId{(i + 1) % 5};
  r.bytes_requested = 1000 + i;
  r.bytes_sent = 900 + i;
  r.start = 0.5 * i;
  r.end = 0.5 * i + 1.25;
  r.failed = (i % 7 == 0);
  r.kind = FlowKind::kShuffle;
  r.job = JobId{i / 3};
  r.phase = PhaseId{i % 3};
  return r;
}

// --- Snapshot codec ---------------------------------------------------------

TEST_F(CkptTest, SnapshotRoundTripsBitExactly) {
  const ckpt::Snapshot s = sample_snapshot();
  const auto bytes = ckpt::encode_snapshot(s);
  const ckpt::Snapshot back = ckpt::decode_snapshot(bytes);
  EXPECT_EQ(back.fingerprint, s.fingerprint);
  EXPECT_EQ(back.id, s.id);
  EXPECT_EQ(back.sim_time_us, s.sim_time_us);
  EXPECT_EQ(back.resume_count, s.resume_count);
  EXPECT_EQ(back.wal_records, s.wal_records);
  EXPECT_EQ(back.wal_bytes, s.wal_bytes);
  EXPECT_EQ(back.wal_hash, s.wal_hash);
  EXPECT_EQ(back.flowsim, s.flowsim);
  EXPECT_EQ(back.workload, s.workload);
  EXPECT_EQ(back.faults, s.faults);
  EXPECT_EQ(back.obs, s.obs);
  EXPECT_EQ(ckpt::describe_divergence(s, back), "");
  EXPECT_EQ(ckpt::encode_snapshot(back), bytes);
}

TEST_F(CkptTest, SnapshotRejectsCorruptionAndTruncation) {
  auto bytes = ckpt::encode_snapshot(sample_snapshot());
  // Every single-bit flip must be caught by the FNV trailer.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bad = bytes;
      bad[i] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_THROW((void)ckpt::decode_snapshot(bad), Error)
          << "flip of bit " << bit << " at " << i;
    }
  }
  // Every proper prefix is torn.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(
        (void)ckpt::decode_snapshot(std::span(bytes.data(), len)), Error)
        << "prefix " << len;
  }
}

TEST_F(CkptTest, DivergenceNamesTheFirstDifferingSection) {
  const ckpt::Snapshot stored = sample_snapshot();
  ckpt::Snapshot live = stored;
  live.obs ^= 1;
  EXPECT_NE(ckpt::describe_divergence(stored, live).find("obs section"),
            std::string::npos);
  live.workload ^= 1;
  EXPECT_NE(ckpt::describe_divergence(stored, live).find("workload section"),
            std::string::npos)
      << "the earlier section is named first";
  live = stored;
  live.faults = 7;
  EXPECT_NE(ckpt::describe_divergence(stored, live).find("faults section"),
            std::string::npos);
  // Lineage fields are excluded: a resumed run re-captures with a bumped
  // resume_count and a different id schedule.
  live = stored;
  live.id = 99;
  live.resume_count = 9;
  EXPECT_EQ(ckpt::describe_divergence(stored, live), "");
}

// --- WAL --------------------------------------------------------------------

TEST_F(CkptTest, WalReopensWithDurablePrefixAndTruncatesTornTail) {
  const std::string path = (dir_ / "trace.dwal").string();
  constexpr std::uint64_t kFp = 42;
  {
    ckpt::TraceWal wal(path, kFp);
    EXPECT_FALSE(wal.resumed_existing());
    for (int i = 0; i < 10; ++i) wal.append(sample_record(i));
    wal.flush(/*sync=*/false);
  }
  std::uint64_t clean_bytes = 0;
  {
    ckpt::TraceWal wal(path, kFp);
    EXPECT_TRUE(wal.resumed_existing());
    EXPECT_FALSE(wal.finalized());
    EXPECT_FALSE(wal.truncated_tail());
    ASSERT_EQ(wal.durable_frames().size(), 10u);
    clean_bytes = wal.durable_bytes();
    // Replayed payloads hash-match the durable prefix.
    for (int i = 0; i < 10; ++i) {
      const auto payload = ckpt::encode_wal_record(sample_record(i));
      EXPECT_EQ(wal.durable_frames()[i].payload_hash,
                ckpt::fnv1a(ckpt::kFnvOffset, payload));
    }
  }
  // Torn tail: append garbage that is not a whole frame.
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write("\x01\x7fgarbage", 9);
  }
  {
    ckpt::TraceWal wal(path, kFp);
    EXPECT_TRUE(wal.truncated_tail());
    EXPECT_EQ(wal.truncated_bytes(), 9u);
    EXPECT_EQ(wal.durable_frames().size(), 10u);
    EXPECT_EQ(wal.durable_bytes(), clean_bytes);
    wal.finalize(10, wal.durable_chain_hash());
    wal.flush(true);
  }
  {
    ckpt::TraceWal wal(path, kFp);
    EXPECT_TRUE(wal.finalized());
    EXPECT_EQ(wal.durable_frames().size(), 10u);
  }
  // A WAL never continues a different scenario.
  EXPECT_THROW(ckpt::TraceWal(path, kFp + 1), Error);
}

TEST_F(CkptTest, WalSurvivesTruncationAtEveryByte) {
  const std::string path = (dir_ / "trace.dwal").string();
  std::uint64_t full_size = 0;
  {
    ckpt::TraceWal wal(path, 7);
    for (int i = 0; i < 5; ++i) wal.append(sample_record(i));
    wal.flush(false);
    full_size = wal.durable_bytes();
  }
  const auto bytes = read_file_bytes(path);
  ASSERT_EQ(bytes.size(), full_size);
  for (std::size_t len = bytes.size(); len-- > 0;) {
    atomic_write_file(path, std::span(bytes.data(), len));
    if (len < 13) {  // inside the fixed header: treated as a fresh WAL
      ckpt::TraceWal wal(path, 7);
      EXPECT_TRUE(wal.durable_frames().empty());
      continue;
    }
    ckpt::TraceWal wal(path, 7);
    EXPECT_LE(wal.durable_frames().size(), 5u);
    EXPECT_EQ(wal.durable_bytes() + wal.truncated_bytes(), len);
    // Frames the scan kept are exactly a prefix of what was appended.
    for (std::size_t i = 0; i < wal.durable_frames().size(); ++i) {
      const auto payload = ckpt::encode_wal_record(sample_record(int(i)));
      EXPECT_EQ(wal.durable_frames()[i].payload_hash,
                ckpt::fnv1a(ckpt::kFnvOffset, payload));
    }
  }
}

// --- End-to-end resume ------------------------------------------------------

std::vector<std::uint8_t> run_trace(double duration, std::uint64_t seed,
                                    const std::string& ckpt_dir,
                                    bool resume = false) {
  ScenarioConfig cfg = scenarios::tiny(duration, seed);
  if (!ckpt_dir.empty()) {
    cfg.checkpoint.dir = ckpt_dir;
    cfg.checkpoint.interval_s = 5.0;
  }
  ClusterExperiment exp(cfg);
  if (resume) {
    exp.resume(ckpt_dir);
  } else {
    exp.run();
  }
  return encode_trace(exp.trace());
}

TEST_F(CkptTest, CheckpointingDoesNotPerturbTheTrace) {
  const auto base = run_trace(20.0, 11, "");
  const auto ckpt = run_trace(20.0, 11, (dir_ / "ck").string());
  EXPECT_EQ(base, ckpt);
}

TEST_F(CkptTest, ResumeOfCompletedRunReVerifiesAndMatches) {
  const std::string ck = (dir_ / "ck").string();
  const auto first = run_trace(20.0, 11, ck);

  ScenarioConfig cfg = scenarios::tiny(20.0, 11);
  cfg.checkpoint.dir = ck;
  cfg.checkpoint.interval_s = 5.0;
  ClusterExperiment exp(cfg);
  exp.resume(ck);
  EXPECT_EQ(encode_trace(exp.trace()), first);
  ASSERT_NE(exp.checkpoint_manager(), nullptr);
  EXPECT_EQ(exp.checkpoint_manager()->resume_count(), 1u);
  const auto& c = exp.checkpoint_manager()->counters();
  EXPECT_GT(c.wal_records_verified, 0u);
  EXPECT_EQ(c.wal_records_appended, 0u);
  EXPECT_GE(c.snapshots_verified, 1u);
}

TEST_F(CkptTest, ResumeRecoversFromChoppedWalViaEarlierSnapshot) {
  const std::string ck = (dir_ / "ck").string();
  const auto reference = run_trace(20.0, 11, "");
  (void)run_trace(20.0, 11, ck);

  // Chop a third off the WAL: the newest snapshot now points past the
  // durable prefix and must be skipped in favor of an older one (or a
  // from-scratch replay) — the purpose of last-two retention.
  const fs::path wal = fs::path(ck) / "trace.dwal";
  const auto size = fs::file_size(wal);
  fs::resize_file(wal, size - size / 3);

  ScenarioConfig cfg = scenarios::tiny(20.0, 11);
  cfg.checkpoint.dir = ck;
  cfg.checkpoint.interval_s = 5.0;
  ClusterExperiment exp(cfg);
  exp.resume(ck);
  EXPECT_EQ(encode_trace(exp.trace()), reference);
  ASSERT_NE(exp.checkpoint_manager(), nullptr);
  EXPECT_EQ(exp.checkpoint_manager()->resume_count(), 1u);
  EXPECT_GT(exp.checkpoint_manager()->counters().wal_records_appended, 0u);
}

TEST_F(CkptTest, ResumeRejectsADifferentScenario) {
  const std::string ck = (dir_ / "ck").string();
  (void)run_trace(20.0, 11, ck);
  ScenarioConfig cfg = scenarios::tiny(20.0, 12);  // different seed
  cfg.checkpoint.dir = ck;
  cfg.checkpoint.interval_s = 5.0;
  ClusterExperiment exp(cfg);
  EXPECT_THROW(exp.resume(ck), Error);
}

// Newest snapshot file in a checkpoint directory (ids are zero-padded, so
// name order is id order).
fs::path newest_snapshot(const std::string& ck) {
  fs::path newest;
  for (const auto& e : fs::directory_iterator(ck)) {
    if (e.path().extension() == ".dsnp" && e.path() > newest) newest = e.path();
  }
  return newest;
}

TEST_F(CkptTest, SectionDigestsAreDeterministicAndTrackProgress) {
  const std::string a = (dir_ / "a").string();
  const std::string b = (dir_ / "b").string();
  (void)run_trace(20.0, 11, a);
  (void)run_trace(20.0, 11, b);
  // Two fresh runs of one scenario write byte-identical snapshots...
  std::vector<ckpt::Snapshot> gens;
  for (const auto& e : fs::directory_iterator(a)) {
    if (e.path().extension() != ".dsnp") continue;
    const auto bytes = read_file_bytes(e.path().string());
    EXPECT_EQ(bytes, read_file_bytes((fs::path(b) / e.path().filename()).string()))
        << e.path().filename();
    gens.push_back(ckpt::decode_snapshot(bytes));
  }
  // ...and every section the run advances moves between the two retained
  // generations.  `tiny` installs no fault injector.
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_NE(gens[0].flowsim, gens[1].flowsim);
  EXPECT_NE(gens[0].workload, gens[1].workload);
  EXPECT_NE(gens[0].obs, gens[1].obs);
  EXPECT_EQ(gens[0].faults, 0u);
  EXPECT_EQ(gens[1].faults, 0u);
}

TEST_F(CkptTest, ResumeRejectsDivergentAndSkipsOldFormatSnapshots) {
  const std::string ck = (dir_ / "ck").string();
  const auto reference = run_trace(20.0, 11, ck);
  const fs::path newest = newest_snapshot(ck);
  ASSERT_FALSE(newest.empty());

  // One section digest changed, trailer still valid: the file decodes, so
  // only the replay's comparison can catch it, and it must name the section.
  ckpt::Snapshot s = ckpt::decode_snapshot(read_file_bytes(newest.string()));
  s.workload ^= 1;
  atomic_write_file(newest.string(), ckpt::encode_snapshot(s));
  try {
    (void)run_trace(20.0, 11, ck, /*resume=*/true);
    ADD_FAILURE() << "resume accepted a divergent snapshot";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("workload section"), std::string::npos)
        << e.what();
  }

  // The same file as a version-1 snapshot with a valid trailer: decode
  // refuses the old format, recovery skips it for the previous generation,
  // and the resume still reproduces the run.
  auto v1 = ckpt::encode_snapshot(s);
  v1[4] = 1;
  const std::size_t body = v1.size() - 8;
  const std::uint64_t sum = ckpt::fnv1a(ckpt::kFnvOffset, std::span(v1.data(), body));
  for (int i = 0; i < 8; ++i) v1[body + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  ASSERT_THROW((void)ckpt::decode_snapshot(v1), Error);
  atomic_write_file(newest.string(), v1);

  ScenarioConfig cfg = scenarios::tiny(20.0, 11);
  cfg.checkpoint.dir = ck;
  cfg.checkpoint.interval_s = 5.0;
  ClusterExperiment exp(cfg);
  exp.resume(ck);
  EXPECT_EQ(encode_trace(exp.trace()), reference);
  ASSERT_NE(exp.checkpoint_manager(), nullptr);
  EXPECT_GE(exp.checkpoint_manager()->counters().snapshots_skipped, 1u);
  EXPECT_GE(exp.checkpoint_manager()->counters().snapshots_verified, 1u);
}

TEST_F(CkptTest, ResumeIgnoresSnapshotIdsPastU64) {
  const std::string ck = (dir_ / "ck").string();
  const auto reference = run_trace(20.0, 11, ck);
  const fs::path stray = fs::path(ck) / "snapshot-99999999999999999999999.dsnp";
  atomic_write_file(stray.string(), std::string_view("not a snapshot"));
  EXPECT_EQ(run_trace(20.0, 11, ck, /*resume=*/true), reference);
}

TEST_F(CkptTest, ConfigValidation) {
  ckpt::CheckpointConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  EXPECT_NO_THROW(cfg.validate());
  cfg.dir = "somewhere";
  cfg.interval_s = 0.0;
  EXPECT_THROW(cfg.validate(), Error);
}

}  // namespace
}  // namespace dct
