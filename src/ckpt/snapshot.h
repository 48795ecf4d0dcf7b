// Versioned, checksummed experiment-state witnesses (docs/CHECKPOINT.md).
//
// Resume never loads a snapshot back into the engines: it replays the
// scenario from t=0 and, when the replay reaches a snapshot's simulated
// instant, proves the replayed state is the state the crashed run had
// reached.  A snapshot therefore stores only what that proof needs: the
// sim clock, the WAL cursor it was flushed behind (ckpt/wal.h), and one
// FNV-1a digest per state section — the simulator (clock, event cursor,
// in-flight flow table, degraded links, RNG), the workload driver (stats,
// cursors, RNG streams, redundancy ledger), the fault injector (schedule
// cursors, cascade RNG) and the obs registry's deterministic counters.
// Per-section digests let a divergent resume name the first section that
// differs.
//
// Encoding (version 3): magic "DSNP", a version byte, eleven fixed-width
// little-endian u64 fields, then an FNV-1a trailer over everything before
// it.  Older files fail decode and are skipped on recovery like any other
// unreadable snapshot: version 1 held the full serialized state, and
// version 2's simulator digest covered a per-flow rate-epoch counter that
// no longer exists.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/fnv.h"

namespace dct::ckpt {

// Code outside the library (the benchmark, golden digests) hashes through
// these names.
using dct::fnv1a;
using dct::kFnvOffset;

/// One experiment-state witness.
struct Snapshot {
  /// Identity of the producing scenario (ckpt::scenario_fingerprint); a
  /// snapshot never resumes a different scenario.
  std::uint64_t fingerprint = 0;
  /// Index on the checkpoint-interval grid: id = sim_time / interval.
  std::uint64_t id = 0;
  /// Simulated capture instant, quantized to integer microseconds.
  std::int64_t sim_time_us = 0;
  /// How many times this run had been resumed when the snapshot was taken.
  std::uint64_t resume_count = 0;
  /// WAL position at capture: records spooled, bytes written, chained
  /// FNV-1a over the record payloads.  The snapshot is only written after
  /// the WAL is flushed to this position, so these always describe durable
  /// data.
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_hash = 0;

  /// Section digests: FlowSim::state_digest(), WorkloadDriver::state_digest(),
  /// FaultInjector::state_digest() (0 when the run has no injector), and the
  /// digest of the deterministic obs counters.
  std::uint64_t flowsim = 0;
  std::uint64_t workload = 0;
  std::uint64_t faults = 0;
  std::uint64_t obs = 0;
};

/// Serializes a snapshot (header + fixed fields + FNV-1a trailer).
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(const Snapshot& s);

/// Inverse of encode_snapshot.  Throws dct::Error on a checksum mismatch
/// (torn or corrupt file), bad magic, any version but 3, or a wrong length.
[[nodiscard]] Snapshot decode_snapshot(std::span<const std::uint8_t> data);

/// Compares the sim time, section digests (flowsim, workload, faults, obs)
/// and WAL position of a stored snapshot against a live capture.  Returns
/// "" when they match, otherwise a one-line description naming the first
/// divergent section — the error a resumed run reports when its replay does
/// not reproduce the crashed run.  Lineage fields (id, resume_count) are not
/// compared.
[[nodiscard]] std::string describe_divergence(const Snapshot& stored,
                                              const Snapshot& live);

}  // namespace dct::ckpt
