#include "ckpt/snapshot.h"

#include "common/require.h"
#include "trace/codec.h"

namespace dct::ckpt {
namespace {

constexpr std::uint8_t kMagic[4] = {'D', 'S', 'N', 'P'};
constexpr std::uint8_t kVersion = 3;
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 1;
// Header plus the eleven u64 fields; the 8-byte trailer follows.
constexpr std::size_t kBodyBytes = kHeaderBytes + 11 * 8;

void put_u64(ByteWriter& w, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) w.u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t get_u64(ByteReader& r) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(r.u8()) << (8 * i);
  return v;
}

std::string digest_mismatch(const char* section, std::uint64_t stored,
                            std::uint64_t live) {
  return std::string(section) + " section differs (stored digest " +
         std::to_string(stored) + ", replayed " + std::to_string(live) + ")";
}

}  // namespace

std::vector<std::uint8_t> encode_snapshot(const Snapshot& s) {
  ByteWriter w;
  for (std::uint8_t m : kMagic) w.u8(m);
  w.u8(kVersion);
  put_u64(w, s.fingerprint);
  put_u64(w, s.id);
  put_u64(w, static_cast<std::uint64_t>(s.sim_time_us));
  put_u64(w, s.resume_count);
  put_u64(w, s.wal_records);
  put_u64(w, s.wal_bytes);
  put_u64(w, s.wal_hash);
  put_u64(w, s.flowsim);
  put_u64(w, s.workload);
  put_u64(w, s.faults);
  put_u64(w, s.obs);
  const std::uint64_t checksum = fnv1a(kFnvOffset, w.bytes());
  put_u64(w, checksum);
  return w.take();
}

Snapshot decode_snapshot(std::span<const std::uint8_t> data) {
  require(data.size() >= kHeaderBytes + 8, "decode_snapshot: payload too short");
  // Verify the trailer first: a torn or bit-flipped snapshot must be
  // rejected as a unit, never half-decoded.
  const auto body = data.subspan(0, data.size() - 8);
  ByteReader tail(data.subspan(data.size() - 8));
  require(fnv1a(kFnvOffset, body) == get_u64(tail),
          "decode_snapshot: checksum mismatch (torn or corrupt snapshot)");
  ByteReader r(body);
  for (std::uint8_t m : kMagic) {
    require(r.u8() == m, "decode_snapshot: bad magic");
  }
  require(r.u8() == kVersion, "decode_snapshot: unsupported version");
  require(body.size() >= kBodyBytes, "decode_snapshot: truncated");
  Snapshot s;
  s.fingerprint = get_u64(r);
  s.id = get_u64(r);
  s.sim_time_us = static_cast<std::int64_t>(get_u64(r));
  s.resume_count = get_u64(r);
  s.wal_records = get_u64(r);
  s.wal_bytes = get_u64(r);
  s.wal_hash = get_u64(r);
  s.flowsim = get_u64(r);
  s.workload = get_u64(r);
  s.faults = get_u64(r);
  s.obs = get_u64(r);
  require(r.done(), "decode_snapshot: trailing bytes");
  return s;
}

std::string describe_divergence(const Snapshot& stored, const Snapshot& live) {
  if (stored.sim_time_us != live.sim_time_us) {
    return "sim clock: stored " + std::to_string(stored.sim_time_us) +
           "us, replayed " + std::to_string(live.sim_time_us) + "us";
  }
  if (stored.flowsim != live.flowsim) {
    return digest_mismatch("flowsim", stored.flowsim, live.flowsim);
  }
  if (stored.workload != live.workload) {
    return digest_mismatch("workload", stored.workload, live.workload);
  }
  if (stored.faults != live.faults) {
    return digest_mismatch("faults", stored.faults, live.faults);
  }
  if (stored.obs != live.obs) return digest_mismatch("obs", stored.obs, live.obs);
  if (stored.wal_records != live.wal_records) {
    return "WAL record count: stored " + std::to_string(stored.wal_records) +
           ", replayed " + std::to_string(live.wal_records);
  }
  if (stored.wal_hash != live.wal_hash) return "WAL record-chain hash differs";
  return "";
}

}  // namespace dct::ckpt
