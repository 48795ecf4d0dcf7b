// 64-bit FNV-1a, the one hash behind every checksum and identity digest in
// the library: snapshot trailers and state digests, WAL frame and chain
// hashes, scenario fingerprints and the fault/telemetry schedule hashes
// recorded in run manifests.  Those values are persisted or compared across
// runs, so the byte order each fold uses is part of their formats.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string_view>

namespace dct {

/// FNV-1a 64-bit offset basis and prime.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Seed of the fault and telemetry schedule hashes.  It is not the offset
/// basis: it is 14695981039346656037 with the last digit dropped.  The
/// hashes recorded in run manifests were taken from this seed, so it stays.
inline constexpr std::uint64_t kScheduleHashSeed = 1469598103934665603ULL;

/// Folds `data` into a running FNV-1a hash.
[[nodiscard]] inline std::uint64_t fnv1a(std::uint64_t h,
                                         std::span<const std::uint8_t> data) noexcept {
  for (std::uint8_t b : data) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

/// Incremental FNV-1a over typed values.  Integers fold as 8 little-endian
/// bytes, doubles as their IEEE-754 bit pattern, strings as their length
/// then their bytes.
class Fnv1a {
 public:
  explicit Fnv1a(std::uint64_t seed = kFnvOffset) noexcept : h_(seed) {}

  Fnv1a& u64(std::uint64_t v) noexcept {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    h_ = fnv1a(h_, b);
    return *this;
  }
  /// Signed values fold as their two's-complement bits.
  Fnv1a& i64(std::int64_t v) noexcept { return u64(static_cast<std::uint64_t>(v)); }
  Fnv1a& f64(double v) noexcept { return u64(std::bit_cast<std::uint64_t>(v)); }
  Fnv1a& flag(bool b) noexcept { return u64(b ? 1 : 0); }
  Fnv1a& str(std::string_view s) noexcept {
    u64(s.size());
    h_ = fnv1a(h_, {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_;
};

}  // namespace dct
