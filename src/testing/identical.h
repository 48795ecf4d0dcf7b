// Bit-identity comparators for the parallel analysis paths.
//
// The determinism contract (docs/PERFORMANCE.md) promises that every
// shard-parallel result equals the serial one bit for bit at any thread
// count.  tests/parallel_test.cc and bench/parallel_scaling.cpp both check
// it through these comparators; doubles compare by bit pattern, so -0.0
// differs from +0.0 and a NaN equals only the same NaN.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "analysis/congestion.h"
#include "analysis/traffic_matrix.h"
#include "common/histogram.h"
#include "common/timeseries.h"

namespace dct::testing {

inline bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

inline bool series_identical(const BinnedSeries& a, const BinnedSeries& b) {
  if (a.bin_count() != b.bin_count()) return false;
  for (std::size_t i = 0; i < a.bin_count(); ++i) {
    if (!bits_equal(a.value(i), b.value(i))) return false;
  }
  return true;
}

inline bool tm_series_identical(const std::vector<SparseTm>& a,
                                const std::vector<SparseTm>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), SparseTm::identical);
}

/// Same sample count and the same 21 quantiles p = 0, 0.05, ..., 1.
inline bool cdf_identical(const Cdf& a, const Cdf& b) {
  if (a.sample_count() != b.sample_count()) return false;
  if (a.empty()) return true;
  for (int i = 0; i <= 20; ++i) {
    const double p = static_cast<double>(i) / 20.0;
    if (!bits_equal(a.quantile(p), b.quantile(p))) return false;
  }
  return true;
}

inline bool utilization_identical(const LinkUtilizationMap& a,
                                  const LinkUtilizationMap& b) {
  return std::equal(a.per_link.begin(), a.per_link.end(), b.per_link.begin(),
                    b.per_link.end(), series_identical);
}

/// Every episode, headline number and the hot-links series.
inline bool congestion_identical(const CongestionReport& a, const CongestionReport& b) {
  const auto same_link = [](const LinkCongestion& la, const LinkCongestion& lb) {
    return la.link == lb.link &&
           std::equal(la.episodes.begin(), la.episodes.end(), lb.episodes.begin(),
                      lb.episodes.end(), [](const auto& ea, const auto& eb) {
                        return bits_equal(ea.start, eb.start) &&
                               bits_equal(ea.end, eb.end) && bits_equal(ea.peak, eb.peak);
                      });
  };
  return std::equal(a.inter_switch.begin(), a.inter_switch.end(), b.inter_switch.begin(),
                    b.inter_switch.end(), same_link) &&
         a.episodes_over_1s == b.episodes_over_1s &&
         a.episodes_over_10s == b.episodes_over_10s &&
         bits_equal(a.longest_episode, b.longest_episode) &&
         bits_equal(a.frac_links_hot_10s, b.frac_links_hot_10s) &&
         a.episode_durations.size() == b.episode_durations.size() &&
         series_identical(a.hot_links_over_time, b.hot_links_over_time);
}

}  // namespace dct::testing
