#include "common/timeseries.h"

#include <algorithm>
#include <cmath>

#include "common/require.h"

namespace dct {

BinnedSeries::BinnedSeries(double t0, double bin_width, std::size_t bins)
    : t0_(t0), width_(bin_width), values_(bins, 0.0) {
  require(bin_width > 0.0, "BinnedSeries: bin width must be > 0");
  require(bins >= 1, "BinnedSeries: need at least one bin");
}

std::size_t BinnedSeries::bin_of(double t) const noexcept {
  const double rel = (t - t0_) / width_;
  if (rel < 0) return values_.size();
  return std::min(static_cast<std::size_t>(rel), values_.size());
}

void BinnedSeries::add_point(double t, double amount) {
  const std::size_t idx = bin_of(t);
  if (idx < values_.size()) values_[idx] += amount;
}

void BinnedSeries::add_interval(double start, double end, double amount) {
  require(end >= start, "add_interval: end must be >= start");
  for_each_share(start, end, amount, [this](std::size_t i, double share) { values_[i] += share; });
}

double BinnedSeries::bin_time(std::size_t i) const {
  require(i < values_.size(), "BinnedSeries: bin out of range");
  return t0_ + static_cast<double>(i) * width_;
}

double BinnedSeries::value(std::size_t i) const {
  require(i < values_.size(), "BinnedSeries: bin out of range");
  return values_[i];
}

BinnedSeries BinnedSeries::to_rate() const {
  BinnedSeries out = *this;
  for (auto& v : out.values_) v /= width_;
  return out;
}

void BinnedSeries::add_series(const BinnedSeries& other) {
  require(other.t0_ == t0_ && other.width_ == width_ &&
              other.values_.size() == values_.size(),
          "add_series: shape mismatch");
  for (std::size_t i = 0; i < values_.size(); ++i) values_[i] += other.values_[i];
}

BinnedSeries BinnedSeries::coarsen(std::size_t factor) const {
  require(factor >= 1, "coarsen: factor must be >= 1");
  const std::size_t out_bins = (values_.size() + factor - 1) / factor;
  BinnedSeries out(t0_, width_ * static_cast<double>(factor), out_bins);
  for (std::size_t i = 0; i < values_.size(); ++i) out.values_[i / factor] += values_[i];
  return out;
}

std::vector<ThresholdEpisode> episodes_above(const BinnedSeries& series, double threshold) {
  std::vector<ThresholdEpisode> out;
  std::size_t i = 0;
  const std::size_t n = series.bin_count();
  while (i < n) {
    if (series.value(i) < threshold) {
      ++i;
      continue;
    }
    std::size_t j = i;
    double peak = series.value(i);
    double sum = 0;
    while (j < n && series.value(j) >= threshold) {
      peak = std::max(peak, series.value(j));
      sum += series.value(j);
      ++j;
    }
    const double start = series.bin_time(i);
    const double end = series.bin_time(j - 1) + series.bin_width();
    out.push_back({start, end, peak, sum / static_cast<double>(j - i), j - i});
    i = j;
  }
  return out;
}

}  // namespace dct
