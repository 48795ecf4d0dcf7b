#include "tomography/routing.h"

#include <algorithm>

#include "analysis/traffic_matrix.h"
#include "common/require.h"

namespace dct {

double DenseTorTm::total() const {
  double t = 0;
  for (std::int32_t i = 0; i < n_; ++i) {
    for (std::int32_t j = 0; j < n_; ++j) {
      if (i != j) t += at(i, j);
    }
  }
  return t;
}

std::size_t DenseTorTm::nonzero_count() const {
  std::size_t c = 0;
  for (std::int32_t i = 0; i < n_; ++i) {
    for (std::int32_t j = 0; j < n_; ++j) {
      if (i != j && at(i, j) > 0) ++c;
    }
  }
  return c;
}

std::size_t DenseTorTm::entries_for_volume(double volume_fraction) const {
  require(volume_fraction > 0 && volume_fraction <= 1,
          "entries_for_volume: fraction must be in (0,1]");
  std::vector<double> vals;
  for (std::int32_t i = 0; i < n_; ++i) {
    for (std::int32_t j = 0; j < n_; ++j) {
      if (i != j && at(i, j) > 0) vals.push_back(at(i, j));
    }
  }
  if (vals.empty()) return 0;
  std::sort(vals.begin(), vals.end(), std::greater<>());
  double total = 0;
  for (double v : vals) total += v;
  const double target = volume_fraction * total;
  double acc = 0;
  std::size_t count = 0;
  for (double v : vals) {
    acc += v;
    ++count;
    if (acc >= target) break;
  }
  return count;
}

DenseTorTm DenseTorTm::from_sparse(const SparseTm& tm) {
  DenseTorTm out(tm.size());
  for (const auto& e : tm.entries()) {
    if (e.from != e.to) out.add(e.from, e.to, e.bytes);
  }
  return out;
}

RoutingMatrix::RoutingMatrix(const Topology& topo) : n_(topo.rack_count()) {
  // Measured links: every inter-switch link, densely re-indexed.
  measured_of_link_.assign(static_cast<std::size_t>(topo.link_count()), -1);
  for (LinkId l : topo.inter_switch_links()) {
    measured_of_link_[static_cast<std::size_t>(l.value())] =
        static_cast<std::int32_t>(link_ids_.size());
    link_ids_.push_back(l);
  }

  // A path is ToR up, then agg up and agg down when the ToRs hang off
  // different aggregation switches, then ToR down.
  const auto crosses_agg = [&](std::int32_t i, std::int32_t j) {
    return topo.agg_of(RackId{i}) != topo.agg_of(RackId{j});
  };
  table_.assign(static_cast<std::size_t>(n_) * n_ * kPathWidth, link_count());
  for (std::int32_t i = 0; i < n_; ++i) {
    for (std::int32_t j = 0; j < n_; ++j) {
      if (i == j) continue;
      std::int32_t* row = &table_[(static_cast<std::size_t>(i) * n_ + j) * kPathWidth];
      const RackId ri{i};
      const RackId rj{j};
      std::size_t h = 0;
      row[h++] = measured_index(topo.tor_up_link(ri));
      if (crosses_agg(i, j)) {
        row[h++] = measured_index(topo.agg_up_link(topo.agg_of(ri)));
        row[h++] = measured_index(topo.agg_down_link(topo.agg_of(rj)));
      }
      row[h++] = measured_index(topo.tor_down_link(rj));
      for (std::size_t k = 0; k < h; ++k) {
        ensure(row[k] >= 0, "unmeasured link on a ToR path");
      }
    }
  }
}

std::int32_t RoutingMatrix::measured_index(LinkId l) const {
  require(l.valid() &&
              static_cast<std::size_t>(l.value()) < measured_of_link_.size(),
          "measured_index: link out of range");
  return measured_of_link_[static_cast<std::size_t>(l.value())];
}

LinkId RoutingMatrix::link_at(std::int32_t measured) const {
  require(measured >= 0 && measured < link_count(), "link_at: out of range");
  return link_ids_[static_cast<std::size_t>(measured)];
}

std::span<const std::int32_t> RoutingMatrix::path(std::int32_t i, std::int32_t j) const {
  require(i >= 0 && i < n_ && j >= 0 && j < n_ && i != j, "path: bad OD pair");
  const auto row = path_table().subspan(
      (static_cast<std::size_t>(i) * n_ + j) * kPathWidth, kPathWidth);
  return row.first(static_cast<std::size_t>(
      std::find(row.begin(), row.end(), link_count()) - row.begin()));
}

// Both kernels scan every row, the diagonal's included: its hops are all
// sentinel, so a diagonal entry lands only in the discarded slot and a
// diagonal sum is +0.
std::vector<double> RoutingMatrix::link_loads(const DenseTorTm& tm) const {
  require(tm.size() == n_, "link_loads: TM size mismatch");
  std::vector<double> b(static_cast<std::size_t>(link_count()) + 1, 0.0);
  const std::vector<double>& x = tm.raw();
  for (std::size_t k = 0; k < x.size(); ++k) {
    if (x[k] <= 0) continue;
    const std::int32_t* hop = table_.data() + k * kPathWidth;
#pragma GCC unroll 4
    for (std::size_t h = 0; h < kPathWidth; ++h) b[static_cast<std::size_t>(hop[h])] += x[k];
  }
  b.pop_back();  // the sentinel's slot
  return b;
}

std::vector<double> RoutingMatrix::adjoint(const std::vector<double>& lambda) const {
  require(lambda.size() == static_cast<std::size_t>(link_count()),
          "adjoint: size mismatch");
  std::vector<double> u(lambda);
  u.push_back(0.0);  // the sentinel reads +0
  std::vector<double> y(static_cast<std::size_t>(n_) * n_);
  for (std::size_t k = 0; k < y.size(); ++k) {
    const std::int32_t* hop = table_.data() + k * kPathWidth;
    double acc = 0;
#pragma GCC unroll 4
    for (std::size_t h = 0; h < kPathWidth; ++h) acc += u[static_cast<std::size_t>(hop[h])];
    y[k] = acc;
  }
  return y;
}

}  // namespace dct
