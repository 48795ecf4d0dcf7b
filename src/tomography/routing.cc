#include "tomography/routing.h"

#include <algorithm>
#include <functional>

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
  const auto measured = [&](LinkId l) {
    const std::int32_t m = measured_index(l);
    ensure(m >= 0, "unmeasured link on a ToR path");
    return m;
  };
  for (std::int32_t a = 0; a < topo.agg_count(); ++a) {
    agg_up_.push_back(measured(topo.agg_up_link(a)));
    agg_down_.push_back(measured(topo.agg_down_link(a)));
  }
  for (std::int32_t i = 0; i < n_; ++i) {
    const RackId r{i};
    tor_up_.push_back(measured(topo.tor_up_link(r)));
    tor_down_.push_back(measured(topo.tor_down_link(r)));
    agg_.push_back(topo.agg_of(r));
    if (blocks_.empty() || blocks_.back().agg != agg_.back()) {
      blocks_.push_back({i, i, agg_.back()});
    }
    ++blocks_.back().end;
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

// Row i's running sums live in registers: tor_up(i) takes row i alone,
// agg_up(agg_of(i)) is carried over that switch's rows, and agg_down(b) is
// carried over each of b's blocks in turn.  Each tor_down(j) is a column
// sum, taking row i's term after row i - 1's.  The four kinds of link are
// distinct, so no register shadows a slot the loop writes.
template <class Value>
void RoutingMatrix::scatter(std::span<double> v, Value value) const {
  std::fill(v.begin(), v.end(), 0.0);
  const std::int32_t* down_of = tor_down_.data();
  for (std::int32_t i = 0; i < n_; ++i) {
    const std::int32_t a = agg_of(i);
    double& up_slot = v[ux(agg_up(a))];
    double tor = 0.0;
    double up = up_slot;
    for (const Block& blk : blocks_) {
      const auto x = value(i, blk.agg);
      if (blk.agg == a) {
        for (std::int32_t j = blk.begin; j < blk.end; ++j) {
          if (j == i) continue;
          const std::int32_t l = down_of[j];
          const double xj = x(j, l);
          tor += xj;
          v[ux(l)] += xj;
        }
        continue;
      }
      double& down_slot = v[ux(agg_down(blk.agg))];
      double down = down_slot;
      for (std::int32_t j = blk.begin; j < blk.end; ++j) {
        const std::int32_t l = down_of[j];
        const double xj = x(j, l);
        tor += xj;
        up += xj;
        down += xj;
        v[ux(l)] += xj;
      }
      down_slot = down;
    }
    v[ux(tor_up(i))] = tor;
    up_slot = up;
  }
}

std::vector<double> RoutingMatrix::link_loads(const DenseTorTm& tm) const {
  require(tm.size() == n_, "link_loads: TM size mismatch");
  std::vector<double> b(static_cast<std::size_t>(link_count()));
  const std::vector<double>& x = tm.raw();
  scatter(b, [&](std::int32_t i, std::int32_t) {
    const double* row = x.data() + ux(i) * ux(n_);
    return [row](std::int32_t j, std::int32_t) { return row[j] <= 0 ? 0.0 : row[j]; };
  });
  return b;
}

std::vector<double> RoutingMatrix::adjoint(const std::vector<double>& lambda) const {
  require(lambda.size() == static_cast<std::size_t>(link_count()),
          "adjoint: size mismatch");
  std::vector<double> y(ux(n_) * ux(n_), 0.0);
  fold_paths(lambda, 0.0, std::plus<>{}, [&](std::int32_t i, std::int32_t j, double s) {
    y[ux(i) * ux(n_) + ux(j)] = s;
  });
  return y;
}

void RoutingMatrix::normal_matvec(std::span<const double> w, std::span<const double> u,
                                  std::span<double> v,
                                  std::span<const std::uint8_t> mask) const {
  const auto links = static_cast<std::size_t>(link_count());
  require(w.size() == ux(n_) * ux(n_) && u.size() == links && v.size() == links &&
              (mask.empty() || mask.size() == links),
          "normal_matvec: size mismatch");
  scatter(v, [&](std::int32_t i, std::int32_t b) {
    const double prefix = path_prefix(u, i, b, 0.0, std::plus<>{});
    const double* wi = w.data() + ux(i) * ux(n_);
    return [prefix, u, wi](std::int32_t j, std::int32_t down) {
      return (prefix + u[ux(down)]) * wi[j];
    };
  });
  for (std::size_t l = 0; l < mask.size(); ++l) {
    if (mask[l] == 0) v[l] = 0.0;
  }
}

}  // namespace dct
