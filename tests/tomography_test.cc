#include "tomography/estimators.h"
#include "tomography/metrics.h"
#include "tomography/routing.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "analysis/traffic_matrix.h"
#include "common/require.h"
#include "common/rng.h"

namespace dct {
namespace {

TopologyConfig topo_config(std::int32_t racks = 6) {
  TopologyConfig cfg;
  cfg.racks = racks;
  cfg.servers_per_rack = 4;
  cfg.racks_per_vlan = 2;
  cfg.agg_switches = 2;
  cfg.external_servers = 1;
  return cfg;
}

DenseTorTm random_tm(std::int32_t n, Rng& rng, double density = 0.4) {
  DenseTorTm tm(n);
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(density)) tm.set(i, j, rng.uniform(1.0, 100.0));
    }
  }
  return tm;
}

TEST(RoutingMatrix, PathsUseMeasuredLinksOnly) {
  Topology topo(topo_config());
  RoutingMatrix routing(topo);
  EXPECT_EQ(routing.tor_count(), 6);
  EXPECT_EQ(routing.link_count(), 6 * 2 + 2 * 2);
  for (std::int32_t i = 0; i < 6; ++i) {
    const RackId r{i};
    EXPECT_EQ(routing.agg_of(i), topo.agg_of(r));
    EXPECT_EQ(routing.link_at(routing.tor_up(i)), topo.tor_up_link(r));
    EXPECT_EQ(routing.link_at(routing.tor_down(i)), topo.tor_down_link(r));
  }
  for (std::int32_t a = 0; a < 2; ++a) {
    EXPECT_EQ(routing.link_at(routing.agg_up(a)), topo.agg_up_link(a));
    EXPECT_EQ(routing.link_at(routing.agg_down(a)), topo.agg_down_link(a));
  }
}

// Reference code for the factored kernels: every OD path listed
// explicitly, built from the topology rather than from RoutingMatrix's
// factored form.  n^2 rows of four hops (ToR up, agg up, agg down, ToR
// down); short and diagonal rows are padded with the sentinel index
// link_count(), whose input is +0 (+inf in a minimum) and whose output is
// dropped.  Each kernel below runs pair by pair over the table.
class PaddedTable {
 public:
  static constexpr std::size_t kWidth = 4;

  PaddedTable(const Topology& topo, const RoutingMatrix& routing)
      : n_(routing.tor_count()), sentinel_(routing.link_count()) {
    table_.assign(static_cast<std::size_t>(n_) * n_ * kWidth, sentinel_);
    for (std::int32_t i = 0; i < n_; ++i) {
      for (std::int32_t j = 0; j < n_; ++j) {
        if (i == j) continue;
        std::int32_t* row = &table_[(static_cast<std::size_t>(i) * n_ + j) * kWidth];
        const RackId ri{i};
        const RackId rj{j};
        std::size_t h = 0;
        row[h++] = routing.measured_index(topo.tor_up_link(ri));
        if (topo.agg_of(ri) != topo.agg_of(rj)) {
          row[h++] = routing.measured_index(topo.agg_up_link(topo.agg_of(ri)));
          row[h++] = routing.measured_index(topo.agg_down_link(topo.agg_of(rj)));
        }
        row[h++] = routing.measured_index(topo.tor_down_link(rj));
      }
    }
  }

  std::vector<double> link_loads(const DenseTorTm& tm) const {
    std::vector<double> b(static_cast<std::size_t>(sentinel_) + 1, 0.0);
    const std::vector<double>& x = tm.raw();
    for (std::size_t k = 0; k < x.size(); ++k) {
      if (x[k] <= 0) continue;
      for (std::size_t h = 0; h < kWidth; ++h) b[hop(k, h)] += x[k];
    }
    b.pop_back();
    return b;
  }

  std::vector<double> adjoint(const std::vector<double>& lambda) const {
    std::vector<double> u(lambda);
    u.push_back(0.0);
    std::vector<double> y(static_cast<std::size_t>(n_) * n_);
    for (std::size_t k = 0; k < y.size(); ++k) {
      double acc = 0;
      for (std::size_t h = 0; h < kWidth; ++h) acc += u[hop(k, h)];
      y[k] = acc;
    }
    return y;
  }

  std::vector<double> normal_matvec(const std::vector<double>& w, std::vector<double> u,
                                    const std::vector<std::uint8_t>& mask) const {
    u.push_back(0.0);
    std::vector<double> v(u.size(), 0.0);
    for (std::size_t k = 0; k < w.size(); ++k) {
      double acc = 0;
      for (std::size_t h = 0; h < kWidth; ++h) acc += u[hop(k, h)];
      const double x = acc * w[k];
      if (x == 0) continue;
      for (std::size_t h = 0; h < kWidth; ++h) v[hop(k, h)] += x;
    }
    v.pop_back();
    for (std::size_t l = 0; l < mask.size(); ++l) {
      if (mask[l] == 0) v[l] = 0.0;
    }
    return v;
  }

  DenseTorTm sparsity_max(const std::vector<double>& link_loads,
                          const SparsityOptions& opts) const {
    DenseTorTm x(n_);
    std::vector<double> resid = link_loads;
    double total = 0;
    for (double v : resid) total += v;
    if (total <= 0) return x;
    const double stop = opts.residual_fraction * total;
    resid.push_back(std::numeric_limits<double>::infinity());
    std::int32_t entries = 0;
    for (;;) {
      double best = 0;
      std::int32_t bi = -1;
      std::int32_t bj = -1;
      for (std::int32_t i = 0; i < n_; ++i) {
        for (std::int32_t j = 0; j < n_; ++j) {
          if (i == j) continue;
          const std::size_t k = static_cast<std::size_t>(i) * n_ + j;
          double assignable = std::numeric_limits<double>::infinity();
          for (std::size_t h = 0; h < kWidth; ++h) {
            assignable = std::min(assignable, resid[hop(k, h)]);
          }
          if (assignable > best) {
            best = assignable;
            bi = i;
            bj = j;
          }
        }
      }
      if (bi < 0 || best <= 0) break;
      x.add(bi, bj, best);
      const std::size_t k = static_cast<std::size_t>(bi) * n_ + bj;
      for (std::size_t h = 0; h < kWidth; ++h) {
        if (hop(k, h) < link_loads.size()) resid[hop(k, h)] -= best;
      }
      double remaining = 0;
      for (std::size_t l = 0; l < link_loads.size(); ++l) remaining += resid[l];
      if (++entries >= opts.max_entries || remaining <= stop) break;
    }
    return x;
  }

 private:
  std::size_t hop(std::size_t k, std::size_t h) const {
    return static_cast<std::size_t>(table_[k * kWidth + h]);
  }

  std::int32_t n_;
  std::int32_t sentinel_;
  std::vector<std::int32_t> table_;
};

void expect_same_bits(const std::vector<double>& got, const std::vector<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]), std::bit_cast<std::uint64_t>(want[k]))
        << what << " [" << k << "]: " << got[k] << " vs " << want[k];
  }
}

// Small integers make exact cancellations, and so signed zeros, common.
double signed_small(Rng& rng) {
  const double v = static_cast<double>(rng.uniform_int(-3, 3));
  return v == 0 && rng.bernoulli(0.5) ? -0.0 : v;
}

TEST(RoutingMatrix, FactoredKernelsMatchPaddedTable) {
  struct Shape {
    std::int32_t racks, racks_per_vlan, aggs;
    bool redundant;
  };
  const Shape shapes[] = {{25, 5, 2, false}, {75, 5, 6, false}, {6, 2, 1, false},
                          {7, 2, 3, false},  {8, 2, 2, true}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Shape& sh : shapes) {
    TopologyConfig cfg = topo_config(sh.racks);
    cfg.racks_per_vlan = sh.racks_per_vlan;
    cfg.agg_switches = sh.aggs;
    cfg.redundant_tor_uplinks = sh.redundant;
    const Topology topo(cfg);
    const RoutingMatrix routing(topo);
    const PaddedTable ref(topo, routing);
    const std::int32_t n = routing.tor_count();
    const auto links = static_cast<std::size_t>(routing.link_count());
    const auto odn = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
    for (std::uint64_t trial = 0; trial < 6; ++trial) {
      const std::string what = std::to_string(sh.racks) + "/" + std::to_string(sh.aggs) +
                               (sh.redundant ? "r" : "") + " trial " +
                               std::to_string(trial);
      Rng rng(100 + trial);
      const bool with_nan = trial % 2 == 1;

      // A x over +-0, negative, diagonal and (odd trials) NaN entries.
      DenseTorTm tm(n);
      for (std::int32_t i = 0; i < n; ++i) {
        for (std::int32_t j = 0; j < n; ++j) {
          tm.set(i, j, rng.bernoulli(0.5) ? signed_small(rng) : rng.uniform(0.0, 50.0));
        }
      }
      if (with_nan) tm.set(n - 1, 0, nan);
      expect_same_bits(routing.link_loads(tm), ref.link_loads(tm), "A x " + what);

      // A^T u and A W A^T u over +-0 and NaN inputs, zero and negative
      // weights, with and without a mask.
      std::vector<double> u(links);
      for (double& v : u) v = rng.bernoulli(0.7) ? signed_small(rng) : rng.uniform(-5.0, 5.0);
      if (with_nan) u[static_cast<std::size_t>(rng.uniform_int(0, std::int64_t(links) - 1))] = nan;
      expect_same_bits(routing.adjoint(u), ref.adjoint(u), "A^T u " + what);
      std::vector<double> w(odn);
      for (double& v : w) {
        v = rng.bernoulli(0.3) ? 0.0 : rng.bernoulli(0.2) ? -1.0 : rng.uniform(0.1, 4.0);
      }
      std::vector<std::uint8_t> mask(links);
      for (auto& m : mask) m = rng.bernoulli(0.8) ? 1 : 0;
      for (const bool masked : {false, true}) {
        const std::vector<std::uint8_t> m = masked ? mask : std::vector<std::uint8_t>{};
        std::vector<double> v(links, 7.0);  // stale contents are overwritten
        routing.normal_matvec(w, u, v, m);
        expect_same_bits(v, ref.normal_matvec(w, u, m),
                         std::string(masked ? "masked " : "") + "A W A^T u " + what);
      }

      // sparsity_max's argmax: integer loads make ties common; NaN loads
      // are rejected up front.
      std::vector<double> loads(links);
      for (double& v : loads) v = static_cast<double>(rng.uniform_int(0, 4)) * 10.0;
      SparsityOptions opts;
      opts.max_entries = 40;
      if (with_nan) {
        loads[static_cast<std::size_t>(routing.tor_up(0))] = nan;
        loads[static_cast<std::size_t>(routing.tor_down(n - 1))] = nan;
        EXPECT_THROW((void)sparsity_max(routing, loads, opts), Error) << what;
        continue;
      }
      expect_same_bits(sparsity_max(routing, loads, opts).raw(),
                       ref.sparsity_max(loads, opts).raw(), "sparsity_max " + what);
    }
  }
}

TEST(RoutingMatrix, OneRackTopologyEstimatesZero) {
  // A single ToR has no OD pair: every estimator returns the all-zero 1x1
  // matrix, as the zero-load paths do, whatever the loads say.
  TopologyConfig cfg = topo_config(1);
  cfg.agg_switches = 1;
  const Topology topo(cfg);
  const RoutingMatrix routing(topo);
  ASSERT_EQ(routing.tor_count(), 1);
  std::vector<double> loads(static_cast<std::size_t>(routing.link_count()), 5.0);
  const LinkLoadMask mask(loads.size(), 1);
  const std::vector<std::vector<double>> activity = {{3.0}};
  for (const DenseTorTm& est :
       {gravity_prior(routing, loads), tomogravity(routing, loads),
        tomogravity_masked(routing, loads, mask), job_augmented_prior(routing, loads, activity),
        sparsity_max(routing, loads)}) {
    ASSERT_EQ(est.size(), 1);
    EXPECT_EQ(est.total(), 0.0);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(est.at(0, 0)), 0u);
  }
}

TEST(RoutingMatrix, LinkLoadsMatchManualSum) {
  Topology topo(topo_config());
  RoutingMatrix routing(topo);
  DenseTorTm tm(6);
  tm.set(0, 1, 10);  // same agg: tor_up(0), tor_down(1)
  tm.set(0, 2, 5);   // cross agg
  const auto b = routing.link_loads(tm);
  EXPECT_DOUBLE_EQ(b[routing.measured_index(topo.tor_up_link(RackId{0}))], 15);
  EXPECT_DOUBLE_EQ(b[routing.measured_index(topo.tor_down_link(RackId{1}))], 10);
  EXPECT_DOUBLE_EQ(b[routing.measured_index(topo.tor_down_link(RackId{2}))], 5);
  EXPECT_DOUBLE_EQ(b[routing.measured_index(topo.agg_up_link(0))], 5);
}

TEST(RoutingMatrix, AdjointIsTransposed) {
  // <A x, y> == <x, A^T y> for random x, y.
  Topology topo(topo_config());
  RoutingMatrix routing(topo);
  Rng rng(3);
  const DenseTorTm x = random_tm(6, rng);
  std::vector<double> y(static_cast<std::size_t>(routing.link_count()));
  for (auto& v : y) v = rng.uniform(0.0, 1.0);

  const auto ax = routing.link_loads(x);
  double lhs = 0;
  for (std::size_t l = 0; l < y.size(); ++l) lhs += ax[l] * y[l];

  const auto aty = routing.adjoint(y);
  double rhs = 0;
  for (std::int32_t i = 0; i < 6; ++i) {
    for (std::int32_t j = 0; j < 6; ++j) {
      if (i != j) rhs += x.at(i, j) * aty[static_cast<std::size_t>(i) * 6 + j];
    }
  }
  EXPECT_NEAR(lhs, rhs, 1e-9 * std::max(1.0, std::fabs(lhs)));
}

TEST(GravityPrior, MarginalsMatchLinkLoads) {
  Topology topo(topo_config());
  RoutingMatrix routing(topo);
  Rng rng(5);
  const DenseTorTm truth = random_tm(6, rng);
  const auto b = routing.link_loads(truth);
  const DenseTorTm g = gravity_prior(routing, b);
  // Row sums of the gravity prior reproduce each ToR's uplink load.
  for (std::int32_t i = 0; i < 6; ++i) {
    double row = 0;
    for (std::int32_t j = 0; j < 6; ++j) {
      if (i != j) row += g.at(i, j);
    }
    const double out_i = b[routing.measured_index(topo.tor_up_link(RackId{i}))];
    EXPECT_NEAR(row, out_i, 1e-6 * std::max(1.0, out_i));
  }
  EXPECT_NEAR(g.total(), truth.total(), 1e-6 * truth.total());
}

TEST(Tomogravity, SatisfiesLinkConstraints) {
  Topology topo(topo_config());
  RoutingMatrix routing(topo);
  Rng rng(7);
  const DenseTorTm truth = random_tm(6, rng);
  const auto b = routing.link_loads(truth);
  const DenseTorTm est = tomogravity(routing, b);
  const auto b_est = routing.link_loads(est);
  double b_norm = 0;
  for (double v : b) b_norm = std::max(b_norm, std::fabs(v));
  for (std::size_t l = 0; l < b.size(); ++l) {
    EXPECT_NEAR(b_est[l], b[l], 1e-3 * std::max(1.0, b_norm));
  }
  // Estimates are non-negative.
  for (std::int32_t i = 0; i < 6; ++i) {
    for (std::int32_t j = 0; j < 6; ++j) {
      if (i != j) {
        EXPECT_GE(est.at(i, j), 0.0);
      }
    }
  }
}

TEST(Tomogravity, RecoversGravityConsistentTm) {
  // If the truth *is* a gravity TM, tomogravity should recover it nearly
  // exactly (its prior equals the truth and the adjustment is a no-op).
  Topology topo(topo_config());
  RoutingMatrix routing(topo);
  DenseTorTm truth(6);
  const double out[6] = {10, 20, 30, 5, 15, 20};
  const double in[6] = {20, 10, 25, 15, 10, 20};
  double total = 0;
  for (double v : out) total += v;
  for (std::int32_t i = 0; i < 6; ++i) {
    for (std::int32_t j = 0; j < 6; ++j) {
      if (i != j) truth.set(i, j, out[i] * in[j] / total);
    }
  }
  // A gravity matrix built this way has row sum out_i * (1 - in_i/total),
  // not out_i; feed tomogravity the loads of this matrix directly.
  const auto b = routing.link_loads(truth);
  const DenseTorTm est = tomogravity(routing, b);
  EXPECT_LT(rmsre(truth, est, 0.75), 0.15);
}

TEST(Tomogravity, PoorOnSparseClusteredTm) {
  // The paper's central negative result: gravity spreads traffic, so sparse
  // job-clustered TMs are estimated badly.
  Topology topo(topo_config(8));
  RoutingMatrix routing(topo);
  DenseTorTm truth(8);
  truth.set(0, 1, 100);
  truth.set(2, 3, 80);
  truth.set(4, 5, 120);
  const auto b = routing.link_loads(truth);
  const DenseTorTm est = tomogravity(routing, b);
  EXPECT_GT(rmsre(truth, est, 0.75), 0.3);
  // And the estimate is much denser than the truth.
  EXPECT_GT(est.nonzero_count(), truth.nonzero_count() * 3);
}

TEST(SparsityMax, ExplainsLoadsWithFewEntries) {
  Topology topo(topo_config(8));
  RoutingMatrix routing(topo);
  Rng rng(11);
  const DenseTorTm truth = random_tm(8, rng, 0.5);
  const auto b = routing.link_loads(truth);
  const DenseTorTm est = sparsity_max(routing, b);
  // The greedy MILP surrogate explains the bulk of the load.  It can strand
  // some residual when a link needed by every remaining OD pair exhausts
  // first (the exact MILP would not), so the bound is loose.
  const auto b_est = routing.link_loads(est);
  double total = 0, resid = 0;
  for (std::size_t l = 0; l < b.size(); ++l) {
    total += b[l];
    resid += std::fabs(b[l] - b_est[l]);
  }
  EXPECT_LT(resid, 0.25 * total);
  // Far sparser than the truth (the paper's Fig. 14 finding).
  EXPECT_LT(est.nonzero_count(), truth.nonzero_count());
}

TEST(SparsityMax, NeverOvershootsLinkLoads) {
  Topology topo(topo_config(8));
  RoutingMatrix routing(topo);
  Rng rng(13);
  const DenseTorTm truth = random_tm(8, rng, 0.5);
  const auto b = routing.link_loads(truth);
  const auto b_est = routing.link_loads(sparsity_max(routing, b));
  for (std::size_t l = 0; l < b.size(); ++l) {
    EXPECT_LE(b_est[l], b[l] + 1e-9);
  }
}

TEST(Sparsity, RejectsNonFiniteLoads) {
  // A NaN on every hop of an OD pair once made the greedy place +inf until
  // max_entries rounds had run; any non-finite load is now an error.
  Topology topo(topo_config(25));
  RoutingMatrix routing(topo);
  Rng rng(17);
  const auto good = routing.link_loads(random_tm(25, rng, 0.5));
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    auto loads = good;
    loads[static_cast<std::size_t>(routing.tor_up(0))] = bad;
    loads[static_cast<std::size_t>(routing.tor_down(1))] = bad;
    EXPECT_THROW((void)sparsity_max(routing, loads), Error) << bad;
  }
  EXPECT_NO_THROW((void)sparsity_max(routing, good));
}

TEST(JobPrior, SharpensTowardCoscheduledRacks) {
  Topology topo(topo_config());
  RoutingMatrix routing(topo);
  DenseTorTm truth(6);
  truth.set(0, 1, 100);
  truth.set(1, 0, 100);
  truth.set(2, 3, 100);
  truth.set(3, 2, 100);
  const auto b = routing.link_loads(truth);
  // One job spans racks 0,1; another spans racks 2,3.
  std::vector<std::vector<double>> activity = {{5, 5, 0, 0, 0, 0},
                                               {0, 0, 5, 5, 0, 0}};
  const DenseTorTm plain = gravity_prior(routing, b);
  const DenseTorTm aware = job_augmented_prior(routing, b, activity, 1.0);
  // The job-aware prior puts more mass on the true pairs than plain gravity.
  EXPECT_GT(aware.at(0, 1), plain.at(0, 1));
  EXPECT_LT(aware.at(0, 3), plain.at(0, 3));
  // And the adjusted estimate improves.
  const double err_plain = rmsre(truth, tomogravity(routing, b, plain), 0.75);
  const double err_aware = rmsre(truth, tomogravity(routing, b, aware), 0.75);
  EXPECT_LE(err_aware, err_plain + 1e-9);
}

TEST(JobPrior, RejectsMalformedActivity) {
  Topology topo(topo_config());
  RoutingMatrix routing(topo);
  Rng rng(3);
  const auto b = routing.link_loads(random_tm(6, rng));
  for (const double bad : {std::nan(""), HUGE_VAL}) {
    const std::vector<std::vector<double>> activity = {{1, 0, bad, 0, 0, 0}};
    EXPECT_THROW((void)job_augmented_prior(routing, b, activity), Error);
  }
  const std::vector<std::vector<double>> short_row = {{1, 2, 3}};
  EXPECT_THROW((void)job_augmented_prior(routing, b, short_row), Error);
}

TEST(Metrics, VolumeThresholdAndRmsre) {
  DenseTorTm truth(3);
  truth.set(0, 1, 70);
  truth.set(1, 2, 20);
  truth.set(2, 0, 10);
  EXPECT_DOUBLE_EQ(volume_threshold(truth, 0.70), 70.0);
  EXPECT_DOUBLE_EQ(volume_threshold(truth, 0.75), 20.0);
  DenseTorTm est(3);
  est.set(0, 1, 35);  // 50% relative error on the one entry above T(0.70)
  EXPECT_DOUBLE_EQ(rmsre(truth, est, 0.70), 0.5);
  // With both entries in scope: sqrt((0.25 + 1) / 2).
  est.set(1, 2, 0);
  EXPECT_NEAR(rmsre(truth, est, 0.75), std::sqrt((0.25 + 1.0) / 2.0), 1e-12);
}

TEST(Metrics, SparsityFraction) {
  DenseTorTm tm(4);
  tm.set(0, 1, 90);
  tm.set(1, 2, 5);
  tm.set(2, 3, 5);
  // 75% of volume is covered by the single largest entry; 12 OD pairs.
  EXPECT_NEAR(sparsity_fraction(tm, 0.75), 1.0 / 12.0, 1e-12);
}

TEST(Metrics, HeavyHitterOverlap) {
  DenseTorTm truth(4);
  truth.set(0, 1, 100);
  truth.set(1, 2, 90);
  truth.set(2, 3, 1);
  DenseTorTm est(4);
  est.set(0, 1, 50);   // hits a true heavy entry
  est.set(3, 0, 500);  // misses
  EXPECT_EQ(heavy_hitter_overlap(truth, est, 2, 0.8), 1u);
}

TEST(DenseTorTmConversion, FromSparse) {
  SparseTm sparse(3);
  sparse.add(0, 1, 5);
  sparse.add(1, 1, 7);  // diagonal dropped by conversion
  const auto dense = DenseTorTm::from_sparse(sparse);
  EXPECT_DOUBLE_EQ(dense.at(0, 1), 5);
  EXPECT_DOUBLE_EQ(dense.total(), 5);
}

}  // namespace
}  // namespace dct
