#include "tomography/estimators.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <unordered_set>

#include "common/require.h"
#include "trace/snmp.h"

namespace dct {
namespace {

// Conjugate gradients for (A W A^T) lambda = rhs.  The operator is
// symmetric positive semidefinite and rhs lies in its range, so CG
// converges to a least-norm-ish solution; we stop on relative residual.
// A nonempty `mask` drops the masked measurement rows from the operator
// (their output components are pinned to zero, so lambda never grows
// support there); rhs must already be zero on masked rows, and the
// iteration then stays inside the valid subspace.  Nothing is allocated
// per iteration.
std::vector<double> solve_normal(const RoutingMatrix& r, const std::vector<double>& w,
                                 const std::vector<double>& rhs,
                                 const TomogravityOptions& opts,
                                 std::span<const std::uint8_t> mask) {
  const std::size_t links = rhs.size();
  std::vector<double> lambda(links, 0.0);
  std::vector<double> resid = rhs;
  std::vector<double> p = resid;
  std::vector<double> ap(links);
  double rr = 0;
  for (double v : resid) rr += v * v;
  const double rr0 = rr;
  if (rr0 == 0) return lambda;

  for (std::int32_t it = 0; it < opts.cg_iterations; ++it) {
    r.normal_matvec(w, p, ap, mask);
    double pap = 0;
    for (std::size_t i = 0; i < links; ++i) pap += p[i] * ap[i];
    if (pap <= 0) break;  // hit the operator's null space
    const double alpha = rr / pap;
    for (std::size_t i = 0; i < links; ++i) {
      lambda[i] += alpha * p[i];
      resid[i] -= alpha * ap[i];
    }
    double rr_new = 0;
    for (double v : resid) rr_new += v * v;
    if (rr_new <= opts.cg_tolerance * rr0) break;
    const double beta = rr_new / rr;
    for (std::size_t i = 0; i < links; ++i) p[i] = resid[i] + beta * p[i];
    rr = rr_new;
  }
  return lambda;
}

}  // namespace

namespace {

// Product prior + IPF from already-assembled per-ToR marginals.
DenseTorTm gravity_from_marginals(std::int32_t n, const std::vector<double>& out,
                                  const std::vector<double>& in) {
  double total = 0;
  for (double v : out) total += v;
  DenseTorTm g(n);
  if (total <= 0) return g;
  const auto un = static_cast<std::size_t>(n);
  std::vector<double> v(un * un, 0.0);  // row-major; the diagonal stays +0
  for (std::size_t i = 0; i < un; ++i) {
    for (std::size_t j = 0; j < un; ++j) {
      if (i != j) v[i * un + j] = out[i] * in[j] / total;
    }
  }
  // With a zero diagonal the raw product no longer reproduces the measured
  // marginals; a few rounds of iterative proportional fitting restore
  //   sum_j g_ij = out_i  and  sum_i g_ij = in_j.
  // A round is two row-major sweeps: scale the rows while summing the
  // columns, then scale the columns; the next round's row sums follow as
  // one strided sweep.  All row (column) sums thus run as independent
  // chains, and each still takes its terms in ascending order.  A sum
  // includes the diagonal's +0, which cannot change a sum that starts at
  // +0; a skipped column scales by exactly 1; the diagonal is re-zeroed
  // after each scaling.  So every entry is bit for bit the
  // off-diagonal-only, one-row-then-one-column-at-a-time fit.
  std::vector<double> row_sum(un, 0.0);
  std::vector<double> col_scale(un);
  const auto sum_rows = [&] {
    std::fill(row_sum.begin(), row_sum.end(), 0.0);
    for (std::size_t j = 0; j < un; ++j) {
      for (std::size_t i = 0; i < un; ++i) row_sum[i] += v[i * un + j];
    }
  };
  constexpr int kRounds = 25;
  sum_rows();
  for (int round = 0; round < kRounds; ++round) {
    std::fill(col_scale.begin(), col_scale.end(), 0.0);
    for (std::size_t i = 0; i < un; ++i) {
      double* row = &v[i * un];
      if (row_sum[i] > 0) {
        const double scale = out[i] / row_sum[i];
        for (std::size_t j = 0; j < un; ++j) row[j] *= scale;
        row[i] = 0.0;
      }
      for (std::size_t j = 0; j < un; ++j) col_scale[j] += row[j];
    }
    for (std::size_t j = 0; j < un; ++j) {
      col_scale[j] = col_scale[j] <= 0 ? 1.0 : in[j] / col_scale[j];
    }
    for (std::size_t i = 0; i < un; ++i) {
      double* row = &v[i * un];
      for (std::size_t j = 0; j < un; ++j) row[j] *= col_scale[j];
      row[i] = 0.0;
    }
    if (round + 1 < kRounds) sum_rows();
  }
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      if (i != j) g.set(i, j, v[static_cast<std::size_t>(i) * un + j]);
    }
  }
  return g;
}

}  // namespace

DenseTorTm gravity_prior(const RoutingMatrix& routing,
                         const std::vector<double>& link_loads) {
  require(link_loads.size() == static_cast<std::size_t>(routing.link_count()),
          "gravity_prior: load vector size mismatch");
  const std::int32_t n = routing.tor_count();
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  std::vector<double> in(static_cast<std::size_t>(n), 0.0);
  for (std::int32_t i = 0; i < n; ++i) {
    out[static_cast<std::size_t>(i)] =
        link_loads[static_cast<std::size_t>(routing.tor_up(i))];
    in[static_cast<std::size_t>(i)] =
        link_loads[static_cast<std::size_t>(routing.tor_down(i))];
  }
  return gravity_from_marginals(n, out, in);
}

DenseTorTm gravity_prior_masked(const RoutingMatrix& routing,
                                const std::vector<double>& link_loads,
                                const LinkLoadMask& mask) {
  require(link_loads.size() == static_cast<std::size_t>(routing.link_count()),
          "gravity_prior_masked: load vector size mismatch");
  require(mask.size() == link_loads.size(),
          "gravity_prior_masked: mask size mismatch");
  const std::int32_t n = routing.tor_count();
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  std::vector<double> in(static_cast<std::size_t>(n), 0.0);
  std::vector<std::uint8_t> out_ok(static_cast<std::size_t>(n), 0);
  std::vector<std::uint8_t> in_ok(static_cast<std::size_t>(n), 0);
  double out_sum = 0;
  double in_sum = 0;
  std::size_t out_n = 0;
  std::size_t in_n = 0;
  for (std::int32_t i = 0; i < n; ++i) {
    const auto up = static_cast<std::size_t>(routing.tor_up(i));
    const auto down = static_cast<std::size_t>(routing.tor_down(i));
    if (mask[up] != 0) {
      out[static_cast<std::size_t>(i)] = link_loads[up];
      out_ok[static_cast<std::size_t>(i)] = 1;
      out_sum += link_loads[up];
      ++out_n;
    }
    if (mask[down] != 0) {
      in[static_cast<std::size_t>(i)] = link_loads[down];
      in_ok[static_cast<std::size_t>(i)] = 1;
      in_sum += link_loads[down];
      ++in_n;
    }
  }
  // Unmeasured marginals get the mean of the measured ones: with no better
  // information, assume the blind ToR behaves like an average one.
  const double out_fill = out_n > 0 ? out_sum / static_cast<double>(out_n) : 0.0;
  const double in_fill = in_n > 0 ? in_sum / static_cast<double>(in_n) : 0.0;
  for (std::int32_t i = 0; i < n; ++i) {
    if (out_ok[static_cast<std::size_t>(i)] == 0) {
      out[static_cast<std::size_t>(i)] = out_fill;
    }
    if (in_ok[static_cast<std::size_t>(i)] == 0) {
      in[static_cast<std::size_t>(i)] = in_fill;
    }
  }
  return gravity_from_marginals(n, out, in);
}

namespace {

DenseTorTm tomogravity_impl(const RoutingMatrix& routing,
                            const std::vector<double>& link_loads,
                            std::span<const std::uint8_t> mask, const DenseTorTm& prior,
                            const TomogravityOptions& opts) {
  require(prior.size() == routing.tor_count(), "tomogravity: prior size mismatch");
  const std::int32_t n = routing.tor_count();
  const std::size_t odn = static_cast<std::size_t>(n) * n;

  // Relative-error weights: w = max(g, eps) so zero-prior entries stay
  // (nearly) pinned at zero.
  const double total = std::max(prior.total(), 1.0);
  const double eps = 1e-9 * total;
  std::vector<double> w(odn, 0.0);
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      if (i != j) {
        w[static_cast<std::size_t>(i) * n + j] = std::max(prior.at(i, j), eps);
      }
    }
  }

  // Projection with a divergence guard.  On a consistent system each round
  // shrinks the residual and the guard is inert.  Real measured loads can be
  // INconsistent with the routing model (SNMP quantization, carried-forward
  // timeout polls, traffic the rack-level paths do not explain); there the
  // normal-equation solve can push x away from every constraint and each
  // round compounds the overshoot.  Tracking the best-residual iterate (the
  // prior included) turns that failure mode into "return the best projection
  // found" instead of returning garbage.
  DenseTorTm x = prior;
  DenseTorTm best = prior;
  double best_norm = std::numeric_limits<double>::infinity();
  for (std::int32_t round = 0; round <= opts.projection_rounds; ++round) {
    // rhs = b - A x, with masked (unreliable) measurements dropped from the
    // constraint set entirely.
    const std::vector<double> ax = routing.link_loads(x);
    std::vector<double> rhs(link_loads.size());
    double rhs_norm = 0;
    for (std::size_t l = 0; l < rhs.size(); ++l) {
      rhs[l] = !mask.empty() && mask[l] == 0 ? 0.0 : link_loads[l] - ax[l];
      rhs_norm += rhs[l] * rhs[l];
    }
    if (rhs_norm < best_norm) {
      best = x;
      best_norm = rhs_norm;
    }
    if (round == opts.projection_rounds) break;  // last iterate evaluated
    if (rhs_norm <= 1e-16 * total * total) break;
    if (rhs_norm > 4.0 * best_norm) break;  // diverging; keep the best seen

    const std::vector<double> lambda = solve_normal(routing, w, rhs, opts, mask);
    const std::vector<double> delta = routing.adjoint(lambda);
    for (std::int32_t i = 0; i < n; ++i) {
      for (std::int32_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const std::size_t k = static_cast<std::size_t>(i) * n + j;
        x.set(i, j, std::max(0.0, x.at(i, j) + w[k] * delta[k]));
      }
    }
  }
  return best;
}

}  // namespace

DenseTorTm tomogravity(const RoutingMatrix& routing, const std::vector<double>& link_loads,
                       const DenseTorTm& prior, const TomogravityOptions& opts) {
  return tomogravity_impl(routing, link_loads, {}, prior, opts);
}

DenseTorTm tomogravity(const RoutingMatrix& routing, const std::vector<double>& link_loads,
                       const TomogravityOptions& opts) {
  return tomogravity(routing, link_loads, gravity_prior(routing, link_loads), opts);
}

LinkLoadMask reliable_link_mask(const RoutingMatrix& routing,
                                const SnmpCounters& counters, TimeSec t0,
                                TimeSec t1) {
  LinkLoadMask mask(static_cast<std::size_t>(routing.link_count()), 1);
  for (std::int32_t l = 0; l < routing.link_count(); ++l) {
    if (!counters.window_reliable(routing.link_at(l), t0, t1)) {
      mask[static_cast<std::size_t>(l)] = 0;
    }
  }
  return mask;
}

DenseTorTm tomogravity_masked(const RoutingMatrix& routing,
                              const std::vector<double>& link_loads,
                              const LinkLoadMask& mask, const DenseTorTm& prior,
                              const TomogravityOptions& opts) {
  require(mask.size() == link_loads.size(), "tomogravity_masked: mask size mismatch");
  return tomogravity_impl(routing, link_loads, mask, prior, opts);
}

DenseTorTm tomogravity_masked(const RoutingMatrix& routing,
                              const std::vector<double>& link_loads,
                              const LinkLoadMask& mask,
                              const TomogravityOptions& opts) {
  return tomogravity_masked(routing, link_loads, mask,
                            gravity_prior_masked(routing, link_loads, mask), opts);
}

std::vector<std::vector<double>> job_tor_activity(const ClusterTrace& trace,
                                                  const Topology& topo) {
  std::int32_t max_job = -1;
  for (const SocketFlowLog& f : trace.flows()) {
    if (f.job.valid()) max_job = std::max(max_job, f.job.value());
  }
  std::vector<std::vector<double>> activity(
      static_cast<std::size_t>(max_job + 1),
      std::vector<double>(static_cast<std::size_t>(topo.rack_count()), 0.0));
  // Distinct (job, server) participation.
  std::unordered_set<std::uint64_t> seen;
  auto mark = [&](JobId job, ServerId s) {
    if (topo.is_external(s)) return;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(job.value())) << 32) |
        static_cast<std::uint32_t>(s.value());
    if (!seen.insert(key).second) return;
    activity[static_cast<std::size_t>(job.value())]
            [static_cast<std::size_t>(topo.rack_of(s).value())] += 1.0;
  };
  for (const SocketFlowLog& f : trace.flows()) {
    if (!f.job.valid()) continue;
    mark(f.job, f.local);
    mark(f.job, f.peer);
  }
  return activity;
}

DenseTorTm job_augmented_prior(const RoutingMatrix& routing,
                               const std::vector<double>& link_loads,
                               const std::vector<std::vector<double>>& activity,
                               double alpha) {
  require(alpha >= 0, "job_augmented_prior: alpha must be >= 0");
  const DenseTorTm g = gravity_prior(routing, link_loads);
  const std::int32_t n = routing.tor_count();

  // overlap_ij = sum_k activity[k][i] * activity[k][j], built job by job
  // over each job's nonzero ToRs only.  Every term skipped has a zero
  // factor and a finite other one, so it is +-0, and adding +-0 cannot
  // change a sum that starts at +0: each sum is bit for bit the dense one,
  // still accumulated in ascending k.
  std::vector<double> overlap(static_cast<std::size_t>(n) * n, 0.0);
  std::vector<std::int32_t> active;
  for (const auto& a : activity) {
    require(a.size() == static_cast<std::size_t>(n),
            "job_augmented_prior: activity row size mismatch");
    active.clear();
    for (std::int32_t i = 0; i < n; ++i) {
      const double v = a[static_cast<std::size_t>(i)];
      require(std::isfinite(v), "job_augmented_prior: activity must be finite");
      if (v != 0) active.push_back(i);
    }
    for (std::int32_t i : active) {
      for (std::int32_t j : active) {
        if (i == j) continue;
        overlap[static_cast<std::size_t>(i) * n + j] +=
            a[static_cast<std::size_t>(i)] * a[static_cast<std::size_t>(j)];
      }
    }
  }
  DenseTorTm m(n);
  double m_total = 0;
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double v =
          g.at(i, j) * (1.0 + alpha * overlap[static_cast<std::size_t>(i) * n + j]);
      m.set(i, j, v);
      m_total += v;
    }
  }
  // Renormalize to the gravity total so the adjustment starts unbiased.
  const double g_total = g.total();
  if (m_total > 0 && g_total > 0) {
    const double scale = g_total / m_total;
    for (std::int32_t i = 0; i < n; ++i) {
      for (std::int32_t j = 0; j < n; ++j) {
        if (i != j) m.set(i, j, m.at(i, j) * scale);
      }
    }
  }
  return m;
}

DenseTorTm sparsity_max(const RoutingMatrix& routing, const std::vector<double>& link_loads,
                        const SparsityOptions& opts) {
  require(link_loads.size() == static_cast<std::size_t>(routing.link_count()),
          "sparsity_max: load vector size mismatch");
  // A NaN on every hop of a path would read as +inf assignable volume (the
  // min ignores it) and a NaN total would disable the stop test.
  for (std::int32_t m = 0; m < routing.link_count(); ++m) {
    if (!std::isfinite(link_loads[static_cast<std::size_t>(m)])) {
      throw Error("sparsity_max: load on link " +
                  std::to_string(routing.link_at(m).value()) + " is not finite");
    }
  }
  const std::int32_t n = routing.tor_count();
  DenseTorTm x(n);
  std::vector<double> resid = link_loads;
  double total = 0;
  for (double v : resid) total += v;
  if (total <= 0) return x;
  const double stop = opts.residual_fraction * total;
  const auto min = [](double a, double b) { return std::min(a, b); };

  std::int32_t entries = 0;
  for (;;) {
    // The OD pair that can absorb the most residual volume in one shot;
    // ties go to the first (i, j).
    double best = 0;
    std::int32_t bi = -1;
    std::int32_t bj = -1;
    routing.fold_paths(resid, std::numeric_limits<double>::infinity(), min,
                       [&](std::int32_t i, std::int32_t j, double assignable) {
                         if (assignable > best) {
                           best = assignable;
                           bi = i;
                           bj = j;
                         }
                       });
    if (bi < 0 || best <= 0) break;
    x.add(bi, bj, best);
    resid[static_cast<std::size_t>(routing.tor_up(bi))] -= best;
    const std::int32_t a = routing.agg_of(bi);
    const std::int32_t b = routing.agg_of(bj);
    if (a != b) {
      resid[static_cast<std::size_t>(routing.agg_up(a))] -= best;
      resid[static_cast<std::size_t>(routing.agg_down(b))] -= best;
    }
    resid[static_cast<std::size_t>(routing.tor_down(bj))] -= best;
    double remaining = 0;
    for (double v : resid) remaining += v;
    if (++entries >= opts.max_entries || remaining <= stop) break;
  }
  return x;
}

}  // namespace dct
