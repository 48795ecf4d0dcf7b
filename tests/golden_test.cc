// Golden-shape regression test for the canonical scenario.
//
// Locks the paper-facing shape statistics of the canonical workload into
// ranges, so an innocent-looking change to placement, the block store or
// the simulator that silently breaks a reproduced figure fails CI here
// rather than in a human's reading of bench output.  Ranges are generous
// (they must hold across seeds and platforms); the benches print the
// precise values.
#include <gtest/gtest.h>

#include "analysis/congestion.h"
#include "analysis/flowstats.h"
#include "analysis/traffic_matrix.h"
#include "ckpt/snapshot.h"
#include "common/fnv.h"
#include "common/stats.h"
#include "core/experiment.h"
#include "tomography/estimators.h"
#include "tomography/routing.h"
#include "trace/codec.h"

namespace dct {
namespace {

struct GoldenRun {
  GoldenRun() : exp(scenarios::canonical(300.0, 42)) { exp.run(); }
  ClusterExperiment exp;
};

GoldenRun& golden() {
  static GoldenRun run;
  return run;
}

TEST(Golden, WorkloadScale) {
  auto& exp = golden().exp;
  EXPECT_GT(exp.trace().flow_count(), 20'000u);
  EXPECT_GT(exp.workload_stats().jobs_completed, 200);
  EXPECT_LT(exp.workload_stats().jobs_failed,
            exp.workload_stats().jobs_completed / 5);
}

TEST(Golden, Fig3ZeroEntryProbabilities) {
  auto& exp = golden().exp;
  const auto tm = build_tm(exp.trace(), exp.topology(), 150.0, 10.0, TmScope::kServer);
  const auto stats = pair_bytes_stats(tm, exp.topology());
  // Paper: ~89% same-rack, ~99.5% cross-rack.
  EXPECT_GT(stats.prob_zero_within_rack, 0.80);
  EXPECT_LT(stats.prob_zero_within_rack, 0.99);
  EXPECT_GT(stats.prob_zero_across_racks, 0.97);
  // The locality ordering is the core claim.
  EXPECT_LT(stats.prob_zero_within_rack, stats.prob_zero_across_racks);
}

TEST(Golden, Fig4CorrespondentMedians) {
  auto& exp = golden().exp;
  const auto tm = build_tm(exp.trace(), exp.topology(), 150.0, 10.0, TmScope::kServer);
  const auto stats = correspondent_stats(tm, exp.topology());
  // Paper: 2 in-rack / 4 out-of-rack; allow generous bands.
  EXPECT_LE(stats.median_within, 6.0);
  EXPECT_LE(stats.median_across, 15.0);
}

TEST(Golden, Fig5CongestionIsWidespreadButOrdered) {
  auto& exp = golden().exp;
  const auto r70 = congestion_report(exp.utilization(), exp.topology(), 0.7);
  const auto r95 = congestion_report(exp.utilization(), exp.topology(), 0.95);
  // Paper: most inter-switch links see >= 10 s of congestion; a minority
  // see >= 100 s; higher thresholds see less.
  EXPECT_GT(r70.frac_links_hot_10s, 0.3);
  EXPECT_GT(r70.frac_links_hot_10s, r70.frac_links_hot_100s);
  EXPECT_GE(r70.frac_links_hot_10s, r95.frac_links_hot_10s);
  EXPECT_GT(r70.episodes_over_10s, 0u);
}

TEST(Golden, Fig9FlowDurationShape) {
  auto& exp = golden().exp;
  const auto stats = flow_duration_stats(exp.trace());
  // Paper: >80% of flows < 10 s; <0.1% > 200 s (we allow <1%); most bytes
  // in short flows.
  EXPECT_GT(stats.frac_flows_under_10s, 0.8);
  EXPECT_LT(stats.frac_flows_over_200s, 0.01);
  EXPECT_GT(stats.by_bytes.at(25.0), 0.5);
}

TEST(Golden, Fig10TmChurnIsLarge) {
  auto& exp = golden().exp;
  const auto tms = build_tm_series(exp.trace(), exp.topology(), 10.0, TmScope::kServer);
  const auto changes = tm_change_series(tms);
  ASSERT_GT(changes.size(), 5u);
  double median_change = quantile(changes, 0.5);
  EXPECT_GT(median_change, 0.5);  // "the traffic mix changes frequently"
}

TEST(Golden, Fig11StopAndGoPeriodicity) {
  auto& exp = golden().exp;
  const auto server =
      inter_arrival_stats(exp.trace(), exp.topology(), ArrivalScope::kServer);
  const auto p = inter_arrival_periodicity(server);
  EXPECT_GT(p.score, 0.3);
  EXPECT_GT(p.best_lag_ms, 10.0);
  EXPECT_LT(p.best_lag_ms, 45.0);
}

TEST(Golden, WorkSeeksBandwidthHoldsRelativeToRandom) {
  auto& exp = golden().exp;
  const auto tm = build_tm(exp.trace(), exp.topology(), 150.0, 10.0, TmScope::kServer);
  const auto lb = locality_breakdown(tm, exp.topology());
  // Under uniform-random endpoints, same-rack share would be
  // (servers_per_rack-1)/(internal-1) ~ 3.8%.  Locality placement must
  // beat that by an order of magnitude.
  EXPECT_GT(lb.frac_same_rack, 0.15);
}

// Bit-exact trajectory digests: FNV-1a over the encoded trace, and over
// every link's utilization-byte series in link-id order.  These pin the
// simulator's output to the last bit, so a change meant to be a pure
// speed-up (same results) proves it here.  Re-derive them only on an
// intended re-baseline (docs/TESTING.md).
struct Digest {
  std::size_t flows = 0;
  std::int64_t jobs = 0;
  std::uint64_t trace = 0;
  std::uint64_t links = 0;
};

Digest digest_of(const ClusterExperiment& exp) {
  Digest d;
  d.flows = exp.trace().flow_count();
  d.jobs = exp.workload_stats().jobs_submitted;
  d.trace = ckpt::fnv1a(ckpt::kFnvOffset, encode_trace(exp.trace()));
  d.links = ckpt::kFnvOffset;
  for (std::int32_t l = 0; l < exp.topology().link_count(); ++l) {
    const auto& v = exp.sim().link_bytes(LinkId{l}).values();
    d.links = ckpt::fnv1a(
        d.links, std::span(reinterpret_cast<const std::uint8_t*>(v.data()),
                           v.size() * sizeof(double)));
  }
  return d;
}

Digest run_digest(ScenarioConfig cfg) {
  ClusterExperiment exp(std::move(cfg));
  exp.run();
  return digest_of(exp);
}

void expect_digest(const Digest& got, std::size_t flows, std::int64_t jobs,
                   std::uint64_t trace, std::uint64_t links) {
  EXPECT_EQ(got.flows, flows);
  EXPECT_EQ(got.jobs, jobs);
  EXPECT_EQ(got.trace, trace) << std::hex << "trace fnv 0x" << got.trace;
  EXPECT_EQ(got.links, links) << std::hex << "link fnv 0x" << got.links;
}

TEST(Golden, TrajectoryDigest) {
  expect_digest(digest_of(golden().exp), 51759, 654, 0xa107349b01f71d72ULL,
                0x99c749359bd3efeeULL);
  expect_digest(run_digest(scenarios::fault_storm(120.0, 3)), 19907, 255,
                0xa32541057c251f59ULL, 0x797f379d51601525ULL);
  expect_digest(run_digest(scenarios::gray_failure(120.0, 5)), 26024, 319,
                0x2f401375f56e3868ULL, 0x9698a7f9eb5ad0bbULL);
  ScenarioConfig exact = scenarios::tiny(60.0, 1);
  exact.sim.recompute_interval = 0.0;
  expect_digest(run_digest(std::move(exact)), 899, 16, 0x1cec2f27f6f39d46ULL,
                0xea58e0c997c992e6ULL);
}

// Bit-exact tomography digests: FNV-1a over the raw doubles every §5
// estimator returns, over each 10 s ToR window of the golden run.  One
// digest per output, so a failure names the kernel that changed.  The
// masked estimators run on a fixed mask (every 11th measured link dropped)
// that no bench takes.  Re-derive only on an intended re-baseline.
TEST(Golden, TomographyDigest) {
  auto& exp = golden().exp;
  const RoutingMatrix routing(exp.topology());
  const auto activity = job_tor_activity(exp.trace(), exp.topology());
  LinkLoadMask mask(static_cast<std::size_t>(routing.link_count()), 1);
  for (std::size_t l = 4; l < mask.size(); l += 11) mask[l] = 0;

  enum { kLoads, kAdjoint, kGravity, kTomogravity, kJobPrior, kJobEst,
         kMaskedGravity, kMaskedEst, kSparsity, kOutputs };
  std::vector<Fnv1a> h(kOutputs);
  auto fold = [&](int out, const std::vector<double>& v) {
    for (double x : v) h[static_cast<std::size_t>(out)].f64(x);
  };
  const auto tms = build_tm_series(exp.trace(), exp.topology(), 10.0, TmScope::kToR);
  ASSERT_EQ(tms.size(), 30u);
  for (const auto& sparse : tms) {
    const auto loads = routing.link_loads(DenseTorTm::from_sparse(sparse));
    fold(kLoads, loads);
    fold(kAdjoint, routing.adjoint(loads));
    const auto gravity = gravity_prior(routing, loads);
    fold(kGravity, gravity.raw());
    fold(kTomogravity, tomogravity(routing, loads, gravity).raw());
    const auto job_prior = job_augmented_prior(routing, loads, activity);
    fold(kJobPrior, job_prior.raw());
    fold(kJobEst, tomogravity(routing, loads, job_prior).raw());
    const auto masked_prior = gravity_prior_masked(routing, loads, mask);
    fold(kMaskedGravity, masked_prior.raw());
    fold(kMaskedEst, tomogravity_masked(routing, loads, mask, masked_prior).raw());
    fold(kSparsity, sparsity_max(routing, loads).raw());
  }
  const std::uint64_t want[kOutputs] = {
      0x7f2c61eed1c3080eULL, 0x5455f256ad4e7071ULL, 0x653ecc39d47ba0c1ULL,
      0xc5c512e9cb9deaaaULL, 0x0513fc2ffdd3053fULL, 0x48e83442c711da65ULL,
      0x2081ce2732a538a3ULL, 0x7937fbd28612680eULL, 0x87034e5a0614b84eULL};
  const char* names[kOutputs] = {"link_loads",  "adjoint",       "gravity_prior",
                                 "tomogravity", "job_prior",     "tomogravity(job)",
                                 "gravity_prior_masked", "tomogravity_masked",
                                 "sparsity_max"};
  for (int k = 0; k < kOutputs; ++k) {
    EXPECT_EQ(h[static_cast<std::size_t>(k)].value(), want[k])
        << names[k] << " fnv 0x" << std::hex << h[static_cast<std::size_t>(k)].value();
  }
}

}  // namespace
}  // namespace dct
