// Solver micro-benchmarks: the computational building blocks whose cost
// bounds how large a cluster each analysis scales to — max-min fair rate
// recomputation (the simulator's hot loop), TM-series construction, the
// three tomography estimators and the normal operator inside tomogravity.
#include <benchmark/benchmark.h>

#include "analysis/traffic_matrix.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "tomography/estimators.h"
#include "tomography/routing.h"

namespace {

void BM_MaxMinRecompute(benchmark::State& state) {
  // A standing population of `range` long-lived flows started at t=0; the
  // simultaneous arrivals coalesce into one progressive-filling pass, so
  // each iteration measures one full max-min recomputation over that many
  // active flows (plus the horizon drain).
  dct::TopologyConfig tcfg;
  tcfg.racks = 25;
  tcfg.servers_per_rack = 20;
  tcfg.external_servers = 0;
  dct::Topology topo(tcfg);
  const auto flows = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    dct::FlowSimConfig cfg;
    cfg.end_time = 1.0;
    cfg.recompute_interval = 0.0;
    cfg.connect_share_floor = 0.0;
    cfg.keep_records = false;
    dct::FlowSim sim(topo, cfg);
    dct::Rng rng(7);
    for (std::int32_t i = 0; i < flows; ++i) {
      dct::FlowSpec fs;
      fs.src = dct::ServerId{static_cast<std::int32_t>(rng.uniform_int(0, 499))};
      fs.dst = dct::ServerId{static_cast<std::int32_t>((fs.src.value() + 13) % 500)};
      fs.bytes = 1 << 30;  // long-lived
      sim.start_flow(fs);
    }
    state.ResumeTiming();
    sim.run();  // one horizon's worth of recomputes over `flows` active flows
    benchmark::DoNotOptimize(sim.recompute_count());
  }
  state.counters["active_flows"] = static_cast<double>(flows);
}
BENCHMARK(BM_MaxMinRecompute)->Arg(100)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_TmSeriesBuild(benchmark::State& state) {
  auto exp = dct::ClusterExperiment(dct::scenarios::canonical(120.0, 3));
  exp.run();
  for (auto _ : state) {
    const auto tms = dct::build_tm_series(exp.trace(), exp.topology(),
                                          static_cast<double>(state.range(0)),
                                          dct::TmScope::kServer);
    benchmark::DoNotOptimize(tms.size());
  }
  state.counters["flows"] = static_cast<double>(exp.trace().flow_count());
}
BENCHMARK(BM_TmSeriesBuild)->Arg(1)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);

dct::DenseTorTm random_tor_tm(std::int32_t n, dct::Rng& rng) {
  dct::DenseTorTm tm(n);
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(0.2)) tm.set(i, j, rng.uniform(1, 1000));
    }
  }
  return tm;
}

// The ToR tree of the tomography benches: range(0) racks under range(1)
// aggregation switches.  (25, 2) is canonical's shape, (75, 6) paper_scale's.
dct::Topology tomo_topology(const benchmark::State& state) {
  dct::TopologyConfig tcfg;
  tcfg.racks = static_cast<std::int32_t>(state.range(0));
  tcfg.servers_per_rack = 20;
  tcfg.racks_per_vlan = 5;
  tcfg.agg_switches = static_cast<std::int32_t>(state.range(1));
  tcfg.external_servers = 0;
  return dct::Topology(tcfg);
}

void BM_Tomogravity(benchmark::State& state) {
  const dct::Topology topo = tomo_topology(state);
  dct::RoutingMatrix routing(topo);
  dct::Rng rng(5);
  const auto truth = random_tor_tm(routing.tor_count(), rng);
  const auto loads = routing.link_loads(truth);
  for (auto _ : state) {
    const auto est = dct::tomogravity(routing, loads);
    benchmark::DoNotOptimize(est.total());
  }
  state.counters["racks"] = static_cast<double>(routing.tor_count());
}
BENCHMARK(BM_Tomogravity)
    ->Args({25, 2})
    ->Args({50, 2})
    ->Args({100, 2})
    ->Args({75, 6})
    ->Unit(benchmark::kMillisecond);

void BM_NormalOperator(benchmark::State& state) {
  // One application of A W A^T, the step each conjugate-gradient iteration
  // of a tomogravity solve takes; BM_Tomogravity also counts iterations.
  const dct::Topology topo = tomo_topology(state);
  dct::RoutingMatrix routing(topo);
  dct::Rng rng(13);
  const auto n = static_cast<std::size_t>(routing.tor_count());
  std::vector<double> w(n * n, 0.0);
  for (std::size_t k = 0; k < w.size(); ++k) {
    if (k / n != k % n) w[k] = rng.uniform(0.1, 10.0);
  }
  std::vector<double> u(static_cast<std::size_t>(routing.link_count()));
  for (double& x : u) x = rng.uniform(-1.0, 1.0);
  std::vector<double> v(u.size());
  for (auto _ : state) {
    routing.normal_matvec(w, u, v);
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
  state.counters["pairs"] = static_cast<double>(n * (n - 1));
}
BENCHMARK(BM_NormalOperator)->Args({25, 2})->Args({75, 6})->Unit(benchmark::kMicrosecond);

void BM_JobAugmentedPrior(benchmark::State& state) {
  // 3 jobs per rack, each spread over 1-8 racks with 1-20 servers in each,
  // the sparse activity job_tor_activity recovers from a trace.
  const dct::Topology topo = tomo_topology(state);
  dct::RoutingMatrix routing(topo);
  dct::Rng rng(11);
  const auto truth = random_tor_tm(routing.tor_count(), rng);
  const auto loads = routing.link_loads(truth);
  std::vector<std::vector<double>> activity(
      static_cast<std::size_t>(3 * routing.tor_count()),
      std::vector<double>(static_cast<std::size_t>(routing.tor_count()), 0.0));
  for (auto& job : activity) {
    for (std::int64_t k = rng.uniform_int(1, 8); k > 0; --k) {
      job[static_cast<std::size_t>(rng.uniform_int(0, routing.tor_count() - 1))] +=
          static_cast<double>(rng.uniform_int(1, 20));
    }
  }
  for (auto _ : state) {
    const auto prior = dct::job_augmented_prior(routing, loads, activity);
    benchmark::DoNotOptimize(prior.total());
  }
  state.counters["jobs"] = static_cast<double>(activity.size());
}
BENCHMARK(BM_JobAugmentedPrior)->Args({25, 2})->Args({75, 6})->Unit(benchmark::kMillisecond);

void BM_SparsityMax(benchmark::State& state) {
  const dct::Topology topo = tomo_topology(state);
  dct::RoutingMatrix routing(topo);
  dct::Rng rng(9);
  const auto truth = random_tor_tm(routing.tor_count(), rng);
  const auto loads = routing.link_loads(truth);
  for (auto _ : state) {
    const auto est = dct::sparsity_max(routing, loads);
    benchmark::DoNotOptimize(est.total());
  }
  state.counters["racks"] = static_cast<double>(routing.tor_count());
}
BENCHMARK(BM_SparsityMax)
    ->Args({25, 2})
    ->Args({50, 2})
    ->Args({75, 6})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
