// Instrumentation-overhead study (the paper's Table 1 analogue).
//
// The paper's measurement infrastructure had to be cheap enough to leave on
// in production ("the instrumentation and collection overhead is small
// enough that the system can be left on continuously").  This harness holds
// src/obs to the same standard: it runs the canonical scenario twice in the
// same binary — once with every subsystem bound into the metric registry,
// once with the hooks left dormant (null-pointer no-ops) — and reports the
// wall-clock delta.  It also microbenchmarks the individual primitives
// (counter inc, gauge set, histogram observe, scoped timer), and prints the
// compile mode: in a DCT_OBS=OFF build the macro sites vanish entirely, so
// the dormant floor measured here is an upper bound on that build's cost.
//
// Pass/fail line: live instrumentation must cost < 5% wall clock.
#include <cstdint>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "common/table.h"
#include "core/scenario.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "trace/codec.h"

namespace {

double run_once(double duration, std::uint64_t seed, bool bind) {
  dct::ScenarioConfig cfg = dct::scenarios::canonical(duration, seed);
  cfg.name = bind ? "canonical" : "canonical_dormant";
  cfg.obs_bind_metrics = bind;
  // The codec binding is module-level; make sure a previous bound run does
  // not leak live codec metrics into the dormant one.
  dct::bind_codec_metrics(nullptr);
  auto exp = dct::ClusterExperiment(cfg);
  exp.run();
  if (bind) dct::bench::write_manifest(exp, "obs_overhead");
  return exp.wall_seconds();
}

/// ns per operation over `iters` calls of `fn`.
template <typename Fn>
double ns_per_op(std::int64_t iters, Fn&& fn) {
  return dct::bench::seconds_of([&] {
           for (std::int64_t i = 0; i < iters; ++i) fn(i);
         }) * 1e9 / static_cast<double>(iters);
}

}  // namespace

int main(int argc, char** argv) {
  const double duration = dct::bench::duration_arg(argc, argv, 120.0);
  const auto seed = dct::bench::seed_arg(argc, argv);
  constexpr int kReps = 3;

  std::cout << "=== Self-instrumentation overhead (Table 1 analogue) ===\n\n";
  std::cout << "build: DCT_OBS "
            << (dct::obs::kEnabled ? "ON (hooks compiled in)"
                                   : "OFF (hooks compiled out)")
            << "\n\n";

  // --- Primitive costs ------------------------------------------------------
  {
    dct::obs::Registry reg;
    auto* c = reg.counter("bench", "counter", "ops");
    auto* g = reg.gauge("bench", "gauge", "ops");
    auto* h = reg.histogram("bench", "histogram", "ns", 1.0, 2.0, 32);
    constexpr std::int64_t kIters = 10'000'000;
    dct::TextTable t("primitive cost (hot path, single thread)");
    t.header({"operation", "ns/op"});
    t.row({"counter inc (bound)",
           dct::TextTable::num(ns_per_op(kIters, [&](std::int64_t) {
             DCT_OBS_INC(c);
           }))});
    t.row({"counter inc (dormant: null ptr)",
           dct::TextTable::num(ns_per_op(kIters, [&](std::int64_t) {
             dct::obs::Counter* null_counter = nullptr;
             DCT_OBS_INC(null_counter);
           }))});
    t.row({"gauge set (bound)",
           dct::TextTable::num(ns_per_op(kIters, [&](std::int64_t i) {
             DCT_OBS_SET(g, static_cast<double>(i));
           }))});
    t.row({"histogram observe (bound)",
           dct::TextTable::num(ns_per_op(kIters, [&](std::int64_t i) {
             DCT_OBS_OBSERVE(h, static_cast<double>((i & 0xFFFF) + 1));
           }))});
    // Scoped timer includes two steady_clock reads, the dominant cost.
    t.row({"scoped wall timer (bound)",
           dct::TextTable::num(ns_per_op(1'000'000, [&](std::int64_t) {
             DCT_OBS_SCOPED_TIMER(timer, h);
           }))});
    t.print(std::cout);
    std::cout << '\n';
  }

  // --- Whole-run overhead ---------------------------------------------------
  // Interleaved dormant/bound reps, min per arm (dct::bench::time_interleaved).
  const auto times = dct::bench::time_interleaved(
      "canonical scenario, " + dct::TextTable::num(duration) + " simulated s", kReps,
      {"instrumentation dormant",
       [&] { return run_once(duration, seed, /*bind=*/false); }},
      {"instrumentation live", [&] { return run_once(duration, seed, /*bind=*/true); }});
  const double overhead = times.overhead();
  std::cout << '\n';

  dct::bench::paper_note(std::cout, "always-on instrumentation overhead",
                         "small enough to leave on continuously",
                         dct::TextTable::pct(overhead));
  std::cout << "\nnote: a -DDCT_OBS=OFF build compiles every hook site to "
               "nothing;\nits cost is bounded above by the dormant row.\n\n";
  dct::bench::Verdict verdict;
  verdict.check(overhead < 0.05, "overhead " + dct::TextTable::pct(overhead) + " < 5%",
                "overhead " + dct::TextTable::pct(overhead) + " >= 5%");
  return verdict.exit_code();
}
