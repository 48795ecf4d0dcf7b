// Parallel-scaling harness for the shard-parallel analysis engine
// (src/parallel, docs/PERFORMANCE.md).
//
// Two exit-coded claims on the Fig. 2 workload (the canonical scenario's
// server-scoped traffic-matrix build):
//
//   1. Determinism: every shard-parallel path — trace decode, TM series,
//      single-window TM, utilization + congestion, flow statistics — is
//      byte-identical at 1, 2 and 8 threads.  Checked unconditionally.
//   2. Speedup: the TM-series build at 8 threads is >= 2.5x faster than the
//      serial build.  Only enforced when the host actually has >= 8
//      hardware threads; on smaller machines it is reported and SKIPPED
//      (oversubscribed threads cannot demonstrate scaling).
//
// Exit code 0 iff every enforced claim holds.
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>

#include "analysis/congestion.h"
#include "analysis/flowstats.h"
#include "analysis/traffic_matrix.h"
#include "bench_util.h"
#include "parallel/thread_pool.h"
#include "testing/identical.h"
#include "trace/codec.h"

int main(int argc, char** argv) {
  using namespace dct::testing;
  const double duration = dct::bench::duration_arg(argc, argv, 600.0);
  const auto seed = dct::bench::seed_arg(argc, argv);
  const std::int32_t threads = dct::bench::threads_arg(argc, argv, 8);

  std::cout << "=== Parallel scaling: shard-parallel analysis engine ===\n\n";

  auto cfg = dct::scenarios::canonical(duration, seed);
  cfg.parallelism = threads;
  auto exp = dct::ClusterExperiment(cfg);
  dct::bench::run_scenario(exp);
  dct::bench::write_manifest(exp, "parallel_scaling");
  const auto& trace = exp.trace();
  const auto& topo = exp.topology();
  dct::ThreadPool* pool8 = exp.analysis_pool();
  dct::ThreadPool pool2(2);
  dct::bench::Verdict verdict;

  // --- Claim 1: byte-identical results at 1 / 2 / N threads ---------------
  std::cout << "\ndeterminism (byte-identity vs serial):\n";

  const auto encoded = dct::encode_trace(trace);
  const auto reencode = [&](dct::ThreadPool* pool) {
    dct::DecodeOptions opt;
    opt.pool = pool;
    return dct::encode_trace(dct::decode_trace(encoded, opt));
  };
  const auto reencoded_serial = reencode(nullptr);
  verdict.check(
      reencode(&pool2) == reencoded_serial && reencode(pool8) == reencoded_serial,
      "trace decode re-encodes identically at 2 and " + std::to_string(threads) +
          " threads");

  const auto tms_serial =
      dct::build_tm_series(trace, topo, 10.0, dct::TmScope::kServer, nullptr);
  const auto tms_2 =
      dct::build_tm_series(trace, topo, 10.0, dct::TmScope::kServer, &pool2);
  const auto tms_n =
      dct::build_tm_series(trace, topo, 10.0, dct::TmScope::kServer, pool8);
  verdict.check(
      tm_series_identical(tms_serial, tms_2) && tm_series_identical(tms_serial, tms_n),
      "TM series identical at 2 and " + std::to_string(threads) + " threads");

  const auto tm_serial =
      dct::build_tm(trace, topo, duration / 2, 10.0, dct::TmScope::kServer, nullptr);
  const auto tm_n =
      dct::build_tm(trace, topo, duration / 2, 10.0, dct::TmScope::kServer, pool8);
  verdict.check(dct::SparseTm::identical(tm_serial, tm_n), "single-window TM identical");

  const auto util_serial = dct::utilization_from_trace(trace, topo, 1.0, nullptr);
  const auto util_n = dct::utilization_from_trace(trace, topo, 1.0, pool8);
  verdict.check(utilization_identical(util_serial, util_n), "link utilization identical");
  const auto rep_serial = dct::congestion_report(util_serial, topo, 0.7, nullptr);
  const auto rep_n = dct::congestion_report(util_n, topo, 0.7, pool8);
  verdict.check(congestion_identical(rep_serial, rep_n), "congestion report identical");

  const auto dur_serial = dct::flow_duration_stats(trace, nullptr);
  const auto dur_n = dct::flow_duration_stats(trace, pool8);
  const auto size_serial = dct::flow_size_stats(trace, nullptr);
  const auto size_n = dct::flow_size_stats(trace, pool8);
  const auto ia_serial =
      dct::inter_arrival_stats(trace, topo, dct::ArrivalScope::kServer, nullptr);
  const auto ia_n =
      dct::inter_arrival_stats(trace, topo, dct::ArrivalScope::kServer, pool8);
  verdict.check(cdf_identical(dur_serial.by_count, dur_n.by_count) &&
                    cdf_identical(dur_serial.by_bytes, dur_n.by_bytes) &&
                    cdf_identical(size_serial.bytes, size_n.bytes) &&
                    cdf_identical(ia_serial.inter_arrival_ms, ia_n.inter_arrival_ms),
                "flow statistics identical");

  // --- Claim 2: >= 2.5x speedup at 8 threads on the TM build --------------
  std::cout << "\nscaling (Fig. 2 workload: server-scoped TM series, 10 s windows):\n";
  const auto build_tms = [&](dct::ThreadPool* pool) {
    return dct::bench::seconds_of([&] {
      const auto tms =
          dct::build_tm_series(trace, topo, 10.0, dct::TmScope::kServer, pool);
      (void)tms;
    });
  };
  const auto times = dct::bench::time_interleaved(
      "TM series build", 3, {"serial", [&] { return build_tms(nullptr); }},
      {std::to_string(threads) + " threads", [&] { return build_tms(pool8); }});
  const double speedup = times.min_on() > 0 ? times.min_off() / times.min_on() : 0.0;
  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "speedup (min): " << speedup << "x on " << hw << " hardware threads\n";
  if (hw >= 8 && threads >= 8) {
    verdict.check(speedup >= 2.5, "speedup >= 2.5x at 8 threads");
  } else {
    // The determinism checks above stay enforced; exit 77 reports the run
    // as skipped (CTest SKIP_RETURN_CODE) rather than passed.
    verdict.skip("speedup gate needs >= 8 hardware threads (host has " +
                 std::to_string(hw) + ")");
  }

  std::cout << '\n';
  dct::bench::paper_note(
      std::cout, "analysis wall time",
      "hours of ETW logs distilled on a dedicated cluster",
      "shard-parallel with bit-deterministic merges (docs/PERFORMANCE.md)");
  return verdict.exit_code();
}
