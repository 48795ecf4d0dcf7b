// Checkpointing-overhead study (docs/CHECKPOINT.md's pass/fail gate).
//
// The crash-safety argument in docs/CHECKPOINT.md only holds up if the WAL
// spool and periodic snapshots are cheap enough to leave on for long
// experiments, the same standard the paper applies to its measurement
// infrastructure and src/obs applies to instrumentation (obs_overhead).
// This harness runs the canonical scenario with checkpointing off and on
// (default snapshot interval, fsync enabled — the worst honest case),
// alternating modes and keeping the per-mode minimum over the interleaved
// reps, and fails with a nonzero exit if the enabled mode costs >= 5%
// wall clock.
//
// It also asserts the stronger determinism claim along the way: the encoded
// trace from the checkpointed run must be byte-identical to the baseline's,
// i.e. checkpointing observes the experiment without perturbing it.
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "core/scenario.h"
#include "trace/codec.h"

namespace {

/// Wall seconds of one canonical run, checkpointed (default interval_s,
/// fsync=true) into `ckpt_dir` unless it is empty; `trace` receives the
/// encoded trace.  ::sync() first settles the previous run's writeback.
double run_once(double duration, std::uint64_t seed, const std::string& ckpt_dir,
                std::vector<std::uint8_t>& trace) {
  ::sync();
  dct::ScenarioConfig cfg = dct::scenarios::canonical(duration, seed);
  cfg.checkpoint.dir = ckpt_dir;
  auto exp = dct::ClusterExperiment(cfg);
  exp.run();
  trace = dct::encode_trace(exp.trace());
  return exp.wall_seconds();
}

}  // namespace

int main(int argc, char** argv) {
  const double duration = dct::bench::duration_arg(argc, argv, 120.0);
  const auto seed = dct::bench::seed_arg(argc, argv);
  // Seven interleaved reps, min per arm (dct::bench::time_interleaved).
  // Durations under ~120 simulated s stay too jittery for the 5% gate
  // regardless; keep the default for CI.
  constexpr int kReps = 7;
  constexpr double kLimit = 0.05;

  std::cout << "=== Checkpoint/WAL overhead (crash-safe runs, "
               "docs/CHECKPOINT.md) ===\n\n";

  const std::filesystem::path scratch =
      std::filesystem::temp_directory_path() /
      ("dct_ckpt_overhead_" + std::to_string(::getpid()));

  // A fresh checkpoint directory per rep, so every enabled run pays the
  // full cold-start cost, never a resume.
  std::vector<std::uint8_t> off_trace, on_trace;
  int rep = 0;
  run_once(duration, seed, "", off_trace);  // warmup: page in code and scenario data
  const auto times = dct::bench::time_interleaved(
      "canonical scenario, " + dct::TextTable::num(duration) + " simulated s", kReps,
      {"checkpointing off", [&] { return run_once(duration, seed, "", off_trace); }},
      {"checkpointing on (WAL + snapshots, fsync)", [&] {
         const auto dir = scratch / ("rep" + std::to_string(rep++));
         return run_once(duration, seed, dir.string(), on_trace);
       }});
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
  const double overhead = times.overhead();
  std::cout << '\n';

  dct::bench::paper_note(std::cout, "crash-safe checkpointing overhead",
                         "collection cheap enough to leave on continuously",
                         dct::TextTable::pct(overhead));

  std::string csv = "mode,wall_seconds\n";
  csv += "off," + dct::TextTable::num(times.min_off()) + "\n";
  csv += "on," + dct::TextTable::num(times.min_on()) + "\n";
  dct::atomic_write_file("checkpoint_overhead.csv", csv);  // no torn file
  std::cout << "\nwrote checkpoint_overhead.csv\n\n";

  dct::bench::Verdict verdict;
  verdict.check(off_trace == on_trace, "trace bytes identical with checkpointing on",
                "checkpointing perturbed the trace");
  verdict.check(overhead < kLimit, "overhead " + dct::TextTable::pct(overhead) + " < 5%",
                "overhead " + dct::TextTable::pct(overhead) + " >= 5%");
  return verdict.exit_code();
}
