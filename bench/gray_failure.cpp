// Gray-failure mitigation study (robustness analogue of the paper's Fig. 8).
//
// The paper correlates read failures with congestion caused by long-lived
// partial faults — exactly the gray-failure class (throttled, lossy and
// flapping links; straggler servers) the degradation subsystem injects.
// This bench runs the `gray_failure` scenario twice per seed against the
// IDENTICAL degradation schedule (the schedule is a pure function of the
// topology, DegradationConfig and horizon — the workload mitigation knobs
// don't touch it): once with the degraded-mode mitigations (speculative
// re-execution + hedged block reads) ON and once OFF, then compares the
// pooled job-completion-time tail and the read-failure rate.
//
// Exit status is the verdict: 0 iff mitigations strictly improve BOTH the
// p99 JCT and the read-failure rate, so CI can assert the subsystem
// keeps earning its keep.
#include <array>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"

namespace {

struct Arm {
  std::int64_t jobs_completed = 0;
  std::int64_t jobs_failed = 0;
  std::int64_t read_failures = 0;
  std::int64_t fatal_read_failures = 0;
  std::int64_t remote_reads = 0;
  std::int64_t stragglers = 0;
  std::int64_t spec_launched = 0;
  std::int64_t spec_wins = 0;
  std::int64_t hedges = 0;
  std::int64_t hedge_wins = 0;
};

void accumulate(Arm& arm, const dct::ClusterExperiment& exp) {
  const auto& st = exp.workload_stats();
  arm.jobs_completed += st.jobs_completed;
  arm.jobs_failed += st.jobs_failed;
  arm.read_failures += st.read_failures;
  // Read failures arise from remote block reads AND shuffle fetches; rate
  // them against the union.
  arm.remote_reads += st.extract_reads_remote + st.shuffle_fetches;
  arm.stragglers += st.stragglers_observed;
  arm.spec_launched += st.spec_launched;
  arm.spec_wins += st.spec_wins;
  arm.hedges += st.hedges_launched;
  arm.hedge_wins += st.hedge_wins;
  for (const auto& rf : exp.trace().read_failures()) {
    if (rf.fatal) ++arm.fatal_read_failures;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double duration = dct::bench::duration_arg(argc, argv, 240.0);
  const auto base_seed = dct::bench::seed_arg(argc, argv);
  constexpr int kSeeds = 5;

  std::cout << "=== Gray failures: degraded-mode mitigations on vs off ===\n\n";

  dct::bench::Verdict verdict;
  std::array<Arm, 2> arms;  // mitigations on, off
  const auto jobs = dct::bench::run_paired_seeds(
      verdict, "degradation", base_seed, kSeeds, {"gray_failure_on", "gray_failure_off"},
      [&](int arm, std::uint64_t seed) {
        dct::ScenarioConfig cfg = dct::scenarios::gray_failure(duration, seed);
        if (arm == 1) {
          cfg.name = "gray_failure_control";
          cfg.workload.speculative_execution = false;
          cfg.workload.hedged_reads = false;
        }
        return cfg;
      },
      [&](int arm, int, const dct::ClusterExperiment& exp) {
        accumulate(arms[arm], exp);
      });
  if (!jobs) return verdict.exit_code();
  const Arm& on = arms[0];
  const Arm& off = arms[1];

  const auto [jct_on, jct_off] = jobs->matched();
  const double p50_on = dct::median(jct_on);
  const double p50_off = dct::median(jct_off);
  const double p99_on = dct::quantile(jct_on, 0.99);
  const double p99_off = dct::quantile(jct_off, 0.99);
  const double fail_on = dct::bench::ratio(on.read_failures, on.remote_reads);
  const double fail_off = dct::bench::ratio(off.read_failures, off.remote_reads);
  const double fatal_on = dct::bench::ratio(on.fatal_read_failures, on.remote_reads);
  const double fatal_off = dct::bench::ratio(off.fatal_read_failures, off.remote_reads);

  dct::TextTable t("job completion & read failures, pooled over " +
                   std::to_string(kSeeds) + " seeds (identical schedules)");
  t.header({"quantity", "mitigations off", "mitigations on", "change"});
  t.row({"jobs completed",
         dct::TextTable::num(static_cast<double>(off.jobs_completed)),
         dct::TextTable::num(static_cast<double>(on.jobs_completed)),
         dct::bench::pct_change(static_cast<double>(off.jobs_completed),
                                static_cast<double>(on.jobs_completed))});
  t.row({"jobs killed", dct::TextTable::num(static_cast<double>(off.jobs_failed)),
         dct::TextTable::num(static_cast<double>(on.jobs_failed)), ""});
  t.row({"jobs matched (both arms)",
         dct::TextTable::num(static_cast<double>(jct_on.size())), "", ""});
  t.row({"p50 JCT, matched (s)", dct::TextTable::num(p50_off),
         dct::TextTable::num(p50_on), dct::bench::pct_change(p50_off, p50_on)});
  t.row({"p99 JCT, matched (s)", dct::TextTable::num(p99_off),
         dct::TextTable::num(p99_on), dct::bench::pct_change(p99_off, p99_on)});
  t.row({"read failures", dct::TextTable::num(static_cast<double>(off.read_failures)),
         dct::TextTable::num(static_cast<double>(on.read_failures)), ""});
  t.row({"read-failure rate", dct::TextTable::pct(fail_off, 3),
         dct::TextTable::pct(fail_on, 3), ""});
  t.row({"fatal read-failure rate", dct::TextTable::pct(fatal_off, 3),
         dct::TextTable::pct(fatal_on, 3), ""});
  t.print(std::cout);
  std::cout << '\n';

  dct::TextTable m("mitigation activity (mitigations-on arm)");
  m.header({"mechanism", "launched", "won"});
  m.row({"straggler episodes seen",
         dct::TextTable::num(static_cast<double>(on.stragglers)), ""});
  m.row({"speculative backups",
         dct::TextTable::num(static_cast<double>(on.spec_launched)),
         dct::TextTable::num(static_cast<double>(on.spec_wins))});
  m.row({"hedged reads", dct::TextTable::num(static_cast<double>(on.hedges)),
         dct::TextTable::num(static_cast<double>(on.hedge_wins))});
  m.print(std::cout);
  std::cout << '\n';

  // The verdict uses the OVERALL read-failure rate (the paper's Fig. 8
  // quantity): hedges absorb failed legs without burning retries and
  // cancelled speculative losers stop reading degraded replicas, both of
  // which cut failures directly.  Fatal failures are too rare at bench
  // scale to compare stably, so they are reported but not judged.
  const bool jct_better = p99_on < p99_off;
  const bool fail_better =
      fail_on < fail_off || (fail_off == 0.0 && on.read_failures == 0);
  const std::string jct_span = dct::bench::cat(" (", p99_off, " s -> ", p99_on, " s)");
  verdict.check(jct_better, "p99 JCT improved" + jct_span,
                "p99 JCT did not improve" + jct_span);
  const std::string fail_span = dct::bench::cat(" (", fail_off, " -> ", fail_on, ")");
  verdict.check(fail_better, "read-failure rate improved" + fail_span,
                "read-failure rate did not improve" + fail_span);
  return verdict.exit_code();
}
