// Recovery-storm control study (robustness; the paper's §4.2 observation
// that recovery traffic is itself a source of congestion).
//
// A correlated rack-power burst fail-stops a whole rack at once, so the
// legacy repair path launches an immediate re-replication fan-out per
// crashed server into a fabric that is already degraded — the recovery
// storm amplifies the outage.  This bench runs the `correlated_burst`
// scenario twice per seed against the IDENTICAL fault + degradation
// schedule (the schedules are pure functions of the topology, the fault
// configs and the horizon — the repair-pacing knob doesn't touch them):
// once with recovery-storm control ON (prioritized repair queue, token
// bucket, concurrency caps, congestion backoff) and once OFF, then
// compares (a) the matched-pair p99 completion time of jobs that overlap a
// burst window and (b) the time from first redundancy loss until every
// block is fully replicated again.
//
// Exit status is the verdict: 0 iff pacing strictly improves BOTH the
// burst-window p99 JCT and the time-to-full-redundancy, so CI can assert
// the subsystem keeps earning its keep.
#include <algorithm>
#include <array>
#include <cstdint>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"

namespace {

/// One [start, end) interval during which some device of the fault schedule
/// is down; jobs overlapping any of these ran "during the burst".
struct Window {
  double start = 0;
  double end = 0;
};

std::vector<Window> burst_windows(const dct::ClusterExperiment& exp) {
  const double horizon = exp.scenario().sim.end_time;
  std::vector<Window> out;
  for (const dct::FaultEvent& e : dct::generate_fault_schedule(
           exp.topology(), exp.scenario().faults, horizon)) {
    out.push_back({e.start, std::min(e.end, horizon)});
  }
  return out;
}

bool overlaps(const std::vector<Window>& windows, double start, double end) {
  for (const Window& w : windows) {
    if (start < w.end && w.start < end) return true;
  }
  return false;
}

struct Arm {
  std::set<dct::bench::JobKey> in_burst;  ///< completed jobs overlapping a fault window
  std::int64_t jobs_completed = 0;
  std::int64_t jobs_failed = 0;
  std::int64_t blocks_rereplicated = 0;
  std::int64_t repairs_enqueued = 0;
  std::int64_t repairs_dispatched = 0;
  std::int64_t repairs_deferred = 0;
  std::int64_t repairs_retried = 0;
  std::int64_t repairs_abandoned = 0;
  std::int64_t cascade_trips = 0;
  std::size_t queue_peak = 0;
  double all_healed_span = 0;       ///< first loss -> all healed, summed
  double redundancy_debt = 0;       ///< block-seconds under-replicated, summed
  std::int64_t loss_episodes = 0;   ///< blocks that went under-replicated
};

void accumulate(Arm& arm, int seed_index, const dct::ClusterExperiment& exp) {
  const auto& st = exp.workload_stats();
  arm.jobs_completed += st.jobs_completed;
  arm.jobs_failed += st.jobs_failed;
  arm.blocks_rereplicated += st.blocks_rereplicated;
  arm.repairs_enqueued += st.repairs_enqueued;
  arm.repairs_dispatched += st.repairs_dispatched;
  arm.repairs_deferred += st.repairs_deferred;
  arm.repairs_retried += st.repairs_retried;
  arm.repairs_abandoned += st.repairs_abandoned;
  if (const dct::FaultInjector* inj = exp.fault_injector()) {
    arm.cascade_trips += static_cast<std::int64_t>(inj->cascade_trips());
  }
  arm.queue_peak = std::max(arm.queue_peak, exp.workload().repair_queue_peak());

  const double horizon = exp.scenario().sim.end_time;
  const dct::RedundancyStats red = exp.workload().redundancy(horizon);
  if (red.first_loss >= 0) {
    // Healed before the horizon: time from first loss to full redundancy.
    // Still under-replicated at the horizon: charge the whole remainder.
    const bool healed = red.under_replicated == 0 &&
                        red.last_full_restore >= red.first_loss;
    arm.all_healed_span += (healed ? red.last_full_restore : horizon) -
                           red.first_loss;
  }
  arm.redundancy_debt += red.debt_block_seconds;
  arm.loss_episodes += red.loss_episodes;

  const std::vector<Window> windows = burst_windows(exp);
  for (const auto& j : exp.trace().jobs()) {
    if (j.completed && overlaps(windows, j.start, j.end)) {
      arm.in_burst.insert({seed_index, j.job.value()});
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double duration = dct::bench::duration_arg(argc, argv, 240.0);
  const auto base_seed = dct::bench::seed_arg(argc, argv);
  constexpr int kSeeds = 5;

  std::cout << "=== Recovery storms: paced repair vs immediate fan-out ===\n\n";

  dct::bench::Verdict verdict;
  std::array<Arm, 2> arms;  // paced, unpaced
  const auto jobs = dct::bench::run_paired_seeds(
      verdict, "fault", base_seed, kSeeds,
      {"recovery_storm_paced", "recovery_storm_unpaced"},
      [&](int arm, std::uint64_t seed) {
        dct::ScenarioConfig cfg = dct::scenarios::correlated_burst(duration, seed);
        if (arm == 1) {
          cfg.name = "correlated_burst_unpaced";
          cfg.workload.repair.paced = false;
        }
        return cfg;
      },
      [&](int arm, int seed_index, const dct::ClusterExperiment& exp) {
        accumulate(arms[arm], seed_index, exp);
      });
  if (!jobs) return verdict.exit_code();
  const Arm& paced = arms[0];
  const Arm& unpaced = arms[1];

  // A pair counts as "in a burst" when either arm's run overlapped a window.
  const auto [burst_paced, burst_unpaced] =
      jobs->matched([&](const dct::bench::JobKey& key) {
        return paced.in_burst.count(key) > 0 || unpaced.in_burst.count(key) > 0;
      });
  const std::size_t matched_all = jobs->matched().first.size();
  const double p99_paced = dct::quantile(burst_paced, 0.99);
  const double p99_unpaced = dct::quantile(burst_unpaced, 0.99);
  const double p50_paced = dct::median(burst_paced);
  const double p50_unpaced = dct::median(burst_unpaced);
  // Per-block time-to-redundancy: the under-replication integral divided by
  // the number of loss episodes = the mean time a block that lost a replica
  // spent waiting to be whole again.  (The run-level "first loss -> all
  // healed" span is reported too, but with faults firing right up to the
  // horizon it saturates at the horizon in every arm and discriminates
  // nothing.)
  const double ttr_paced = dct::bench::ratio(paced.redundancy_debt, paced.loss_episodes);
  const double ttr_unpaced =
      dct::bench::ratio(unpaced.redundancy_debt, unpaced.loss_episodes);

  dct::TextTable t("burst impact, pooled over " + std::to_string(kSeeds) +
                   " seeds (identical fault schedules)");
  t.header({"quantity", "unpaced", "paced", "change"});
  t.row({"jobs completed",
         dct::TextTable::num(static_cast<double>(unpaced.jobs_completed)),
         dct::TextTable::num(static_cast<double>(paced.jobs_completed)), ""});
  t.row({"jobs matched (both arms)",
         dct::TextTable::num(static_cast<double>(matched_all)), "", ""});
  t.row({"jobs matched in a burst",
         dct::TextTable::num(static_cast<double>(burst_paced.size())), "", ""});
  t.row({"p50 burst JCT (s)", dct::TextTable::num(p50_unpaced),
         dct::TextTable::num(p50_paced), dct::bench::pct_change(p50_unpaced, p50_paced)});
  t.row({"p99 burst JCT (s)", dct::TextTable::num(p99_unpaced),
         dct::TextTable::num(p99_paced), dct::bench::pct_change(p99_unpaced, p99_paced)});
  t.row({"time to redundancy per block (s)", dct::TextTable::num(ttr_unpaced),
         dct::TextTable::num(ttr_paced), dct::bench::pct_change(ttr_unpaced, ttr_paced)});
  t.row({"redundancy debt (block-s)",
         dct::TextTable::num(unpaced.redundancy_debt / kSeeds),
         dct::TextTable::num(paced.redundancy_debt / kSeeds),
         dct::bench::pct_change(unpaced.redundancy_debt, paced.redundancy_debt)});
  t.row({"first loss -> all healed (s)",
         dct::TextTable::num(unpaced.all_healed_span / kSeeds),
         dct::TextTable::num(paced.all_healed_span / kSeeds), ""});
  t.row({"blocks re-replicated",
         dct::TextTable::num(static_cast<double>(unpaced.blocks_rereplicated)),
         dct::TextTable::num(static_cast<double>(paced.blocks_rereplicated)), ""});
  t.row({"cascade trips",
         dct::TextTable::num(static_cast<double>(unpaced.cascade_trips)),
         dct::TextTable::num(static_cast<double>(paced.cascade_trips)), ""});
  t.print(std::cout);
  std::cout << '\n';

  dct::TextTable q("repair-queue activity (paced arm)");
  q.header({"quantity", "count"});
  q.row({"repairs enqueued",
         dct::TextTable::num(static_cast<double>(paced.repairs_enqueued))});
  q.row({"repairs dispatched",
         dct::TextTable::num(static_cast<double>(paced.repairs_dispatched))});
  q.row({"deferred (congestion)",
         dct::TextTable::num(static_cast<double>(paced.repairs_deferred))});
  q.row({"retried after failure",
         dct::TextTable::num(static_cast<double>(paced.repairs_retried))});
  q.row({"abandoned (max attempts)",
         dct::TextTable::num(static_cast<double>(paced.repairs_abandoned))});
  q.row({"peak queue depth",
         dct::TextTable::num(static_cast<double>(paced.queue_peak))});
  q.print(std::cout);
  std::cout << '\n';

  const bool jct_better = p99_paced < p99_unpaced;
  const bool ttr_better = ttr_paced < ttr_unpaced;
  const std::string jct_span =
      dct::bench::cat(" (", p99_unpaced, " s -> ", p99_paced, " s)");
  verdict.check(jct_better, "p99 burst JCT improved" + jct_span,
                "p99 burst JCT did not improve" + jct_span);
  const std::string ttr_span =
      dct::bench::cat(" (", ttr_unpaced, " s -> ", ttr_paced, " s)");
  verdict.check(ttr_better, "per-block time to redundancy improved" + ttr_span,
                "per-block time to redundancy did not improve" + ttr_span);
  return verdict.exit_code();
}
