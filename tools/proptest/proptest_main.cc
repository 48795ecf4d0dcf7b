// Property-based differential-testing harness (docs/TESTING.md).
//
// Each round draws a coverage-guided random scenario and a fault-heavy storm,
// runs each through the paired planes and checks every registry invariant
// plus the differential oracles.  On the first violation the scenario is
// greedily shrunk while it still fails, then written out as a replayable
// repro JSON and a ready-to-commit GTest regression stub:
//
//   tools/proptest --rounds 50 --seed 1            # fuzz
//   tools/proptest --replay repro_<seed>.json      # deterministic re-run
//   tools/proptest --rounds 5 --inject-bug         # self-test: a deliberate
//                                                  # byte-conservation bug
//                                                  # must be caught + shrunk
//   tools/proptest --list                          # catalogue invariants
//
// Exit codes: 0 all rounds clean, 1 violation found (repro written) or an
// evaluation overran the 120 s watchdog, 2 usage error.
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "common/fsio.h"
#include "core/experiment.h"
#include "testing/generator.h"
#include "testing/invariants.h"
#include "testing/oracles.h"
#include "trace/codec.h"

namespace dct {
namespace {

namespace fs = std::filesystem;

struct Options {
  int rounds = 50;
  std::uint64_t seed = 1;
  double max_duration = 30.0;
  std::string out = "proptest_out";
  std::string replay;
  bool inject_bug = false;
  bool list = false;
  int checkpoint_every = 5;
};

void usage() {
  std::cerr
      << "usage: proptest [--rounds N] [--seed S] [--max-duration SEC]\n"
      << "                [--out DIR] [--checkpoint-every K] [--inject-bug]\n"
      << "                [--replay FILE] [--list]\n"
      << "  --rounds N            rounds of a generated + a storm scenario (default 50)\n"
      << "  --seed S              base seed for both streams (default 1)\n"
      << "  --max-duration SEC    generated horizon cap, storm horizon (default 30)\n"
      << "  --out DIR             where repros/stubs land (default proptest_out)\n"
      << "  --checkpoint-every K  run the checkpoint oracle every K rounds\n"
      << "  --inject-bug          tamper each run's trace with a flow that\n"
      << "                        sent more than requested (self-test: the\n"
      << "                        registry must catch it and shrink it)\n"
      << "  --replay FILE         re-run one repro JSON instead of fuzzing\n"
      << "  --list                print the invariant/oracle catalogue\n";
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--inject-bug") {
      opt.inject_bug = true;
    } else if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else if (i + 1 >= argc) {
      std::cerr << "proptest: " << arg << " is unknown or needs a value\n";
      return false;
    } else if (arg == "--rounds") {
      opt.rounds = std::atoi(argv[++i]);
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--max-duration") {
      opt.max_duration = std::atof(argv[++i]);
    } else if (arg == "--out") {
      opt.out = argv[++i];
    } else if (arg == "--checkpoint-every") {
      opt.checkpoint_every = std::atoi(argv[++i]);
    } else if (arg == "--replay") {
      opt.replay = argv[++i];
    } else {
      std::cerr << "proptest: unknown argument " << arg << "\n";
      return false;
    }
  }
  return opt.rounds > 0 && opt.max_duration >= 10.0 && opt.checkpoint_every > 0;
}

void list_catalogue() {
  std::cout << "invariants (src/testing/invariants.cc):\n";
  for (const auto& inv : testing::InvariantRegistry::builtin().invariants()) {
    std::cout << "  " << inv.name << "\n      " << inv.description << "\n";
  }
  std::cout << "oracles (src/testing/oracles.cc):\n"
            << "  oracle.determinism\n      same seed twice: byte-identical "
               "traces, schedules, manifests\n"
            << "  oracle.parallel\n      serial vs pooled analysis: "
               "bit-identity\n"
            << "  oracle.checkpoint\n      plain vs checkpointed vs "
               "resume-of-completed: bit-identity\n"
            << "  oracle.telemetry\n      lossless vs lossy plane: gap-aware "
               "estimate within declared bounds\n"
            << "  oracle.incast_model\n      flowsim vs packetsim star: "
               "fluid-regime agreement, collapse divergence\n";
}

// The deliberate-bug hook: round-trips the real trace through the codec and
// appends a flow that "sent" more bytes than it requested.  Only the
// trace-derived invariants see the tampered copy (RunUnderTest docs).
ClusterTrace tampered_copy(const ClusterTrace& real) {
  ClusterTrace copy = decode_trace(encode_trace(real));
  FlowRecord bogus{};
  bogus.id = FlowId{987654};
  bogus.src = ServerId{0};
  bogus.dst = ServerId{1};
  bogus.bytes_requested = 1'000'000;
  bogus.bytes_sent = bogus.bytes_requested + 1000;
  bogus.start = 0.25;
  bogus.end = 0.75;
  copy.record_flow(bogus);
  return copy;
}

// A hang is a bug report, not a CI stall: alarm(2) bounds every evaluation,
// and the SIGALRM handler writes a message formatted before the alarm was
// armed (write and _exit are async-signal-safe), then exits 1.
constexpr unsigned kEvalTimeoutS = 120;
std::string g_watchdog_message;

extern "C" void on_watchdog(int /*signal*/) {
  (void)!write(STDERR_FILENO, g_watchdog_message.data(), g_watchdog_message.size());
  _exit(1);
}

struct Watchdog {
  Watchdog(std::uint64_t seed, const std::string& replay) {
    g_watchdog_message = "proptest: WATCHDOG: scenario seed " + std::to_string(seed) +
                         " exceeded " + std::to_string(kEvalTimeoutS) +
                         " s wall clock\nproptest: replay: " + replay + "\n";
    alarm(kEvalTimeoutS);
  }
  ~Watchdog() { alarm(0); }
};

struct EvalOptions {
  bool inject_bug = false;
  bool with_checkpoint = false;
  bool with_incast = false;
  std::string workdir;
  int parallel_threads = 3;
  std::string replay;  ///< the command the watchdog prints
};

// Fault traffic injected over a sweep's evaluations.
struct Traffic {
  std::size_t faults = 0, degradations = 0, cascade_trips = 0;
};

testing::InvariantReport evaluate_scenario(const ScenarioConfig& cfg,
                                           const EvalOptions& eo,
                                           Traffic* traffic = nullptr) {
  const Watchdog watchdog(cfg.seed, eo.replay);
  testing::InvariantReport report;
  ClusterExperiment a(cfg);
  a.run();
  if (const FaultInjector* fi = a.fault_injector(); fi != nullptr && traffic != nullptr) {
    traffic->faults += fi->injected();
    traffic->degradations += fi->degradations_injected();
    traffic->cascade_trips += fi->cascade_trips();
  }
  {
    ClusterExperiment b(cfg);
    b.run();
    testing::determinism_oracle(a, b, "proptest", report);
  }
  std::optional<ClusterTrace> tampered;
  testing::RunUnderTest run{a};
  if (eo.inject_bug) {
    tampered.emplace(tampered_copy(a.trace()));
    run.trace_override = &*tampered;
  }
  const auto inv = testing::InvariantRegistry::builtin().check_all(run);
  report.violations.insert(report.violations.end(), inv.violations.begin(),
                           inv.violations.end());
  testing::parallel_oracle(a, eo.parallel_threads, report);
  if (!cfg.telemetry.empty()) testing::telemetry_oracle(a, report);
  if (eo.with_checkpoint) {
    testing::checkpoint_oracle(cfg, eo.workdir, report);
  }
  if (eo.with_incast) testing::incast_model_oracle(report);
  return report;
}

// Shrinks, writes repro + regression stub, prints the replay command.
// `fuzz_replay` re-runs the sweep up to the failing round.
void emit_repro(const ScenarioConfig& failing,
                const testing::InvariantReport& report, const Options& opt,
                const std::string& fuzz_replay) {
  const std::string violated = report.violations.front().invariant;
  std::cout << "shrinking (target: " << violated << ") ..." << std::endl;
  // The predicate re-runs the cheap per-round pipeline and asks whether the
  // same invariant (by exact name) still fires.  The checkpoint oracle is
  // re-included only when it is the thing that failed.
  const EvalOptions eo{.inject_bug = opt.inject_bug,
                       .with_checkpoint = violated.rfind("oracle.checkpoint", 0) == 0,
                       .workdir = (fs::path(opt.out) / "shrink_ckpt").string(),
                       .replay = fuzz_replay};
  // The shrinker returns its last accepted candidate, so the predicate's
  // last failing report is the shrunk config's (the original one when
  // nothing was accepted).  That report, not the unshrunk one, is what a
  // --replay of the written repro prints.
  testing::InvariantReport shrunk_report = report;
  const auto still_fails = [&](const ScenarioConfig& c) {
    testing::InvariantReport r;
    try {
      r = evaluate_scenario(c, eo);
    } catch (const std::exception& e) {
      // A scenario that now throws only counts when an exception is what
      // we're minimizing; otherwise it's a different failure.
      if (violated != "harness.exception") return false;
      r.fail("harness.exception", e.what());
    }
    if (!r.violated(violated)) return false;
    shrunk_report = std::move(r);
    return true;
  };
  const auto shrunk = testing::shrink_scenario(failing, still_fails, 48);

  fs::create_directories(opt.out);
  const std::string repro_name = "repro_" + std::to_string(shrunk.config.seed) + ".json";
  const std::string repro_path = (fs::path(opt.out) / repro_name).string();
  atomic_write_file(repro_path, testing::repro_json(shrunk.config, violated));
  const std::string stub_path =
      (fs::path(opt.out) / ("regression_" + std::to_string(shrunk.config.seed) + ".cc"))
          .string();
  atomic_write_file(stub_path, testing::regression_stub(repro_name, violated));

  const auto& topo = shrunk.config.topology;
  const int servers = topo.racks * topo.servers_per_rack + topo.external_servers;
  std::cout << "violated: " << violated << "\n"
            << shrunk_report.summary() << "shrink: " << shrunk.evals << " evals, "
            << shrunk.accepted << " accepted; minimized to " << servers
            << " servers, " << shrunk.config.sim.end_time << " s horizon\n"
            << "repro:   " << repro_path << "\n"
            << "stub:    " << stub_path << "\n"
            << "replay:  tools/proptest --replay " << repro_path
            << (opt.inject_bug ? " --inject-bug" : "") << "\n";
}

int replay(const Options& opt) {
  const auto bytes = read_file_bytes(opt.replay);
  const std::string json(bytes.begin(), bytes.end());
  const ScenarioConfig cfg = testing::scenario_from_repro(json);
  const std::string violated = testing::repro_violated(json);
  std::cout << "replaying " << opt.replay << " (seed " << cfg.seed
            << (violated.empty() ? "" : ", recorded violation: " + violated)
            << ")" << std::endl;
  const EvalOptions eo{
      .inject_bug = opt.inject_bug,
      .with_checkpoint = violated.rfind("oracle.checkpoint", 0) == 0,
      .workdir = (fs::path(opt.out) / "replay_ckpt").string(),
      .replay = "tools/proptest --replay " + opt.replay +
                (opt.inject_bug ? " --inject-bug" : "")};
  const auto report = evaluate_scenario(cfg, eo);
  std::cout << report.summary();
  if (!report.ok()) {
    std::cout << "replay: FAIL (" << report.violations.size() << " violations)\n";
    return 1;
  }
  std::cout << "replay: OK\n";
  return 0;
}

int fuzz(const Options& opt) {
  testing::ScenarioGenerator gen(opt.seed, opt.max_duration);
  Traffic traffic;
  for (int round = 0; round < opt.rounds; ++round) {
    std::ostringstream replay;
    replay << "tools/proptest --rounds " << round + 1 << " --seed " << opt.seed
           << " --max-duration " << opt.max_duration << " --checkpoint-every "
           << opt.checkpoint_every << (opt.inject_bug ? " --inject-bug" : "");
    for (const bool is_storm : {false, true}) {
      // One gen.next() per round: the generated stream does not see the storms.
      const ScenarioConfig cfg =
          is_storm ? testing::storm_scenario(opt.seed + static_cast<std::uint64_t>(round),
                                             opt.max_duration)
                   : gen.next();
      const EvalOptions eo{
          .inject_bug = opt.inject_bug,
          .with_checkpoint = (round % opt.checkpoint_every) == opt.checkpoint_every - 1,
          .with_incast = round == 0 && !is_storm,
          .workdir = (fs::path(opt.out) / ("ckpt_round_" + std::to_string(round) +
                                           (is_storm ? "_storm" : "")))
                         .string(),
          .parallel_threads = 2 + static_cast<int>(cfg.seed % 7),
          .replay = replay.str()};
      // Flushed before the evaluation, so a process killed mid-round (a
      // sanitizer abort, the watchdog, a CI timeout) still names its seed.
      std::cout << "round " << round + 1 << "/" << opt.rounds
                << (is_storm ? " storm" : "") << " seed " << cfg.seed << " mask 0x"
                << std::hex << testing::feature_mask(cfg) << std::dec << " dur "
                << cfg.sim.end_time << "s" << (eo.with_checkpoint ? " +ckpt" : "")
                << (eo.with_incast ? " +incast" : "") << std::endl;
      testing::InvariantReport report;
      try {
        report = evaluate_scenario(cfg, eo, &traffic);
      } catch (const std::exception& e) {
        report.fail("harness.exception", e.what());
      }
      if (!report.ok()) {
        emit_repro(cfg, report, opt, eo.replay);
        return 1;
      }
    }
  }
  std::cout << "proptest: " << opt.rounds << " rounds clean ("
            << gen.masks_seen() << " distinct generated feature masks; injected "
            << traffic.faults << " faults, " << traffic.degradations
            << " degradations, " << traffic.cascade_trips << " cascade trips)\n";
  return 0;
}

}  // namespace
}  // namespace dct

int main(int argc, char** argv) {
  dct::Options opt;
  if (!dct::parse_args(argc, argv, opt)) {
    dct::usage();
    return 2;
  }
  if (opt.list) {
    dct::list_catalogue();
    return 0;
  }
  std::signal(SIGALRM, dct::on_watchdog);
  try {
    if (!opt.replay.empty()) return dct::replay(opt);
    return dct::fuzz(opt);
  } catch (const std::exception& e) {
    std::cerr << "proptest: fatal: " << e.what() << "\n";
    return 1;
  }
}
