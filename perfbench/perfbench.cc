// perfbench: the repository's benchmark (see README.md in this directory).
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--out-dir DIR] [--git-rev REV] [--preset tiny] [--tamper]
//
// Runs one named workload, an ensemble of scenarios seeded from N, in this
// process for about S seconds and prints, as the last stdout line, one JSON
// object with the keys correct / attempted / failed / metrics.  --trace 0
// reports the end-to-end metrics; --trace 1 runs an untraced and a traced
// pass over the ensemble and reports the per-layer metrics, writing the
// traced spans to DIR/trace-<workload>-<seed>.json.
//
// Everything is measured from outside the library: the benchmark times its
// own calls into public entry points and reads counters the library already
// publishes in ClusterExperiment::registry().  Each member run's output is
// checked outside the timed phase (invariant registry + a fingerprint of
// the simulated results that must repeat across runs of the member); a
// failed or throwing run counts in `failed` and makes the exit code non-zero.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/congestion.h"
#include "analysis/flowstats.h"
#include "analysis/traffic_matrix.h"
#include "ckpt/snapshot.h"
#include "core/experiment.h"
#include "obs/obs.h"
#include "testing/invariants.h"
#include "tomography/estimators.h"
#include "tomography/metrics.h"
#include "tomography/routing.h"
#include "trace/codec.h"
#include "host_probe.h"
#include "tracer.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using dct::ClusterExperiment;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Metric catalogue (BENCHMARK.json lists the same names and units)
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"flows_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"trace_bytes_per_flow", "bytes"},
};

constexpr MetricDef kPerLayer[] = {
    {"flowsim.run_s", "s"},
    {"flowsim.recompute_s", "s"},
    {"flowsim.loop_s", "s"},
    {"flowsim.events_processed", "count"},
    {"flowsim.events_per_flow", "ratio"},
    {"flowsim.recomputes", "count"},
    {"flowsim.ns_per_event", "ns"},
    {"trace.encode_s", "s"},
    {"trace.decode_s", "s"},
    {"trace.decode_mb_per_s", "MB/s"},
    {"trace.encoded_bytes", "bytes"},
    {"analysis.tm_s", "s"},
    {"analysis.utilization_s", "s"},
    {"analysis.congestion_s", "s"},
    {"analysis.flowstats_s", "s"},
    {"tomography.tomogravity_s", "s"},
    {"tomography.job_prior_s", "s"},
    {"tomography.sparsity_max_s", "s"},
    {"tomography.windows", "count"},
    {"parallel.tasks_executed", "count"},
    {"parallel.queue_high_water", "count"},
    {"ckpt.run_s", "s"},
    {"ckpt.resume_s", "s"},
    {"ckpt.wal_records_appended", "count"},
    {"ckpt.wal_records_verified", "count"},
    {"ckpt.snapshots_written", "count"},
    {"ckpt.snapshot_bytes", "bytes"},
    {"ckpt.wal_bytes", "bytes"},
    {"bench.attribution_residual_frac", "ratio"},
    {"bench.trace_overhead_frac", "ratio"},
};

/// Per-layer values measured in one member run or set-up.  A metric whose
/// stage did not run is absent, never 0 (see cover_layers).
using Samples = std::map<std::string, double>;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Mean of the values left after dropping the lowest and the highest
/// `frac` of them.
double trimmed_mean(std::vector<double> v, double frac) {
  std::sort(v.begin(), v.end());
  const auto cut = static_cast<std::size_t>(frac * double(v.size()));
  return std::accumulate(v.begin() + cut, v.end() - cut, 0.0) / double(v.size() - 2 * cut);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * double(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// "median m, pXX x (n=N)": the highest percentile with at least ten samples
/// above it, or none when n < 20.
std::string distribution(const std::vector<double>& v) {
  std::ostringstream os;
  os << std::setprecision(6) << "median " << median(v);
  if (v.size() >= 20) {
    const double p = std::floor(100.0 * (1.0 - 10.0 / double(v.size())));
    os << ", p" << p << " " << percentile(v, p / 100.0);
  }
  os << " (n=" << v.size() << ")";
  return os.str();
}

// ---------------------------------------------------------------------------
// Library-side helpers
// ---------------------------------------------------------------------------

/// A metric the library published, or nullopt when it never registered it
/// (stage did not run, or a DCT_OBS=OFF build).  Histograms yield their sum.
std::optional<double> registry_value(const dct::obs::Registry& reg,
                                     const std::string& full_name) {
  for (const dct::obs::Metric* m : reg.metrics()) {
    if (m->full_name() != full_name) continue;
    switch (m->kind) {
      case dct::obs::MetricKind::kCounter:
        return double(m->counter->value());
      case dct::obs::MetricKind::kGauge:
        return m->gauge->value();
      case dct::obs::MetricKind::kHistogram:
        return m->histogram->sum();
    }
  }
  return std::nullopt;
}

/// Adds the flowsim layer's duration and counters for one finished run()
/// into `s`.  Read before the output check: its codec.round_trip feeds the
/// process-global codec counters into the most recently constructed
/// experiment's registry.
void add_flowsim(const ClusterExperiment& exp, double run_s, Samples& s) {
  const auto& reg = exp.registry();
  s["flowsim.run_s"] += run_s;
  if (const auto n = registry_value(reg, "flowsim.events_processed")) {
    s["flowsim.events_processed"] += *n;
  }
  if (const auto n = registry_value(reg, "flowsim.recomputes")) s["flowsim.recomputes"] += *n;
  if (const auto ns = registry_value(reg, "flowsim.recompute_wall_ns")) {
    s["flowsim.recompute_s"] += *ns * 1e-9;
  }
}

/// Adds one member's per-layer values into a pass total: a high-water mark
/// takes the maximum, everything else adds up.
void accumulate(Samples& total, const Samples& member) {
  for (const auto& [name, v] : member) {
    total[name] = name == "parallel.queue_high_water" ? std::max(total[name], v) : total[name] + v;
  }
}

/// The ratios of a pass total, once every member is in.
void derive(Samples& s, std::size_t flows) {
  const auto has = [&](const char* k) { return s.count(k) != 0; };
  if (has("flowsim.events_processed") && flows > 0) {
    s["flowsim.events_per_flow"] = s["flowsim.events_processed"] / double(flows);
  }
  if (has("flowsim.run_s") && has("flowsim.events_processed") &&
      s["flowsim.events_processed"] > 0) {
    s["flowsim.ns_per_event"] = s["flowsim.run_s"] * 1e9 / s["flowsim.events_processed"];
  }
  if (has("flowsim.run_s") && has("flowsim.recompute_s")) {
    s["flowsim.loop_s"] = s["flowsim.run_s"] - s["flowsim.recompute_s"];
  }
  if (has("trace.decode_s") && has("trace.encoded_bytes") && s["trace.decode_s"] > 0) {
    s["trace.decode_mb_per_s"] = s["trace.encoded_bytes"] / s["trace.decode_s"] / 1e6;
  }
}

struct Fnv {
  std::uint64_t h = dct::ckpt::kFnvOffset;
  Fnv& bytes(std::span<const std::uint8_t> b) {
    h = dct::ckpt::fnv1a(h, b);
    return *this;
  }
  template <class T>
  Fnv& value(T v) {
    std::uint8_t b[sizeof v];
    std::memcpy(b, &v, sizeof v);
    return bytes(b);
  }
};

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

/// The deliberate-bug hook of the smoke test: a codec round trip of the real
/// trace plus one flow that sent more bytes than it requested.
dct::ClusterTrace tampered_copy(const dct::ClusterTrace& real) {
  dct::ClusterTrace copy = dct::decode_trace(dct::encode_trace(real));
  dct::FlowRecord bogus{};
  bogus.id = dct::FlowId{987654};
  bogus.src = dct::ServerId{0};
  bogus.dst = dct::ServerId{1};
  bogus.bytes_requested = 1'000'000;
  bogus.bytes_sent = bogus.bytes_requested + 1000;
  bogus.start = 0.25;
  bogus.end = 0.75;
  copy.record_flow(bogus);
  return copy;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Fingerprint of what simulations produced: equal on every run of one
/// member, and changed by any change to simulated results or to the
/// analyses' outputs.  A workload's fingerprint folds in its members'.
struct Fingerprint {
  std::size_t flows = 0;
  std::int64_t jobs_submitted = 0;
  std::int64_t jobs_completed = 0;
  std::uint64_t bytes = 0;
  std::uint64_t fnv = dct::ckpt::kFnvOffset;

  void add(const Fingerprint& m) {
    flows += m.flows;
    jobs_submitted += m.jobs_submitted;
    jobs_completed += m.jobs_completed;
    bytes += m.bytes;
    fnv = Fnv{fnv}.value(m.fnv).h;
  }
  bool operator==(const Fingerprint&) const = default;
  [[nodiscard]] std::string str() const {
    std::ostringstream os;
    os << "flows=" << flows << " jobs=" << jobs_submitted << "/" << jobs_completed
       << " bytes=" << bytes << " fnv=" << hex(fnv);
    return os.str();
  }
};

/// What one run of one ensemble member measured.
struct MemberResult {
  double seconds = 0;  ///< host seconds in the timed phase
  int root = -1;       ///< the timed phase's root span (traced runs)
  std::size_t encoded_bytes = 0;
  Fingerprint fingerprint;
  std::vector<std::string> violations;
  Samples layer;

  /// Seconds spent in spans named `name` during the timed phase.
  [[nodiscard]] double span_seconds(const Tracer& t, const std::string& name) const {
    return root >= 0 ? seconds_in(t.spans(), root, name) : 0.0;
  }
};

/// Runs `body` as the member's timed phase, under its own root span.
template <class F>
void timed(Tracer& t, MemberResult& r, F&& body) {
  const auto t0 = Clock::now();
  {
    SpanScope root(t, "bench.run");
    r.root = root.index();
    body();
  }
  r.seconds = since(t0);
}

/// Runs `body` as one set-up and records its duration.
template <class F>
void timed_setup(std::vector<double>& setup_s, F&& body) {
  const auto t0 = Clock::now();
  body();
  setup_s.push_back(since(t0));
}

/// The output check of one finished member, outside the timed phase: takes
/// the member's fingerprint and runs the invariant registry over `trace`
/// (the experiment's trace or a decoded copy of it).  With `tamper` the
/// registry sees a planted bad copy instead.
void check_member(ClusterExperiment& exp, const dct::ClusterTrace& trace,
                  std::span<const std::uint8_t> encoded, std::uint64_t results,
                  bool tamper, MemberResult& r) {
  r.encoded_bytes = encoded.size();
  r.fingerprint.flows = trace.flow_count();
  r.fingerprint.jobs_submitted = exp.workload_stats().jobs_submitted;
  r.fingerprint.jobs_completed = exp.workload_stats().jobs_completed;
  r.fingerprint.bytes = exp.trace().total_bytes();
  r.fingerprint.fnv = Fnv{}.bytes(encoded).value(results).h;
  std::optional<dct::ClusterTrace> bad;
  if (tamper) bad.emplace(tampered_copy(trace));
  dct::testing::RunUnderTest run{exp, bad ? &*bad : &trace};
  for (const auto& v : dct::testing::InvariantRegistry::builtin().check_all(run).violations) {
    r.violations.push_back(v.invariant + ": " + v.detail);
  }
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// One-off set-up before any member runs; appends each set-up's seconds.
  virtual void prepare(Tracer&, Samples&, std::vector<double>&) {}
  [[nodiscard]] virtual std::size_t members() const = 0;
  /// One run of member `k`: its set-up (if per run), timed phase and output
  /// check.
  virtual MemberResult run_member(Tracer& t, std::size_t k, bool tamper,
                                  std::vector<double>& setup_s) = 0;

  /// Times the host probe; called before and after each member run and
  /// before each one-off set-up, outside timed phases.
  void probe_host() { probes_.push_back(host_probe_s()); }
  /// The host probe's times so far.
  [[nodiscard]] const std::vector<double>& probes() const noexcept { return probes_; }

 private:
  std::vector<double> probes_;
};

/// sim_canonical / sim_paper_scale: run() plus the analyses run_scenario
/// prints, on a fresh experiment per run.
class SimWorkload final : public Workload {
 public:
  explicit SimWorkload(std::vector<dct::ScenarioConfig> members)
      : members_(std::move(members)) {}

  [[nodiscard]] std::size_t members() const override { return members_.size(); }

  MemberResult run_member(Tracer& t, std::size_t k, bool tamper,
                          std::vector<double>& setup_s) override {
    MemberResult r;
    std::unique_ptr<ClusterExperiment> exp;
    timed_setup(setup_s, [&] {
      SpanScope s(t, "core.construct");
      exp = std::make_unique<ClusterExperiment>(members_[k]);
    });
    Fnv results;
    double run_s = 0;
    timed(t, r, [&] {
      {
        SpanScope s(t, "flowsim.run");
        const auto t0 = Clock::now();
        exp->run();
        run_s = since(t0);
      }
      const dct::LinkUtilizationMap* util = nullptr;
      {
        SpanScope s(t, "analysis.utilization");
        util = &exp->utilization();
      }
      {
        SpanScope s(t, "analysis.congestion");
        results.value(dct::congestion_report(*util, exp->topology(), 0.7).frac_links_hot_10s);
      }
      {
        SpanScope s(t, "analysis.flowstats");
        results.value(dct::flow_duration_stats(exp->trace()).frac_flows_under_10s);
      }
      {
        SpanScope s(t, "analysis.utilization");
        for (const auto& tier : dct::utilization_summary(*util, exp->topology()).tiers) {
          results.value(tier.mean).value(tier.p99);
        }
      }
    });
    add_flowsim(*exp, run_s, r.layer);
    check_member(*exp, exp->trace(), dct::encode_trace(exp->trace()), results.h, tamper, r);
    for (const char* stage : {"analysis.utilization", "analysis.congestion", "analysis.flowstats"}) {
      r.layer[std::string(stage) + "_s"] = r.span_seconds(t, stage);
    }
    return r;
  }

 private:
  std::vector<dct::ScenarioConfig> members_;
};

/// figures_paper_scale: the paper's figure pipeline over simulated traces,
/// on a 2-thread analysis pool.  Simulating the traces is set-up.
class FiguresWorkload final : public Workload {
 public:
  explicit FiguresWorkload(std::vector<dct::ScenarioConfig> members)
      : members_(std::move(members)), pool_(2) {}

  [[nodiscard]] std::size_t members() const override { return members_.size(); }

  void prepare(Tracer& t, Samples& layer, std::vector<double>& setup_s) override {
    for (const auto& cfg : members_) {
      probe_host();
      timed_setup(setup_s, [&] {
        {
          SpanScope s(t, "core.construct");
          exps_.push_back(std::make_unique<ClusterExperiment>(cfg));
        }
        SpanScope s(t, "flowsim.run");
        const auto t0 = Clock::now();
        exps_.back()->run();
        add_flowsim(*exps_.back(), since(t0), layer);
      });
    }
  }

  MemberResult run_member(Tracer& t, std::size_t k, bool tamper,
                          std::vector<double>&) override {
    MemberResult r;
    const ClusterExperiment& exp = *exps_[k];
    const std::uint64_t tasks0 = pool_.tasks_executed();
    std::vector<std::uint8_t> encoded;
    std::optional<dct::ClusterTrace> decoded;
    Fnv results;
    std::size_t windows = 0;
    timed(t, r, [&] { windows = pipeline(t, exp, encoded, decoded, results); });
    check_member(*exps_[k], *decoded, encoded, results.h, tamper, r);
    for (const char* name :
         {"trace.encode", "trace.decode", "analysis.tm", "analysis.utilization",
          "analysis.congestion", "analysis.flowstats", "tomography.tomogravity",
          "tomography.job_prior", "tomography.sparsity_max"}) {
      r.layer[std::string(name) + "_s"] = r.span_seconds(t, name);
    }
    r.layer["trace.encoded_bytes"] = double(encoded.size());
    r.layer["tomography.windows"] = double(windows);
    r.layer["parallel.tasks_executed"] = double(pool_.tasks_executed() - tasks0);
    r.layer["parallel.queue_high_water"] = double(pool_.queue_high_water());
    return r;
  }

 private:
  /// encode -> decode -> TMs -> utilization + congestion -> flow statistics
  /// -> per-window tomography.  Returns the tomography windows evaluated.
  std::size_t pipeline(Tracer& t, const ClusterExperiment& exp,
                       std::vector<std::uint8_t>& encoded,
                       std::optional<dct::ClusterTrace>& decoded, Fnv& results) {
    using namespace dct;
    ThreadPool* pool = &pool_;
    const Topology& topo = exp.topology();
    // A pooled call: its span carries the pool tasks it ran.
    const auto pooled = [&](const char* name, const auto& fn) {
      SpanScope s(t, name);
      const std::uint64_t before = pool->tasks_executed();
      auto result = fn();
      s.arg("parallel.tasks", double(pool->tasks_executed() - before));
      return result;
    };

    {
      SpanScope s(t, "trace.encode");
      encoded = encode_trace(exp.trace());
      s.arg("bytes", double(encoded.size()));
    }
    decoded.emplace(pooled("trace.decode", [&] {
      DecodeOptions opts;
      opts.pool = pool;
      return decode_trace(encoded, opts);
    }));
    const ClusterTrace& trace = *decoded;

    std::vector<SparseTm> tor10;
    for (const double window : {1.0, 10.0, 100.0}) {
      for (const TmScope scope : {TmScope::kServer, TmScope::kToR}) {
        auto tms = pooled("analysis.tm", [&] {
          return build_tm_series(trace, topo, window, scope, pool);
        });
        for (const auto& tm : tms) results.value(tm.total());
        if (window == 10.0 && scope == TmScope::kToR) tor10 = std::move(tms);
      }
    }
    const auto util = pooled("analysis.utilization", [&] {
      return utilization_from_trace(trace, topo, 1.0, pool);
    });
    results.value(pooled("analysis.congestion", [&] {
                    return congestion_report(util, topo, 0.7, pool);
                  }).frac_links_hot_10s);
    pooled("analysis.flowstats", [&] {
      results.value(flow_duration_stats(trace, pool).frac_flows_under_10s);
      results.value(flow_size_stats(trace, pool).p99);
      for (const ArrivalScope scope :
           {ArrivalScope::kCluster, ArrivalScope::kToR, ArrivalScope::kServer}) {
        results.value(inter_arrival_stats(trace, topo, scope, pool).median_ms);
      }
      return 0;
    });

    // Fig. 12's evaluation of the three estimators on every 10 s ToR matrix.
    std::optional<RoutingMatrix> routing;
    std::vector<std::vector<double>> activity;
    {
      SpanScope s(t, "tomography.setup");
      routing.emplace(topo);
      activity = job_tor_activity(trace, topo);
    }
    std::size_t windows = 0;
    for (const auto& sparse : tor10) {
      if (sparse.total() <= 0 || sparse.nonzero_count() < 3) continue;
      ++windows;
      std::optional<DenseTorTm> truth, gravity_est, prior, job_est, sparse_est;
      std::vector<double> loads;
      {
        SpanScope s(t, "tomography.window");
        truth.emplace(DenseTorTm::from_sparse(sparse));
        loads = routing->link_loads(*truth);
      }
      {
        SpanScope s(t, "tomography.tomogravity");
        gravity_est.emplace(tomogravity(*routing, loads));
      }
      {
        SpanScope s(t, "tomography.job_prior");
        prior.emplace(job_augmented_prior(*routing, loads, activity));
      }
      {
        SpanScope s(t, "tomography.tomogravity");
        job_est.emplace(tomogravity(*routing, loads, *prior));
      }
      {
        SpanScope s(t, "tomography.sparsity_max");
        sparse_est.emplace(sparsity_max(*routing, loads));
      }
      {
        SpanScope s(t, "tomography.rmsre");
        results.value(rmsre(*truth, *gravity_est))
            .value(rmsre(*truth, *job_est))
            .value(rmsre(*truth, *sparse_est));
      }
    }
    return windows;
  }

  std::vector<dct::ScenarioConfig> members_;
  std::vector<std::unique_ptr<ClusterExperiment>> exps_;
  dct::ThreadPool pool_;
};

/// ckpt_canonical: a checkpointed run() (WAL append + snapshots), then
/// resume() of the completed directory in a fresh experiment (WAL scan +
/// replay verify).
class CkptWorkload final : public Workload {
 public:
  CkptWorkload(std::vector<dct::ScenarioConfig> members, const fs::path& dir)
      : members_(std::move(members)), dir_(dir) {
    // Disk noise stays out: the directory lives in the checkout, and with
    // fsync off its writes stop at the page cache, as on a RAM-backed disk.
    for (auto& cfg : members_) {
      cfg.checkpoint.dir = dir_.string();
      cfg.checkpoint.fsync = false;
    }
  }
  ~CkptWorkload() override { fs::remove_all(dir_); }
  CkptWorkload(const CkptWorkload&) = delete;
  CkptWorkload& operator=(const CkptWorkload&) = delete;

  [[nodiscard]] std::size_t members() const override { return members_.size(); }

  MemberResult run_member(Tracer& t, std::size_t k, bool tamper,
                          std::vector<double>& setup_s) override {
    MemberResult r;
    std::unique_ptr<ClusterExperiment> run, resume;
    fs::remove_all(dir_);  // every run starts from an empty directory
    timed_setup(setup_s, [&] {
      SpanScope s(t, "core.construct");
      run = std::make_unique<ClusterExperiment>(members_[k]);
      resume = std::make_unique<ClusterExperiment>(members_[k]);
    });
    timed(t, r, [&] {
      {
        SpanScope s(t, "ckpt.run");
        run->run();
      }
      SpanScope s(t, "ckpt.resume");
      resume->resume(dir_.string());
    });
    // The checkpointed run() is flowsim plus WAL and snapshot work, so
    // flowsim's time is not separable here; the cover pass measures flowsim.
    const auto& written = run->checkpoint_manager()->counters();
    const auto& verified = resume->checkpoint_manager()->counters();
    r.layer["ckpt.wal_records_appended"] = double(written.wal_records_appended);
    r.layer["ckpt.snapshots_written"] = double(written.snapshots_written);
    r.layer["ckpt.wal_records_verified"] = double(verified.wal_records_verified);
    r.layer["ckpt.snapshot_bytes"] = 0;
    for (const auto& e : fs::directory_iterator(dir_)) {
      if (e.path().extension() == ".dsnp") r.layer["ckpt.snapshot_bytes"] += double(e.file_size());
      if (e.path().filename() == "trace.dwal") r.layer["ckpt.wal_bytes"] = double(e.file_size());
    }
    r.layer["ckpt.run_s"] = r.span_seconds(t, "ckpt.run");
    r.layer["ckpt.resume_s"] = r.span_seconds(t, "ckpt.resume");

    const auto encoded = dct::encode_trace(run->trace());
    if (dct::encode_trace(resume->trace()) != encoded) {
      r.violations.push_back("ckpt.resume: resumed trace differs from the run's");
    }
    if (verified.wal_records_verified != written.wal_records_appended) {
      r.violations.push_back("ckpt.resume: not every appended WAL record was verified");
    }
    check_member(*run, run->trace(), encoded, 0, tamper, r);
    return r;
  }

 private:
  std::vector<dct::ScenarioConfig> members_;
  fs::path dir_;
};

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  ///< --preset tiny: every member on the tiny preset (smoke test)
  bool tamper = false;
  std::string out_dir = ".";
  std::string git_rev = "unknown";
};

/// A workload's stated size: `members` scenarios of `duration` simulated
/// seconds each, seeded from --seed.  The simulator's cost varies by about
/// a third from seed to seed, so a workload is an ensemble of many short
/// scenarios, sized so that one pass over it takes about 15 s of a 20 s
/// run on the host the benchmark was defined on (README.md).
struct Size {
  int members;
  double duration;
};
constexpr Size kSimCanonical{52, 60.0};
constexpr Size kSimPaperScale{26, 40.0};
constexpr Size kFiguresPaperScale{16, 40.0};
constexpr Size kCkptCanonical{30, 60.0};
constexpr Size kTiny{2, 60.0};

/// The scenarios of the workload's ensemble.
std::vector<dct::ScenarioConfig> member_configs(const Options& opt) {
  const auto members = [&](auto preset, Size size) {
    if (opt.tiny) {
      preset = dct::scenarios::tiny;
      size = kTiny;
    }
    std::vector<dct::ScenarioConfig> out;
    for (int k = 0; k < size.members; ++k) {
      out.push_back(preset(size.duration, opt.seed * std::uint64_t(size.members) + k));
    }
    return out;
  };
  if (opt.workload == "sim_canonical") return members(dct::scenarios::canonical, kSimCanonical);
  if (opt.workload == "sim_paper_scale") {
    return members(dct::scenarios::paper_scale, kSimPaperScale);
  }
  if (opt.workload == "figures_paper_scale") {
    return members(dct::scenarios::paper_scale, kFiguresPaperScale);
  }
  if (opt.workload == "ckpt_canonical") return members(dct::scenarios::canonical, kCkptCanonical);
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  auto members = member_configs(opt);
  if (opt.workload.starts_with("sim_")) return std::make_unique<SimWorkload>(std::move(members));
  if (opt.workload == "figures_paper_scale") {
    return std::make_unique<FiguresWorkload>(std::move(members));
  }
  return std::make_unique<CkptWorkload>(std::move(members),
                                        fs::path(opt.out_dir) / ("ckpt-" + std::to_string(opt.seed)));
}

/// What the cover pass measured, and its runs' outcomes.
struct Cover {
  Samples layer;
  int attempted = 0;
  std::vector<std::string> violations;
};

/// Every per-layer metric is reported on every workload, and a layer that
/// never ran is not reported as free.  So the layers a workload's timed
/// phase does not exercise (`missing` names their metrics) are measured
/// once, after the timed passes, on the workload's first member: the figure
/// pipeline (codec, TMs, analyses, tomography, the pool, and flowsim in its
/// set-up) and/or a checkpointed run() + resume().  Its spans sit under a
/// `bench.cover` root, outside every timed phase.
Cover cover_layers(const Options& opt, Tracer& t, const std::set<std::string>& missing) {
  const auto any_in = [&](std::initializer_list<std::string_view> layers) {
    return std::any_of(missing.begin(), missing.end(), [&](const std::string& m) {
      return std::any_of(layers.begin(), layers.end(),
                         [&](std::string_view l) { return m.starts_with(l); });
    });
  };
  const dct::ScenarioConfig cfg = member_configs(opt).front();
  Cover c;
  std::vector<double> unused_setup_s;
  t.set_enabled(true);
  SpanScope root(t, "bench.cover");
  Samples figures_layer, ckpt_layer;
  const auto add = [&](const MemberResult& r, Samples& into) {
    ++c.attempted;
    c.violations.insert(c.violations.end(), r.violations.begin(), r.violations.end());
    accumulate(into, r.layer);
    derive(into, r.fingerprint.flows);
    c.layer.insert(into.begin(), into.end());
  };
  if (any_in({"flowsim.", "trace.", "analysis.", "tomography.", "parallel."})) {
    FiguresWorkload figures({cfg});
    figures.prepare(t, figures_layer, unused_setup_s);
    add(figures.run_member(t, 0, false, unused_setup_s), figures_layer);
  }
  if (any_in({"ckpt."})) {
    CkptWorkload ckpt({cfg}, fs::path(opt.out_dir) / ("cover-ckpt-" + std::to_string(opt.seed)));
    add(ckpt.run_member(t, 0, false, unused_setup_s), ckpt_layer);
  }
  return c;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void print_value(std::ostream& os, const std::optional<double>& v) {
  if (v && std::isfinite(*v)) {
    os << *v;
  } else {
    os << "null";
  }
}

int run(const Options& opt) {
  auto workload = make_workload(opt);
  Tracer tracer;
  std::cout << std::setprecision(17);
  std::cout << "provenance: workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace
            << " preset=" << (opt.tiny ? "tiny" : "default") << " git_rev=" << opt.git_rev
            << " nproc=" << std::thread::hardware_concurrency() << " cpu=\"" << cpu_model()
            << "\" compiler=\"" << __VERSION__ << "\" build_type=" << PERFBENCH_BUILD_TYPE
            << " dct_obs=" << (dct::obs::kEnabled ? "on" : "off") << std::endl;

  std::vector<double> setup_s;
  Samples traced;  // per-layer totals: traced set-up plus the traced pass
  tracer.set_enabled(opt.trace);
  workload->prepare(tracer, traced, setup_s);

  // Every run of member k is checked, and its fingerprint must equal the
  // one of its first run.
  const std::size_t n = workload->members();
  std::vector<std::optional<Fingerprint>> first(n);
  std::vector<double> wall(n);  // member k's last run, set-up and check included
  int attempted = 0, failed = 0;
  const auto run_one = [&](std::size_t k, bool trace) -> std::optional<MemberResult> {
    tracer.set_enabled(trace);
    ++attempted;
    const auto t0 = Clock::now();
    try {
      workload->probe_host();
      MemberResult r = workload->run_member(tracer, k, opt.tamper, setup_s);
      workload->probe_host();
      wall[k] = since(t0);
      bool ok = r.violations.empty();
      if (!ok) {
        std::cout << "member " << k << " FAILED its output check:\n";
        for (const auto& v : r.violations) std::cout << "  " << v << "\n";
      }
      if (!first[k]) {
        first[k] = r.fingerprint;
      } else if (*first[k] != r.fingerprint) {
        ok = false;
        std::cout << "member " << k << " FAILED: its results differ between runs of one seed\n";
      }
      if (!ok) ++failed;
      return r;
    } catch (const std::exception& e) {
      wall[k] = since(t0);
      ++failed;
      std::cout << "member " << k << " FAILED: threw " << e.what() << "\n";
      return std::nullopt;
    }
  };

  // The timed loop: one untraced pass over every member, then, with
  // --trace 1, one traced pass over every member (their difference is the
  // tracing overhead).  Without it, members run again, in order from the
  // first, while the next one still fits in opt.seconds, and at least the
  // first member runs twice.  A member's time is its median over its
  // untraced runs.
  std::vector<std::vector<double>> member_s(n);
  std::vector<double> traced_s;
  std::vector<int> traced_roots;
  Fingerprint fingerprint;
  std::size_t encoded_bytes = 0;
  const auto loop_start = Clock::now();
  for (std::size_t k = 0; k < n; ++k) {
    if (const auto r = run_one(k, false)) {
      member_s[k].push_back(r->seconds);
      fingerprint.add(r->fingerprint);
      encoded_bytes += r->encoded_bytes;
    }
  }
  if (opt.trace) {
    for (std::size_t k = 0; k < n; ++k) {
      if (const auto r = run_one(k, true)) {
        traced_s.push_back(r->seconds);
        traced_roots.push_back(r->root);
        accumulate(traced, r->layer);
      }
    }
  } else {
    std::size_t k = 0;
    do {
      if (const auto r = run_one(k, false)) member_s[k].push_back(r->seconds);
      k = (k + 1) % n;
    } while (since(loop_start) + wall[k] <= opt.seconds);
  }

  bool correct = failed == 0;
  std::cout << "fingerprint: members=" << n << " " << fingerprint.str() << "\n";
  const std::size_t flows = fingerprint.flows;
  if (flows == 0 || std::any_of(member_s.begin(), member_s.end(),
                                [](const auto& v) { return v.empty(); })) {
    std::cout << "FAILED: a member never completed\n";
    return 1;
  }

  std::vector<double> medians;
  std::size_t runs = 0;
  for (const auto& v : member_s) {
    medians.push_back(median(v));
    runs += v.size();
  }
  const double raw_run_s = std::accumulate(medians.begin(), medians.end(), 0.0);
  // End-to-end times are reported in reference-host seconds: host seconds
  // scaled by how much slower than its reference the probe ran in this run.
  // A mean, not a median: when the host switches between fast and slow
  // phases, the run's time follows the share of it spent in each.  The trim
  // drops probes a preemption hit.
  const double probe_s = trimmed_mean(workload->probes(), 0.1);
  const double to_reference = kReferenceProbeS / probe_s;
  std::cout << "host seconds (raw): setup_s " << distribution(setup_s) << "; run_s "
            << raw_run_s << " = sum over " << n << " members of each one's median over "
            << runs << " untraced runs; per member " << distribution(medians) << "\n"
            << "host probe: 10%-trimmed mean " << probe_s << " s, "
            << distribution(workload->probes()) << ", reference "
            << kReferenceProbeS << " s, scale " << to_reference << "\n";
  std::map<std::string, std::optional<double>> metrics;
  if (!opt.trace) {
    const double run_s = raw_run_s * to_reference;
    metrics["setup_s"] = median(setup_s) * to_reference;
    metrics["run_s"] = run_s;
    metrics["flows_per_s"] = double(flows) / run_s;
    metrics["peak_rss_mb"] = peak_rss_mb();
    metrics["trace_bytes_per_flow"] = double(encoded_bytes) / double(flows);
  } else {
    derive(traced, flows);
    // Attribution: the traced pass's timed phases against the layer self
    // times their spans account for.
    std::map<std::string, double> self;
    double total = 0;
    for (const int root : traced_roots) {
      total += tracer.spans()[static_cast<std::size_t>(root)].seconds();
      for (const auto& [l, v] : self_seconds_by_layer(tracer.spans(), root)) self[l] += v;
    }
    double attributed = 0;
    for (const auto& [l, v] : self) {
      attributed += v;
      std::cout << "self time " << l << ": " << v << " s\n";
    }
    const double traced_run_s = std::accumulate(traced_s.begin(), traced_s.end(), 0.0);
    double untraced_run_s = 0;
    for (const auto& v : member_s) untraced_run_s += v.front();
    std::cout << "run_s traced: " << traced_run_s << ", untraced: " << untraced_run_s << "\n";
    traced["bench.attribution_residual_frac"] = 1.0 - attributed / total;
    traced["bench.trace_overhead_frac"] = traced_run_s / untraced_run_s - 1.0;

    std::set<std::string> missing;
    for (const auto& [name, unit] : kPerLayer) {
      if (traced.count(name) != 0) {
        metrics[name] = traced[name];
      } else {
        missing.insert(name);
      }
    }
    if (!missing.empty()) {
      const Cover cover = cover_layers(opt, tracer, missing);
      attempted += cover.attempted;
      if (!cover.violations.empty()) {
        ++failed;
        correct = false;
        std::cout << "cover pass FAILED its output check:\n";
        for (const auto& v : cover.violations) std::cout << "  " << v << "\n";
      }
      std::cout << "cover pass (first member, outside the timed phase) measured:";
      for (const auto& name : missing) {
        const auto it = cover.layer.find(name);
        if (it == cover.layer.end()) continue;
        metrics[name] = it->second;
        std::cout << " " << name;
      }
      std::cout << "\n";
    }
    const fs::path path =
        fs::path(opt.out_dir) / ("trace-" + opt.workload + "-" + std::to_string(opt.seed) + ".json");
    tracer.write_chrome_json(path.string());
    std::cout << "wrote " << tracer.spans().size() << " spans to " << path.string() << "\n";
  }

  std::cout << "member runs: attempted=" << attempted << " failed=" << failed
            << " failed_frac=" << double(failed) / attempted << "\n";
  const std::span<const MetricDef> defs =
      opt.trace ? std::span<const MetricDef>(kPerLayer) : std::span<const MetricDef>(kEndToEnd);
  bool complete = true;
  for (const auto& [name, unit] : defs) {
    std::cout << "metric " << name << " = ";
    print_value(std::cout, metrics[name]);
    std::cout << " " << unit << "\n";
    complete = complete && metrics[name] && std::isfinite(*metrics[name]);
  }
  if (!complete) {
    std::cout << "FAILED: a metric was not measured\n";
    return 1;
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << defs[i].name << "\": {\"value\": ";
    print_value(std::cout, metrics[defs[i].name]);
    std::cout << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench --workload sim_canonical|sim_paper_scale|"
               "figures_paper_scale|ckpt_canonical\n"
               "                 [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]\n"
               "                 [--git-rev REV] [--preset tiny] [--tamper]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = next();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(next());
    } else if (arg == "--trace") {
      opt.trace = next() == "1";
    } else if (arg == "--out-dir") {
      opt.out_dir = next();
    } else if (arg == "--git-rev") {
      opt.git_rev = next();
    } else if (arg == "--preset") {
      if (next() != "tiny") usage();
      opt.tiny = true;
    } else if (arg == "--tamper") {
      opt.tamper = true;
    } else {
      usage();
    }
  }
  if (opt.workload.empty()) usage();
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // One process runs many experiments in turn.  With glibc's defaults, how
  // the heap serves a member depends on what earlier members allocated and
  // freed (the mmap threshold adapts, freed memory is trimmed or kept), so
  // the same member's time changes with the ensemble around it.  A fixed
  // threshold and no trimming keep one warm heap that every member reuses.
  if (mallopt(M_MMAP_THRESHOLD, 32 << 20) != 1 || mallopt(M_TRIM_THRESHOLD, 1 << 30) != 1) {
    std::cerr << "perfbench: mallopt failed\n";
    return 1;
  }
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
