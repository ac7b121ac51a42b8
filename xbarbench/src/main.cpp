// xbarbench: one process, one workload, one JSON result line.
//
//   xbarbench --workload NAME --seed N --seconds S --trace 0|1
//             [--refs DIR] [--rev REV]
//   xbarbench --list            workloads and metric tables (JSON)
//   xbarbench --self-test       digest/correctness-gate self checks
//
// --trace 0 repeats timed reps (set-up + measured phase) for about S
// seconds and reports the end-to-end metrics as medians over the reps.
// --trace 1 runs one untraced rep, then the traced run, and reports the
// per-layer metrics. Every rep's simulated statistics must match the
// --threads 1 reference for the same workload, seed, kernel variant and
// source revision (cached under --refs); a mismatch, exception, failed or
// timed-out job counts as a failed operation.
//
// The last stdout line is the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// and the line before it is the full record (host stamp, per-rep samples,
// digests, lifetime and Table I statistics) that compare.py reads.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/lifetime.hpp"
#include "tensor/kernels/kernels.hpp"

namespace xbarbench {
namespace {

using xl::core::ExperimentConfig;
using xl::core::Scenario;
using xl::core::ScenarioOutcome;
using xl::core::ScenarioSweepEntry;
using xl::obs::JsonValue;

constexpr double kJobTimeoutMs = 150000.0;
/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 3;
/// Paper Table I, LeNet-5: ST+T and ST+AT lifetimes over T+T.
constexpr double kPaperSttRatio = 6.0;
constexpr double kPaperStatRatio = 8.0;

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better = {};  ///< "lower" / "higher"; per-layer metrics: ""
};

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "lower"},
      {"lifetime_s", "s", "lower"},
      {"sweep_s", "s", "lower"},
      {"iterations_per_s", "1/s", "higher"},
      {"cpu_s", "s", "lower"},
      {"peak_rss_mb", "MiB", "lower"},
  };
  return defs;
}

const char* const kNnLayers[] = {"conv1", "tanh1", "pool1", "conv2",
                                 "tanh2", "pool2", "fc1",   "tanh3",
                                 "fc2",   "tanh4", "fc3"};

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"nn.evaluate_ms", "ms"}, {"nn.evaluate_calls", "count"},
        {"nn.grad_ms", "ms"},     {"nn.grad_calls", "count"}};
    for (const char* l : kNnLayers) {
      d.push_back({std::string("nn.") + l + ".fwd_ms", "ms"});
      d.push_back({std::string("nn.") + l + ".bwd_ms", "ms"});
    }
    const std::vector<MetricDef> rest = {
        {"tensor.gemm_ms", "ms"},
        {"tensor.gemm_gflops", "GFLOP/s"},
        {"tensor.im2col_ms", "ms"},
        {"tensor.flops", "count"},
        {"mapping.select_ms", "ms"},
        {"mapping.select_calls", "count"},
        {"mapping.deploy_fresh_ms", "ms"},
        {"xbar.pulses", "count"},
        {"xbar.sequences", "count"},
        {"xbar.pulses_per_batch", "count"},
        {"xbar.program_ms", "ms"},
        {"xbar.mpulses_per_s", "M/s"},
        {"aging.traced_frac", "fraction"},
        {"resilience.rung.retry", "count"},
        {"resilience.rung.remap", "count"},
        {"resilience.rung.fault_mask", "count"},
        {"resilience.rung.spare_rows", "count"},
        {"tuning.session_ms_p50", "ms"},
        {"tuning.session_ms_p90", "ms"},
        {"tuning.iterations", "count"},
        {"tuning.converged_frac", "fraction"},
        {"tuning.sync_ms", "ms"},
        {"core.session_ms_p50", "ms"},
        {"core.session_ms_p90", "ms"},
        {"core.session_self_ms", "ms"},
        {"core.rescues", "count"},
        {"core.train_s", "s"},
        {"data.synth_ms", "ms"},
        {"core.sweep_parallel_eff", "fraction"},
        {"core.sweep_job_s_max", "s"},
        {"common.cpu_per_wall", "fraction"},
        {"obs.trace_overhead_frac", "fraction"},
        {"obs.attributed_frac", "fraction"},
        {"host.calib_ms", "ms"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

// --- set-up and measured phase ---------------------------------------------

/// Everything a single-run workload builds before the first deploy.
struct Prepared {
  xl::data::TrainTest data;
  xl::nn::Network net;
  std::unique_ptr<xl::tuning::HardwareNetwork> hw;
  double software_accuracy = 0.0;
  double tuning_target = 0.0;
};

std::unique_ptr<Prepared> prepare(const ExperimentConfig& cfg, Scenario s) {
  auto p = std::make_unique<Prepared>();
  xl::core::TrainedModel tm =
      xl::core::train_model(cfg, xl::core::uses_skewed_training(s));
  p->data = xl::data::make_synthetic(cfg.dataset);
  p->net = std::move(tm.network);
  p->software_accuracy = tm.history.final_test_accuracy;
  p->tuning_target = cfg.absolute_tuning_target > 0.0
                         ? cfg.absolute_tuning_target
                         : cfg.target_accuracy_fraction * p->software_accuracy;
  p->hw = std::make_unique<xl::tuning::HardwareNetwork>(
      p->net, cfg.device, cfg.aging, cfg.faults);
  return p;
}

ScenarioOutcome run_lifetime(const ExperimentConfig& cfg, Scenario s,
                             Prepared& p) {
  ScenarioOutcome o;
  o.scenario = s;
  o.software_accuracy = p.software_accuracy;
  o.tuning_target = p.tuning_target;
  xl::core::LifetimeConfig lc = cfg.lifetime;
  lc.tuning.target_accuracy = p.tuning_target;
  xl::core::LifetimeSimulator sim(lc);
  const xl::JobDeadline deadline(kJobTimeoutMs, "lifetime");
  o.lifetime = sim.run(*p.hw, p.data.train, p.data.test,
                       xl::core::mapping_policy(s));
  return o;
}

struct SweepSetup {
  xl::core::ScenarioRunner runner;
  std::vector<xl::core::ScenarioJob> jobs;
};

SweepSetup prepare_sweep(const Workload& w, std::uint64_t seed) {
  SweepSetup s{xl::core::ScenarioRunner(seed), {}};
  s.runner.set_job_timeout_ms(kJobTimeoutMs);
  s.jobs = xl::core::ScenarioRunner::cross(
      workload_config(w, seed),
      {Scenario::kTT, Scenario::kSTT, Scenario::kSTAT}, 1);
  return s;
}

/// One timed rep: set-up plus measured phase, with its digests.
struct Rep {
  double setup_s = 0.0;
  double measured_s = 0.0;  ///< LifetimeSimulator::run or the sweep
  double lifetime_s = 0.0;  ///< single: measured_s; sweep: slowest job
  double cpu_s = 0.0;
  double calib_ms = 0.0;
  double wall_s = 0.0;  ///< the whole rep, set-ups included
  std::size_t sessions = 0;
  std::size_t iterations = 0;  ///< tuning iterations, all sessions
  std::uint64_t pulses = 0;    ///< programming pulses, all jobs
  std::vector<std::uint64_t> digests;  ///< one per operation (job)
  std::vector<bool> op_failed;
  std::vector<ScenarioOutcome> outcomes;
  std::vector<ScenarioSweepEntry> entries;  ///< sweep only
  std::string error;
};

Rep run_rep(const Workload& w, std::uint64_t seed, std::size_t setups) {
  Rep rep;
  const std::uint64_t rep_t0 = now_ns();
  const ExperimentConfig cfg = workload_config(w, seed);
  std::vector<double> setup_samples;
  rep.calib_ms = calib_ms();
  try {
    if (w.kind == Kind::kSingle) {
      std::unique_ptr<Prepared> p;
      for (std::size_t i = 0; i < setups; ++i) {
        const std::uint64_t t0 = now_ns();
        p = prepare(cfg, w.scenario);
        setup_samples.push_back(seconds_since(t0));
      }
      const double cpu0 = cpu_seconds();
      const std::uint64_t t0 = now_ns();
      rep.outcomes.push_back(run_lifetime(cfg, w.scenario, *p));
      rep.measured_s = seconds_since(t0);
      rep.cpu_s = cpu_seconds() - cpu0;
      rep.lifetime_s = rep.measured_s;
      rep.sessions = rep.outcomes[0].lifetime.sessions.size();
      rep.digests.push_back(digest(rep.outcomes[0]));
      rep.op_failed.push_back(false);
    } else {
      // The sweep's set-up (job list, runner) takes microseconds: time it
      // in batches so the median is not clock granularity.
      constexpr std::size_t kBatch = 20;
      std::optional<SweepSetup> s;
      for (std::size_t i = 0; i < 17 * setups; ++i) {
        const std::uint64_t t0 = now_ns();
        for (std::size_t j = 0; j < kBatch; ++j) {
          s.emplace(prepare_sweep(w, seed));
        }
        setup_samples.push_back(seconds_since(t0) / kBatch);
      }
      const double cpu0 = cpu_seconds();
      const std::uint64_t t0 = now_ns();
      rep.entries = s->runner.run(s->jobs);
      rep.measured_s = seconds_since(t0);
      rep.cpu_s = cpu_seconds() - cpu0;
      for (const ScenarioSweepEntry& e : rep.entries) {
        rep.lifetime_s = std::max(rep.lifetime_s, e.wall_ms * 1e-3);
        rep.sessions += e.outcome.lifetime.sessions.size();
        rep.digests.push_back(digest(e));
        rep.op_failed.push_back(e.failed);
        rep.outcomes.push_back(e.outcome);
        if (e.failed && rep.error.empty()) {
          rep.error = e.label + ": " + e.error;
        }
      }
    }
  } catch (const std::exception& e) {
    rep.error = e.what();
    rep.digests.assign(w.kind == Kind::kSweep ? 3 : 1, 0);
    rep.op_failed.assign(rep.digests.size(), true);
  }
  for (const ScenarioOutcome& o : rep.outcomes) {
    for (const xl::core::SessionRecord& s : o.lifetime.sessions) {
      rep.iterations += s.tuning_iterations;
    }
    if (!o.lifetime.sessions.empty()) {
      rep.pulses += o.lifetime.sessions.back().pulses_total;
    }
  }
  rep.setup_s = median(setup_samples);
  rep.wall_s = seconds_since(rep_t0);
  return rep;
}

// --- reference digests -------------------------------------------------------

std::string ref_path(const std::string& dir, const Workload& w,
                     std::uint64_t seed, const std::string& rev) {
  return dir + "/" + w.name + "-s" + std::to_string(seed) + "-" +
         xl::kernels::kernel_name() + "-" + rev + ".ref";
}

std::vector<std::uint64_t> load_ref(const std::string& path) {
  std::vector<std::uint64_t> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      out.push_back(std::stoull(line, nullptr, 16));
    }
  }
  return out;
}

void save_ref(const std::string& path, const std::vector<std::uint64_t>& d) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    for (const std::uint64_t v : d) {
      out << hex(v) << "\n";
    }
  }
  std::filesystem::rename(tmp, path);
}

/// The --threads 1 reference: cached per workload, seed, kernel variant
/// and source revision; computed (untimed) when absent. A workload that
/// already runs at one thread takes its reference from its first rep.
std::vector<std::uint64_t> reference(const Workload& w, std::uint64_t seed,
                                     const std::string& refs,
                                     const std::string& rev,
                                     std::optional<Rep>& first_rep) {
  const std::string path = ref_path(refs, w, seed, rev);
  std::vector<std::uint64_t> ref = load_ref(path);
  if (!ref.empty()) {
    return ref;
  }
  xl::set_parallel_threads(1);
  Rep r = run_rep(w, seed, w.threads == 1 ? kSetups : 1);
  if (!r.error.empty()) {
    throw xl::Error("reference run failed: " + r.error);
  }
  save_ref(path, r.digests);
  if (w.threads == 1) {
    first_rep = std::move(r);
  }
  return load_ref(path);
}

// --- output --------------------------------------------------------------------

JsonValue metrics_json(const Metrics& m, const std::vector<MetricDef>& defs) {
  JsonValue out = JsonValue::object();
  for (const MetricDef& d : defs) {
    const auto it = m.find(d.name);
    if (it == m.end()) {
      throw xl::Error("metric not computed: " + d.name);
    }
    JsonValue v = JsonValue::object();
    v.set("value", it->second);
    v.set("unit", d.unit);
    out.set(d.name, std::move(v));
  }
  return out;
}

JsonValue defs_json(const std::vector<MetricDef>& defs) {
  JsonValue out = JsonValue::array();
  for (const MetricDef& d : defs) {
    JsonValue v = JsonValue::object();
    v.set("name", d.name);
    v.set("unit", d.unit);
    if (!d.better.empty()) {
      v.set("better", d.better);
    }
    out.push_back(std::move(v));
  }
  return out;
}

JsonValue rep_json(const Rep& r) {
  JsonValue v = JsonValue::object();
  v.set("setup_s", r.setup_s);
  v.set("measured_s", r.measured_s);
  v.set("lifetime_s", r.lifetime_s);
  v.set("cpu_s", r.cpu_s);
  v.set("calib_ms", r.calib_ms);
  v.set("sessions", r.sessions);
  v.set("iterations", r.iterations);
  v.set("pulses", r.pulses);
  JsonValue ds = JsonValue::array();
  for (const std::uint64_t d : r.digests) {
    ds.push_back(hex(d));
  }
  v.set("digests", std::move(ds));
  if (!r.error.empty()) {
    v.set("error", r.error);
  }
  return v;
}

/// Science summary of a rep: lifetime in applications and, for the
/// sweep, the Table I ratios and their error against the paper.
JsonValue science_json(const Workload& w, const Rep& r) {
  JsonValue v = JsonValue::object();
  if (r.outcomes.empty()) {
    return v;
  }
  const auto apps = [&](Scenario s) {
    for (const ScenarioOutcome& o : r.outcomes) {
      if (o.scenario == s) {
        return static_cast<double>(o.lifetime.lifetime_applications);
      }
    }
    return 0.0;
  };
  v.set("lifetime_apps",
        apps(w.kind == Kind::kSweep ? Scenario::kSTAT : w.scenario));
  if (w.kind == Kind::kSweep && apps(Scenario::kTT) > 0.0) {
    const double stt = apps(Scenario::kSTT) / apps(Scenario::kTT);
    const double stat = apps(Scenario::kSTAT) / apps(Scenario::kTT);
    v.set("ratio_stt_tt", stt);
    v.set("ratio_stat_tt", stat);
    v.set("table1_ratio_err",
          0.5 * (std::fabs(stt / kPaperSttRatio - 1.0) +
                 std::fabs(stat / kPaperStatRatio - 1.0)));
  }
  return v;
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string refs = ".bench_build/refs";
  std::string rev = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      throw xl::InvalidArgument("missing value for " + k);
    }
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v);
    } else if (k == "--refs") {
      a.refs = v;
    } else if (k == "--rev") {
      a.rev = v;
    } else {
      throw xl::InvalidArgument("unknown argument " + k);
    }
  }
  if (a.workload.empty() || (a.trace != 0 && a.trace != 1) ||
      !(a.seconds > 0.0)) {
    throw xl::InvalidArgument(
        "usage: xbarbench --workload NAME --seed N --seconds S --trace 0|1");
  }
  return a;
}

/// Checks one rep's digests against the reference; returns failed ops.
std::size_t check(const Rep& r, const std::vector<std::uint64_t>& ref) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < r.digests.size(); ++i) {
    if (r.op_failed[i] || i >= ref.size() || r.digests[i] != ref[i]) {
      ++failed;
    }
  }
  return failed;
}

int run(const Args& a) {
  const Workload& w = find_workload(a.workload);
  xl::kernels::select();
  std::optional<Rep> first;
  const std::vector<std::uint64_t> ref =
      reference(w, a.seed, a.refs, a.rev, first);
  xl::set_parallel_threads(w.threads);

  JsonValue record = JsonValue::object();
  record.set("schema", "xbarbench.run.v1");
  record.set("workload", w.name);
  record.set("seed", a.seed);
  record.set("trace", a.trace);
  record.set("threads", w.threads);
  record.set("command", w.command);
  record.set("host", host_stamp(a.rev));
  JsonValue refs_json = JsonValue::array();
  for (const std::uint64_t d : ref) {
    refs_json.push_back(hex(d));
  }
  record.set("reference", std::move(refs_json));

  std::vector<Rep> reps;
  if (first.has_value()) {
    reps.push_back(std::move(*first));
  }
  if (a.trace == 0) {
    // Reps while the next one fits in the --seconds budget (an untimed
    // reference run does not count); the first rep sets up kSetups times
    // so setup_s is a median.
    double spent = 0.0;
    for (const Rep& r : reps) {
      spent += r.wall_s;
    }
    while (reps.empty() || spent + reps.back().wall_s <= a.seconds) {
      reps.push_back(run_rep(w, a.seed, reps.empty() ? kSetups : 1));
      spent += reps.back().wall_s;
    }
  } else if (reps.empty()) {
    reps.push_back(run_rep(w, a.seed, 1));
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const Rep& r : reps) {
    attempted += r.digests.size();
    failed += check(r, ref);
  }

  const auto pick = [&](double Rep::*field) {
    std::vector<double> v;
    for (const Rep& r : reps) {
      v.push_back(r.*field);
    }
    return median(v);
  };
  JsonValue science = science_json(w, reps.front());
  Metrics out;
  std::vector<MetricDef> defs;
  if (a.trace == 0) {
    out["setup_s"] = pick(&Rep::setup_s);
    out["lifetime_s"] = pick(&Rep::lifetime_s);
    // Single-run workloads are a fan-out of one job: set-up plus lifetime.
    std::vector<double> job, rate;
    for (const Rep& r : reps) {
      job.push_back(w.kind == Kind::kSweep ? r.measured_s
                                           : r.setup_s + r.measured_s);
      rate.push_back(static_cast<double>(r.iterations) / r.measured_s);
    }
    out["sweep_s"] = median(job);
    out["iterations_per_s"] = median(rate);
    out["cpu_s"] = pick(&Rep::cpu_s);
    out["peak_rss_mb"] = peak_rss_mb();
    defs = end_to_end_defs();
  } else {
    const Rep& base = reps.front();
    ExperimentConfig cfg = workload_config(w, a.seed);
    std::uint64_t want = base.digests.front();
    // Untraced time of what the traced run repeats: the lifetime phase of
    // a single run; the whole straggler job (training included) in a sweep.
    double base_s = base.lifetime_s;
    if (w.kind == Kind::kSweep) {
      // Trace the straggler: the ST+AT job, rebuilt from its forked seeds.
      for (const ScenarioSweepEntry& e : base.entries) {
        if (e.scenario == Scenario::kSTAT) {
          cfg.seed = e.seed;
          cfg.dataset.seed = e.data_seed;
          cfg.lifetime.drift_seed = e.drift_seed;
          cfg.faults.fault_seed = e.fault_seed;
          want = digest(e.outcome);
          base_s = e.wall_ms * 1e-3;
        }
      }
      // Inside the fan-out a job's numerics run serially; trace it so.
      xl::set_parallel_threads(1);
    }
    ++attempted;
    TracedRun t;
    try {
      t = traced_single(cfg, w.scenario);
      if (digest(t.outcome) != want) {
        ++failed;
        record.set("traced_error", "traced digest differs from untraced");
      }
      out = t.metrics;
      const double traced_s =
          t.lifetime_s + (w.kind == Kind::kSweep ? out["core.train_s"] : 0.0);
      out["obs.trace_overhead_frac"] = traced_s / base_s - 1.0;
      record.set("traced_digest", hex(digest(t.outcome)));
    } catch (const std::exception& e) {
      ++failed;
      record.set("traced_error", e.what());
      for (const MetricDef& d : per_layer_defs()) {
        out[d.name] = 0.0;
      }
    }
    // A single run is a fan-out of one job: set-up plus lifetime.
    double job_sum = base.setup_s + base.measured_s;
    double fanout_s = job_sum;
    if (w.kind == Kind::kSweep) {
      job_sum = 0.0;
      for (const ScenarioSweepEntry& e : base.entries) {
        job_sum += e.wall_ms * 1e-3;
      }
      fanout_s = base.measured_s;
    }
    out["core.sweep_parallel_eff"] =
        job_sum / (static_cast<double>(w.threads) * fanout_s);
    out["core.sweep_job_s_max"] =
        w.kind == Kind::kSweep ? base.lifetime_s : job_sum;
    out["common.cpu_per_wall"] = base.cpu_s / base.measured_s;
    out["host.calib_ms"] = base.calib_ms;
    defs = per_layer_defs();
  }

  JsonValue reps_json = JsonValue::array();
  for (const Rep& r : reps) {
    reps_json.push_back(rep_json(r));
  }
  record.set("reps", std::move(reps_json));
  record.set("science", std::move(science));
  record.set("fail_frac",
             static_cast<double>(failed) / static_cast<double>(attempted));
  JsonValue metrics = metrics_json(out, defs);
  record.set("metrics", metrics);

  JsonValue result = JsonValue::object();
  result.set("correct", failed == 0);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", std::move(metrics));
  std::cout << record.dump() << "\n" << result.dump() << std::endl;
  return 0;
}

/// Self checks of the correctness gate: a perturbed outcome changes the
/// digest and is counted as a failed operation.
int self_test() {
  int bad = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    bad += ok ? 0 : 1;
  };
  ScenarioOutcome o;
  o.scenario = Scenario::kSTAT;
  o.software_accuracy = 0.98;
  o.tuning_target = 0.91;
  for (std::size_t s = 0; s < 4; ++s) {
    xl::core::SessionRecord rec;
    rec.session = s;
    rec.applications = 100000 * (s + 1);
    rec.tuning_iterations = 5 + s;
    rec.converged = true;
    rec.accuracy = 0.92;
    rec.pulses_total = 1000 * (s + 1);
    o.lifetime.sessions.push_back(rec);
  }
  o.lifetime.lifetime_applications = 400000;
  const std::uint64_t base = digest(o);
  expect(digest(o) == base, "digest is deterministic");

  const auto perturbed = [&](auto mutate) {
    ScenarioOutcome p = o;
    mutate(p);
    return digest(p) != base;
  };
  expect(perturbed([](ScenarioOutcome& p) {
           p.lifetime.sessions[2].accuracy = std::nextafter(0.92, 1.0);
         }),
         "one-ulp accuracy change is caught");
  expect(perturbed([](ScenarioOutcome& p) {
           p.lifetime.sessions[1].pulses_total += 1;
         }),
         "one extra pulse is caught");
  expect(perturbed([](ScenarioOutcome& p) {
           p.lifetime.sessions[3].rescue_rungs.push_back("retry");
         }),
         "an extra rescue rung is caught");
  expect(perturbed([](ScenarioOutcome& p) { p.lifetime.died = true; }),
         "death flag is caught");
  expect(perturbed([](ScenarioOutcome& p) {
           p.lifetime.sessions.pop_back();
         }),
         "a dropped session is caught");

  Rep rep;
  rep.digests = {base};
  rep.op_failed = {false};
  expect(check(rep, {base}) == 0, "matching rep passes the gate");
  expect(check(rep, {base ^ 1}) == 1, "perturbed reference fails the gate");
  rep.op_failed = {true};
  expect(check(rep, {base}) == 1, "failed job fails the gate");
  return bad == 0 ? 0 : 1;
}

int list() {
  JsonValue out = JsonValue::object();
  JsonValue ws = JsonValue::array();
  for (const Workload& w : workloads()) {
    JsonValue v = JsonValue::object();
    v.set("name", w.name);
    v.set("why", w.why);
    v.set("threads", w.threads);
    v.set("default_seed", kDefaultSeed);
    v.set("command", w.command);
    ws.push_back(std::move(v));
  }
  out.set("workloads", std::move(ws));
  out.set("end_to_end", defs_json(end_to_end_defs()));
  out.set("per_layer", defs_json(per_layer_defs()));
  std::cout << out.dump() << std::endl;
  return 0;
}

}  // namespace
}  // namespace xbarbench

int main(int argc, char** argv) {
  try {
    if (argc == 2 && std::string(argv[1]) == "--self-test") {
      return xbarbench::self_test();
    }
    if (argc == 2 && std::string(argv[1]) == "--list") {
      return xbarbench::list();
    }
    return xbarbench::run(xbarbench::parse(argc, argv));
  } catch (const xbarlife::InvalidArgument& e) {
    std::cerr << "xbarbench: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "xbarbench: " << e.what() << "\n";
    return 1;
  }
}
