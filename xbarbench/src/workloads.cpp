#include <cstring>
#include <sstream>

#include "bench.hpp"
#include "common/error.hpp"
#include "core/model_registry.hpp"

namespace xbarbench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"lenet5_stat",
       "ST+AT, ideal array, 1 thread, seed 7 (xbarlife lifetime --model "
       "lenet5 --scenario stat --threads 1): the paper headline; eval and "
       "Fig. 8 range selection dominate",
       Kind::kSingle, xl::core::Scenario::kSTAT, false, 1,
       "xbarlife lifetime --model lenet5 --scenario stat --threads 1"},
      {"lenet5_tt_faults",
       "T+T on a faulty array, 1 thread, seed 7 (xbarlife lifetime "
       "--scenario tt --threads 1 + fault flags, see run.py --list): grads, "
       "programming, every ladder rung",
       Kind::kSingle, xl::core::Scenario::kTT, true, 1,
       "xbarlife lifetime --model lenet5 --scenario tt --threads 1 "
       "--stuck-off 0.01 --stuck-on 0.005 --write-noise 0.02 "
       "--read-noise 0.01 --spare-rows 2"},
      {"lenet5_sweep",
       "Table I fan-out, 3 scenarios x 1 replicate, 3 threads, seed 7 "
       "(xbarlife sweep --model lenet5 --replicates 1 --threads 3): "
       "job-level pool, ST+AT straggler",
       Kind::kSweep, xl::core::Scenario::kSTAT, false, 3,
       "xbarlife sweep --model lenet5 --replicates 1 --threads 3"},
  };
  return all;
}

const Workload& find_workload(std::string_view name) {
  std::string known;
  for (const Workload& w : workloads()) {
    if (w.name == name) {
      return w;
    }
    known += (known.empty() ? "" : ", ") + w.name;
  }
  throw xl::InvalidArgument("unknown workload '" + std::string(name) +
                            "' (known: " + known + ")");
}

xl::core::ExperimentConfig workload_config(const Workload& w,
                                           std::uint64_t seed) {
  xl::core::ExperimentConfig cfg = xl::core::make_model_config("lenet5");
  // The seed picks the simulated hardware's inputs, the drift sequence and
  // the fault map; the trained network stays the shipped one. Over ten
  // seeds this keeps an ST+AT lifetime at 824-1027 tuning iterations,
  // against 706-1095 when every seed retrains the network. The offset
  // makes the default seed the shipped one.
  cfg.lifetime.drift_seed =
      seed + (cfg.lifetime.drift_seed - kDefaultSeed);
  // The CLI's --fault-seed defaults to the experiment seed.
  cfg.faults.fault_seed = seed;
  if (w.faulty) {
    cfg.faults.nonideal.stuck_off_fraction = 0.01;
    cfg.faults.nonideal.stuck_on_fraction = 0.005;
    cfg.faults.nonideal.write_noise_sigma = 0.02;
    cfg.faults.nonideal.read_noise_sigma = 0.01;
    cfg.faults.spare_rows = 2;
    cfg.faults.validate();
  }
  return cfg;
}

namespace {

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void add_outcome(Fnv& h, const xl::core::ScenarioOutcome& o) {
  h.u64(static_cast<std::uint64_t>(o.scenario));
  h.f64(o.software_accuracy);
  h.f64(o.tuning_target);
  const xl::core::LifetimeResult& life = o.lifetime;
  h.u64(life.lifetime_applications);
  h.u64(life.died ? 1 : 0);
  h.u64(life.sessions.size());
  for (const xl::core::SessionRecord& s : life.sessions) {
    h.u64(s.applications);
    h.u64(s.tuning_iterations);
    h.u64((s.rescued ? 1U : 0U) | (s.converged ? 2U : 0U) |
          (s.degraded ? 4U : 0U));
    h.f64(s.start_accuracy);
    h.f64(s.accuracy);
    h.u64(s.pulses_total);
    h.u64(s.rescue_rungs.size());
    for (const std::string& rung : s.rescue_rungs) {
      h.str(rung);
    }
    h.u64(s.cells_faulty);
    h.u64(s.cells_clamped);
    h.u64(s.cells_dead);
    for (const double r : s.layer_mean_aged_rmax) {
      h.f64(r);
    }
  }
}

}  // namespace

std::uint64_t digest(const xl::core::ScenarioOutcome& o) {
  Fnv h;
  add_outcome(h, o);
  return h.value();
}

std::uint64_t digest(const xl::core::ScenarioSweepEntry& e) {
  Fnv h;
  h.str(e.label);
  h.u64(e.failed ? 1 : 0);
  h.u64(e.seed);
  h.u64(e.data_seed);
  h.u64(e.drift_seed);
  h.u64(e.fault_seed);
  add_outcome(h, e.outcome);
  return h.value();
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

}  // namespace xbarbench
