// xbarbench: the end-to-end benchmark of the xbarlife lifetime workload.
//
// One process runs one workload (a LeNet-5 lifetime scenario or the
// Table I sweep) through the library's public entry points, checks the
// simulated statistics against a --threads 1 reference, and prints one
// JSON result line. See run.py for the command-line contract.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/scenario_runner.hpp"
#include "obs/json.hpp"

namespace xbarbench {

namespace xl = xbarlife;

enum class Kind { kSingle, kSweep };

struct Workload {
  std::string name;
  std::string why;
  Kind kind = Kind::kSingle;
  xl::core::Scenario scenario = xl::core::Scenario::kSTAT;
  bool faulty = false;       ///< install the hardware-fault model
  std::size_t threads = 1;   ///< shared pool size for the timed runs
  std::string command;       ///< equivalent xbarlife CLI at the default seed
};

inline constexpr std::uint64_t kDefaultSeed = 7;

const std::vector<Workload>& workloads();
/// Throws xbarlife::InvalidArgument naming the known workloads.
const Workload& find_workload(std::string_view name);

/// The shipped lenet5 config with its drift and fault seeds derived from
/// `seed`; kDefaultSeed reproduces the shipped config. The sweep's runner
/// forks every seed (training and data too) from `seed` itself.
xl::core::ExperimentConfig workload_config(const Workload& w,
                                           std::uint64_t seed);

/// FNV-1a digest of the simulated statistics: lifetime, sessions, death,
/// per-session iterations, accuracies, pulses and rescue rungs. Wall
/// clocks are excluded, so equal inputs give equal digests.
std::uint64_t digest(const xl::core::ScenarioOutcome& o);
std::uint64_t digest(const xl::core::ScenarioSweepEntry& e);
std::string hex(std::uint64_t v);

/// Flat metric map, name -> value; units live in metric_unit().
using Metrics = std::map<std::string, double>;

// --- host ---------------------------------------------------------------

/// Process user+sys CPU seconds so far.
double cpu_seconds();
/// Process peak resident set size in MiB.
double peak_rss_mb();
/// Wall ms of a fixed scalar loop: the host-speed probe recorded beside
/// every timed rep, so a slow neighbour is told apart from a slow change.
double calib_ms();
/// hardware_concurrency, CPU model, compiler, build type, kernel variant,
/// executor and source revision.
xl::obs::JsonValue host_stamp(const std::string& rev);

double seconds_since(std::uint64_t start_ns);
std::uint64_t now_ns();
/// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

// --- traced run -----------------------------------------------------------

struct TracedRun {
  xl::core::ScenarioOutcome outcome;
  double lifetime_s = 0.0;
  Metrics metrics;  ///< per-layer metrics of this run
};

/// Runs one scenario with the program's obs handle attached and a timing
/// decorator around every NN layer, then replays the layers without a
/// seam (GEMM/im2col, program execution, deploy, sync) on the run's own
/// state at the shapes and counts it recorded.
TracedRun traced_single(const xl::core::ExperimentConfig& cfg,
                        xl::core::Scenario scenario);

}  // namespace xbarbench
