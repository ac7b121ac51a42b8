// Metrics registry: named counters, gauges, and summary histograms.
//
// Thread-safety and determinism follow the repo's parallel contract
// (common/parallel.hpp): counter increments are atomic and commutative, so
// concurrent adds aggregate to the same total at any thread count; gauges
// and histograms are only written from orchestration code (one writer per
// registry), and fan-out layers give every job its own Registry and merge
// them in job-index order — the merged snapshot is therefore byte-identical
// between a serial and a threaded run.
//
// Metric handles returned by the registry are stable for the registry's
// lifetime; hot paths cache the pointer and pay one predictable branch when
// no metrics are attached.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace xbarlife::obs {

/// Monotonically increasing integer metric.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value metric. Single-writer (orchestration code); readers may
/// observe it concurrently.
class Gauge {
 public:
  void set(double v) {
    value_.store(v, std::memory_order_relaxed);
    set_.store(true, std::memory_order_release);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  bool has_value() const { return set_.load(std::memory_order_acquire); }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<bool> set_{false};
};

/// Streaming summary (count / sum / min / max) of observed samples.
class HistogramMetric {
 public:
  void observe(double sample);

  std::uint64_t count() const;
  double sum() const;
  double min() const;  ///< +inf when empty
  double max() const;  ///< -inf when empty
  double mean() const;  ///< 0 when empty

  /// Adds another summary into this one (used by Registry::merge_from).
  /// Commutative and associative up to fp addition of sums: count, min
  /// and max combine exactly.
  void combine(const HistogramMetric& other);

 private:
  mutable std::mutex mu_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Finds or creates the named metric. The returned reference stays valid
  /// for the registry's lifetime. A name addresses one metric kind only;
  /// reusing it for another kind throws InvalidArgument.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  HistogramMetric& histogram(std::string_view name);

  /// Folds `other` into this registry: counters add, histograms combine,
  /// and set gauges overwrite (callers merge in job-index order, so
  /// "latest job wins" is deterministic).
  void merge_from(const Registry& other);

  /// Snapshot as a JSON object with keys sorted by metric name:
  ///   {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,
  ///    min,max,mean}}}
  /// Unset gauges and empty histograms are skipped. Metrics whose name
  /// matches `exclude_suffix` (when non-empty) are dropped — the
  /// determinism tests use this to ignore wall-clock "*_ms" series.
  JsonValue to_json(std::string_view exclude_suffix = {}) const;

  /// Counters only, as a JSON object keyed by name (sorted). The cheap
  /// live rollup used by progress snapshots: Counter::add is atomic, so
  /// this is safe to call while jobs are still incrementing.
  JsonValue counters_json() const;

  /// Calls fn(name, value) for every counter in name order, without
  /// exposing the maps.
  void visit_counters(
      const std::function<void(const std::string&, std::uint64_t)>& fn) const;

  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>, std::less<>>
      histograms_;
};

}  // namespace xbarlife::obs
