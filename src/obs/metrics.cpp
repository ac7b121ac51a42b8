#include "obs/metrics.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace xbarlife::obs {

void HistogramMetric::observe(double sample) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++count_;
  sum_ += sample;
  min_ = std::min(min_, sample);
  max_ = std::max(max_, sample);
}

std::uint64_t HistogramMetric::count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double HistogramMetric::sum() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double HistogramMetric::min() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return min_;
}

double HistogramMetric::max() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

double HistogramMetric::mean() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

void HistogramMetric::combine(const HistogramMetric& other) {
  // Copy under the source lock first so combine(self) cannot deadlock.
  std::uint64_t ocount;
  double osum;
  double omin;
  double omax;
  {
    const std::lock_guard<std::mutex> lock(other.mu_);
    ocount = other.count_;
    osum = other.sum_;
    omin = other.min_;
    omax = other.max_;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  count_ += ocount;
  sum_ += osum;
  min_ = std::min(min_, omin);
  max_ = std::max(max_, omax);
}

namespace {

template <typename Map>
auto& find_or_create(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name),
                     std::make_unique<typename Map::mapped_type::element_type>())
             .first;
  }
  return *it->second;
}

template <typename Map>
bool contains(const Map& map, std::string_view name) {
  return map.find(name) != map.end();
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  XB_CHECK(!contains(gauges_, name) && !contains(histograms_, name),
           "metric name already used for a different kind: " +
               std::string(name));
  return find_or_create(counters_, name);
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  XB_CHECK(!contains(counters_, name) && !contains(histograms_, name),
           "metric name already used for a different kind: " +
               std::string(name));
  return find_or_create(gauges_, name);
}

HistogramMetric& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  XB_CHECK(!contains(counters_, name) && !contains(gauges_, name),
           "metric name already used for a different kind: " +
               std::string(name));
  return find_or_create(histograms_, name);
}

void Registry::merge_from(const Registry& other) {
  XB_CHECK(&other != this, "cannot merge a registry into itself");
  // Lock ordering: other is only read, this only written; both maps are
  // only mutated (inserted into) under their own mutex.
  std::scoped_lock lock(mu_, other.mu_);
  for (const auto& [name, c] : other.counters_) {
    find_or_create(counters_, name).add(c->value());
  }
  for (const auto& [name, g] : other.gauges_) {
    if (g->has_value()) {
      find_or_create(gauges_, name).set(g->value());
    }
  }
  for (const auto& [name, h] : other.histograms_) {
    find_or_create(histograms_, name).combine(*h);
  }
}

JsonValue Registry::to_json(std::string_view exclude_suffix) const {
  const auto excluded = [&](const std::string& name) {
    return !exclude_suffix.empty() && name.size() >= exclude_suffix.size() &&
           name.compare(name.size() - exclude_suffix.size(),
                        exclude_suffix.size(), exclude_suffix) == 0;
  };
  const std::lock_guard<std::mutex> lock(mu_);
  JsonValue counters = JsonValue::object();
  for (const auto& [name, c] : counters_) {
    if (!excluded(name)) {
      counters.set(name, c->value());
    }
  }
  JsonValue gauges = JsonValue::object();
  for (const auto& [name, g] : gauges_) {
    if (!excluded(name) && g->has_value()) {
      gauges.set(name, g->value());
    }
  }
  JsonValue histograms = JsonValue::object();
  for (const auto& [name, h] : histograms_) {
    if (excluded(name) || h->count() == 0) {
      continue;
    }
    JsonValue summary = JsonValue::object();
    summary.set("count", h->count());
    summary.set("sum", h->sum());
    summary.set("min", h->min());
    summary.set("max", h->max());
    summary.set("mean", h->mean());
    histograms.set(name, std::move(summary));
  }
  JsonValue out = JsonValue::object();
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  return out;
}

JsonValue Registry::counters_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  JsonValue out = JsonValue::object();
  for (const auto& [name, c] : counters_) {
    out.set(name, c->value());
  }
  return out;
}

void Registry::visit_counters(
    const std::function<void(const std::string&, std::uint64_t)>& fn) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) {
    fn(name, c->value());
  }
}

std::size_t Registry::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace xbarlife::obs
