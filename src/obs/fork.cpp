#include "obs/fork.hpp"

#include <utility>

namespace xbarlife::obs {

ObsFork::ObsFork(const Obs& parent, std::vector<std::string> labels)
    : parent_(parent), labels_(std::move(labels)) {
  if (!parent_.enabled()) {
    return;
  }
  children_.reserve(labels_.size());
  for (const std::string& label : labels_) {
    auto child = std::make_unique<Child>();
    std::vector<std::pair<std::string, JsonValue>> context;
    context.emplace_back("job", JsonValue(label));
    child->trace = std::make_unique<EventTrace>(
        parent_.trace_enabled() ? &child->sink : nullptr,
        std::move(context));
    if (parent_.profile_enabled()) {
      child->profiler = std::make_unique<Profiler>();
    }
    children_.push_back(std::move(child));
  }
}

Obs ObsFork::job(std::size_t i) {
  // Deliberately no progress handle: the campaign loop owns the phase
  // and ticks once per finished job on the parent Obs; letting a job's
  // inner phases (e.g. lifetime.sessions) through would clobber it.
  Obs handle;
  if (children_.empty()) {
    return handle;
  }
  Child& child = *children_[i];
  handle.metrics = parent_.metrics_enabled() ? &child.registry : nullptr;
  handle.trace = child.trace.get();
  handle.profiler = child.profiler.get();
  return handle;
}

std::vector<std::string> ObsFork::take_job_lines(std::size_t i) {
  if (children_.empty()) {
    return {};
  }
  Child& child = *children_[i];
  std::vector<std::string> lines = child.sink.lines();
  child.sink.clear();
  return lines;
}

void ObsFork::merge_into(
    const std::function<void(std::size_t)>& after_job) {
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (!children_.empty() && parent_.trace_enabled()) {
      for (const std::string& line : children_[i]->sink.lines()) {
        parent_.trace->emit_line(line);
      }
    }
    merge_metrics_and_profile(i);
    if (after_job) {
      after_job(i);
    }
  }
}

void ObsFork::merge_metrics_and_profile(std::size_t i) {
  if (children_.empty()) {
    return;
  }
  Child& child = *children_[i];
  if (parent_.metrics_enabled()) {
    parent_.metrics->merge_from(child.registry);
  }
  if (parent_.profile_enabled()) {
    parent_.profiler->adopt(*child.profiler, labels_[i]);
  }
}

}  // namespace xbarlife::obs
