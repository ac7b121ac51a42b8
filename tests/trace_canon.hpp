// Event-trace canonicalization for the resume and job-grid identity
// tests: what remains of a trace once the fields and lines that may
// differ between equivalent runs are removed.
#pragma once

#include <string>
#include <vector>

namespace xbarlife::test {

/// The persist meta events carry no seq and depend on the kill pattern,
/// so the resume contract excludes them (docs/output_schema.md).
inline bool is_meta_line(const std::string& line) {
  return line.rfind("{\"event\":\"checkpoint_saved\"", 0) == 0 ||
         line.rfind("{\"event\":\"resume\"", 0) == 0;
}

/// Drops one wall-clock field (t_ms / wall_ms) from an event line.
inline std::string strip_field(std::string line, const std::string& name) {
  const std::string needle = ",\"" + name + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return line;
  }
  std::size_t end = pos + needle.size();
  while (end < line.size() && line[end] != ',' && line[end] != '}') {
    ++end;
  }
  line.erase(pos, end - pos);
  return line;
}

/// Canonical trace text for resume comparisons: meta lines dropped, the
/// wall-clock fields (t_ms, span wall_ms) stripped, one event per line.
inline std::string canonical_trace(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    if (is_meta_line(line)) {
      continue;
    }
    out += strip_field(strip_field(line, "t_ms"), "wall_ms");
    out += '\n';
  }
  return out;
}

}  // namespace xbarlife::test
