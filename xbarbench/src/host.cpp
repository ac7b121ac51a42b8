#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <thread>

#include "bench.hpp"
#include "tensor/kernels/kernels.hpp"
#include "xbar/executor.hpp"

namespace xbarbench {

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double calib_ms() {
  const std::uint64_t start = now_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  double acc = 0.0;
  for (int i = 0; i < 4000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x & 0xffffU) * 1e-9;
  }
  volatile double sink = acc;
  (void)sink;
  return seconds_since(start) * 1e3;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

}  // namespace

xl::obs::JsonValue host_stamp(const std::string& rev) {
  xl::obs::JsonValue h = xl::obs::JsonValue::object();
  h.set("hardware_concurrency",
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  h.set("cpu_model", cpu_model());
  h.set("compiler", XBARBENCH_COMPILER);
  h.set("build_type", XBARBENCH_BUILD_TYPE);
  h.set("kernel", xl::kernels::kernel_name());
  h.set("executor", xl::xbar::executor_name());
  h.set("rev", rev);
  return h;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

}  // namespace xbarbench
