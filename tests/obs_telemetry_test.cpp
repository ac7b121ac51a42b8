// Telemetry determinism tests: the summary histogram (empty state,
// merge-order invariance, thread-count invariance), the ProgressReporter
// heartbeat file, and the atomic file-replace primitive it builds on.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "persist/checkpoint.hpp"

namespace xbarlife::obs {
namespace {

using namespace std::chrono_literals;

// --- Histogram summary ------------------------------------------------

TEST(HistogramQuantiles, EmptyHistogramReportsZero) {
  const HistogramMetric h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

// --- Histogram merge determinism ---------------------------------------

void fill(HistogramMetric& h, std::uint64_t seed, int n) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    // A hostile mix: many binades, plus non-positive samples.
    const double u = rng.uniform();
    if (u < 0.1) {
      h.observe(-rng.uniform());
    } else {
      h.observe(std::ldexp(rng.uniform(1.0, 2.0),
                           static_cast<int>(rng.uniform_int(-20, 20))));
    }
  }
}

TEST(HistogramDeterminism, CombineIsCommutative) {
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // combine(a, b) must match combine(b, a) exactly in count, min and
    // max: two independently filled copies of each side, folded in
    // opposite orders.
    HistogramMetric a1, a2, b1, b2;
    fill(a1, 100 + trial, 500);
    fill(a2, 100 + trial, 500);
    fill(b1, 200 + trial, 300);
    fill(b2, 200 + trial, 300);
    a1.combine(b1);  // a + b
    b2.combine(a2);  // b + a
    EXPECT_EQ(a1.count(), b2.count());
    EXPECT_EQ(a1.min(), b2.min());
    EXPECT_EQ(a1.max(), b2.max());
  }
}

TEST(HistogramDeterminism, RegistryMergeIsFoldOrderInvariant) {
  // Shards merged in any order must serialize to identical bytes — the
  // property that makes threaded sweep snapshots byte-identical.
  constexpr std::size_t kShards = 4;
  const auto make_shard = [](std::size_t i) {
    auto reg = std::make_unique<Registry>();
    fill(reg->histogram("h.request_ms"), 42 + i, 200);
    reg->counter("jobs").add(i + 1);
    return reg;
  };
  std::vector<std::unique_ptr<Registry>> shards;
  for (std::size_t i = 0; i < kShards; ++i) {
    shards.push_back(make_shard(i));
  }
  const std::array<std::array<std::size_t, kShards>, 3> orders = {
      {{0, 1, 2, 3}, {3, 1, 0, 2}, {2, 3, 1, 0}}};
  std::vector<std::string> dumps;
  for (const auto& order : orders) {
    Registry parent;
    for (const std::size_t i : order) {
      parent.merge_from(*shards[i]);
    }
    dumps.push_back(parent.to_json().dump());
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[0], dumps[2]);
  EXPECT_NE(dumps[0].find("\"h.request_ms\""), std::string::npos);
}

TEST(HistogramDeterminism, ConcurrentObservesMatchSerialExactly) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<double> samples;
  Rng rng(777);
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    samples.push_back(rng.uniform(1e-6, 1e6));
  }

  HistogramMetric serial;
  for (const double s : samples) {
    serial.observe(s);
  }

  HistogramMetric threaded;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&threaded, &samples, t] {
      for (int i = 0; i < kPerThread; ++i) {
        threaded.observe(samples[static_cast<std::size_t>(
            t * kPerThread + i)]);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  // Count, min and max are exactly order-independent; only the fp sum
  // may differ.
  EXPECT_EQ(threaded.count(), serial.count());
  EXPECT_EQ(threaded.min(), serial.min());
  EXPECT_EQ(threaded.max(), serial.max());
}

// --- ProgressReporter ---------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "xbarlife_" + name;
}

TEST(ProgressReporterTest, PhaseWritesCompleteSnapshot) {
  const std::string path = temp_path("progress_phase.json");
  ProgressReporter reporter(path, "train");
  reporter.phase("train.epochs", 0, 10);
  const std::string doc = slurp(path);
  EXPECT_EQ(doc.find("{\"schema\":\"xbarlife.progress.v1\","
                     "\"command\":\"train\",\"phase\":\"train.epochs\","
                     "\"done\":0,\"total\":10,\"elapsed_ms\":"),
            0u);
  EXPECT_NE(doc.find("\"finished\":false"), std::string::npos);
  // No ETA before the first completed unit, no counters unattached.
  EXPECT_EQ(doc.find("\"eta_ms\""), std::string::npos);
  EXPECT_EQ(doc.find("\"counters\""), std::string::npos);
  EXPECT_EQ(doc.substr(doc.size() - 2), "}\n");
  std::remove(path.c_str());
}

TEST(ProgressReporterTest, TicksAreRateLimitedAndFinishForces) {
  const std::string path = temp_path("progress_rate.json");
  ProgressReporter reporter(path, "sweep", 1h);
  reporter.phase("sweep.jobs", 0, 4);
  reporter.tick();
  reporter.tick();
  // Inside the interval the file still shows the forced phase() snapshot.
  EXPECT_NE(slurp(path).find("\"done\":0"), std::string::npos);
  reporter.finish();
  const std::string doc = slurp(path);
  EXPECT_NE(doc.find("\"done\":2"), std::string::npos);
  EXPECT_NE(doc.find("\"finished\":true"), std::string::npos);
  EXPECT_EQ(doc.find("\"eta_ms\""), std::string::npos);  // finished: no ETA
  std::remove(path.c_str());
}

TEST(ProgressReporterTest, ZeroIntervalTicksWriteEveryTime) {
  const std::string path = temp_path("progress_tick.json");
  ProgressReporter reporter(path, "faults", 0ms);
  reporter.phase("faults.jobs", 0, 8);
  reporter.tick(3);
  const std::string doc = slurp(path);
  EXPECT_NE(doc.find("\"done\":3,\"total\":8"), std::string::npos);
  // One unit is done and the total is known: the ETA appears, right
  // after elapsed_ms as the schema pins it.
  EXPECT_NE(doc.find("\"eta_ms\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ProgressReporterTest, ResumedPhaseStartsPastZero) {
  const std::string path = temp_path("progress_resume.json");
  ProgressReporter reporter(path, "lifetime");
  reporter.phase("lifetime.sessions", 5, 8);
  EXPECT_NE(slurp(path).find("\"done\":5,\"total\":8"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ProgressReporterTest, CountersRollupSnapshotsTheRegistry) {
  const std::string path = temp_path("progress_counters.json");
  Registry registry;
  registry.counter("aging.pulses").add(42);
  ProgressReporter reporter(path, "train");
  reporter.attach_counters(&registry);
  reporter.phase("train.epochs", 1, 2);
  EXPECT_NE(slurp(path).find("\"counters\":{\"aging.pulses\":42}"),
            std::string::npos);
  registry.counter("aging.pulses").add(8);
  reporter.finish();
  EXPECT_NE(slurp(path).find("\"counters\":{\"aging.pulses\":50}"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(ProgressReporterTest, FinishIsIdempotent) {
  const std::string path = temp_path("progress_finish.json");
  ProgressReporter reporter(path, "train");
  reporter.phase("train.epochs", 2, 2);
  reporter.finish();
  reporter.finish();
  EXPECT_NE(slurp(path).find("\"finished\":true"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ProgressReporterTest, ForcedWritesPropagateTickSwallows) {
  const std::string bad = "/nonexistent-xbarlife-dir/progress.json";
  ProgressReporter forced(bad, "train");
  // phase() must fail fast: a bad --status-file path is a setup error.
  EXPECT_THROW(forced.phase("train.epochs", 0, 2), IoError);
  // ...but a rate-limited heartbeat must never kill the run it reports.
  ProgressReporter ticking(bad, "train", 0ms);
  EXPECT_NO_THROW(ticking.tick());
}

// --- write_file_atomic --------------------------------------------------

TEST(AtomicWriteTest, ReplacesContentWithoutTmpResidue) {
  const std::string path = temp_path("atomic.txt");
  persist::write_file_atomic(path, "first");
  persist::write_file_atomic(path, "second");
  EXPECT_EQ(slurp(path), "second");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(AtomicWriteTest, ThrowsIoErrorOnUnwritablePath) {
  EXPECT_THROW(
      persist::write_file_atomic("/nonexistent-xbarlife-dir/x.txt", "x"),
      IoError);
}

}  // namespace
}  // namespace xbarlife::obs
