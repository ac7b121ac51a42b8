// Fault-injection campaign engine: grid validation, per-job error
// isolation, thread-count determinism of the full result document, and
// byte-identical checkpoint resume (the "kill -9 the campaign" gate): one
// document and one trace whether or not a checkpoint is attached.
#include "core/fault_campaign.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/event_trace.hpp"
#include "obs/sink.hpp"
#include "trace_canon.hpp"

namespace xbarlife::core {
namespace {

/// Restores the serial default so test order never leaks thread state.
struct ThreadGuard {
  ~ThreadGuard() { set_parallel_threads(1); }
};

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.name = "campaign-tiny";
  cfg.model = ExperimentConfig::Model::kMlp;
  cfg.mlp_hidden = {16};
  cfg.dataset.classes = 4;
  cfg.dataset.channels = 1;
  cfg.dataset.height = 6;
  cfg.dataset.width = 6;
  cfg.dataset.train_per_class = 24;
  cfg.dataset.test_per_class = 6;
  cfg.dataset.noise = 0.1;
  cfg.train_config.epochs = 2;
  cfg.train_config.batch = 16;
  cfg.train_config.learning_rate = 0.05;
  cfg.lifetime.max_sessions = 4;
  cfg.lifetime.tuning.eval_samples = 24;
  cfg.lifetime.tuning.max_iterations = 20;
  cfg.target_accuracy_fraction = 0.8;
  return cfg;
}

FaultCampaignConfig tiny_campaign() {
  FaultCampaignConfig cc;
  cc.base = tiny_config();
  cc.replicates = 2;
  cc.campaign_seed = 33;
  FaultPoint clean;
  clean.label = "clean";
  cc.points.push_back(clean);
  FaultPoint faulty;
  faulty.label = "faulty";
  faulty.faults.nonideal.stuck_off_fraction = 0.05;
  faulty.faults.nonideal.write_noise_sigma = 0.03;
  faulty.faults.spare_rows = 2;
  cc.points.push_back(faulty);
  return cc;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

using test::canonical_trace;

TEST(FaultCampaignConfig, RejectsBadGrids) {
  FaultCampaignConfig cc = tiny_campaign();
  cc.points.clear();
  EXPECT_THROW(cc.validate(), InvalidArgument);

  cc = tiny_campaign();
  cc.points[1].label = cc.points[0].label;
  EXPECT_THROW(cc.validate(), InvalidArgument);

  cc = tiny_campaign();
  cc.points[0].label.clear();
  EXPECT_THROW(cc.validate(), InvalidArgument);

  cc = tiny_campaign();
  cc.replicates = 0;
  EXPECT_THROW(cc.validate(), InvalidArgument);

  cc = tiny_campaign();
  cc.points[1].faults.nonideal.stuck_off_fraction = 2.0;
  EXPECT_THROW(cc.validate(), InvalidArgument);
}

TEST(FaultCampaign, ThreadedRunMatchesSerialByteForByte) {
  ThreadGuard guard;
  const FaultCampaignConfig cc = tiny_campaign();

  set_parallel_threads(1);
  const std::string serial =
      fault_campaign_json(cc.campaign_seed, run_fault_campaign(cc)).dump();
  set_parallel_threads(4);
  const std::string threaded =
      fault_campaign_json(cc.campaign_seed, run_fault_campaign(cc)).dump();

  EXPECT_EQ(serial, threaded);
  EXPECT_NE(serial.find("\"label\":\"faulty/ST+AT/r1\""),
            std::string::npos);
}

TEST(FaultCampaign, FailedJobsAreRecordedNotFatal) {
  FaultCampaignConfig cc = tiny_campaign();
  cc.replicates = 1;
  // A one-level quantizer cannot exist: every job throws InvalidArgument
  // inside the fan-out. The campaign must record the failures per entry
  // and still assemble a complete result document.
  cc.base.lifetime.levels = 1;
  const CheckpointedSweepOutcome result = run_fault_campaign(cc);
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(result.failed_jobs, result.jobs.size());
  const std::string doc = fault_campaign_json(cc.campaign_seed, result).dump();
  EXPECT_NE(doc.find("\"failed\":true"), std::string::npos);
  EXPECT_NE(doc.find("two levels"), std::string::npos);
}

/// Runs `cc` with an in-memory trace; returns the campaign document and
/// fills `lines` with the event stream.
std::string traced_campaign(const FaultCampaignConfig& cc,
                            CheckpointedSweepOutcome& outcome,
                            std::vector<std::string>& lines) {
  obs::MemorySink sink;
  obs::EventTrace trace(&sink);
  obs::Obs obs;
  obs.trace = &trace;
  outcome = run_fault_campaign(cc, obs);
  lines = sink.lines();
  return fault_campaign_json(cc.campaign_seed, outcome).dump();
}

TEST(FaultCampaign, CheckpointResumeIsByteIdentical) {
  ThreadGuard guard;
  set_parallel_threads(2);
  // 9 points x 2 replicates = 18 jobs: more than one 16-job chunk.
  FaultCampaignConfig cc = tiny_campaign();
  for (int p = 1; p <= 7; ++p) {
    FaultPoint point;
    point.label = "wn" + std::to_string(p);
    point.faults.nonideal.write_noise_sigma = 0.01 * p;
    cc.points.push_back(point);
  }

  // Reference: one uninterrupted run, no checkpoint. Every
  // sweep_job_done carries the job's global index, in order.
  CheckpointedSweepOutcome plain;
  std::vector<std::string> plain_lines;
  const std::string reference = traced_campaign(cc, plain, plain_lines);
  ASSERT_EQ(plain.jobs.size(), 18u);
  const std::string reference_trace = canonical_trace(plain_lines);
  std::size_t next = 0;
  for (const std::string& line : plain_lines) {
    if (line.rfind("{\"event\":\"sweep_job_done\"", 0) != 0) {
      continue;
    }
    EXPECT_NE(line.find(",\"index\":" + std::to_string(next) + ","),
              std::string::npos)
        << line;
    ++next;
  }
  EXPECT_EQ(next, plain.jobs.size());

  // Full checkpointed run: 18 jobs in chunks of 10 -> generation 1 (10
  // jobs done) rotates into the .bak slot when generation 2 (all done)
  // lands. Neither the checkpoint nor the chunking shows in the document
  // or the trace.
  const std::string path = ::testing::TempDir() + "xbarlife_ck.ckpt";
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
  cc.checkpoint_path = path;
  cc.checkpoint_chunk = 10;
  CheckpointedSweepOutcome full;
  std::vector<std::string> full_lines;
  EXPECT_EQ(traced_campaign(cc, full, full_lines), reference);
  EXPECT_EQ(canonical_trace(full_lines), reference_trace);
  EXPECT_EQ(full.resumed_jobs, 0u);
  EXPECT_EQ(full.executed_jobs, full.jobs.size());
  EXPECT_EQ(full.checkpoint_generation, 2u);
  EXPECT_FALSE(full.fallback_used);

  // Simulate a crash mid-write: flip the newest snapshot's last payload
  // byte. The resume must reject it (checksum) and fall back to the .bak
  // generation, replaying its 10 completed jobs and running only the rest.
  {
    std::string bytes = read_file(path);
    ASSERT_FALSE(bytes.empty());
    bytes.back() = static_cast<char>(bytes.back() ^ 0x5a);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  CheckpointedSweepOutcome resumed;
  std::vector<std::string> resumed_lines;
  EXPECT_EQ(traced_campaign(cc, resumed, resumed_lines), reference);
  EXPECT_EQ(canonical_trace(resumed_lines), reference_trace);
  EXPECT_EQ(resumed.resumed_jobs, 10u);
  EXPECT_EQ(resumed.executed_jobs, resumed.jobs.size() - 10);
  EXPECT_TRUE(resumed.fallback_used);
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
}

TEST(FaultCampaign, RejectsForeignCheckpoints) {
  FaultCampaignConfig cc = tiny_campaign();
  const std::string path = ::testing::TempDir() + "xbarlife_ck_bad.jsonl";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"something\":\"else\"}\n";
  }
  cc.checkpoint_path = path;
  EXPECT_THROW(run_fault_campaign(cc), IoError);

  // A checkpoint from a different campaign seed is also rejected.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"checkpoint\":\"xbarlife.faults.v1\",\"campaign_seed\":999"
        << ",\"jobs\":4}\n";
  }
  EXPECT_THROW(run_fault_campaign(cc), IoError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xbarlife::core
