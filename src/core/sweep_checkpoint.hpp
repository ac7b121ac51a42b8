// Chunked job-grid engine: the one fan-out behind every fault campaign
// and every checkpointed sweep.
//
// Jobs run in fixed-size chunks. With a checkpoint path, after each chunk
// the engine atomically rewrites an "xbarlife.ckpt.v1" snapshot (see
// persist/checkpoint.hpp) holding every completed job's serialized
// result-document entry, its deterministic summary scalars, and its
// buffered trace lines. A resumed run restores the completed jobs,
// executes only the pending ones, and fans everything in strictly in
// global job order — so the result document and the event stream (t_ms
// and the seq-less persist meta lines aside) are byte-identical whether
// the run was killed zero or many times, with or without a checkpoint, at
// any thread count. Without a checkpoint path the engine skips the load,
// the saves and the shutdown boundary; nothing else changes.
//
// A cooperative shutdown (SIGINT/SIGTERM via common/shutdown.hpp) is
// honored at chunk boundaries: the previous chunk's snapshot is already
// on disk, so the engine raises InterruptedError (CLI exit 6) without
// losing completed work.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/scenario_runner.hpp"
#include "persist/checkpoint.hpp"

namespace xbarlife::core {

struct CheckpointedSweepConfig {
  /// Snapshot path; empty runs the same grid without persistence.
  std::string checkpoint_path;
  /// Snapshot kind tag ("sweep", "faults"); part of the fingerprint, so
  /// the two grids can never resume each other's files.
  std::string kind = "sweep";
  /// Extra caller fingerprint material (e.g. the fault-grid identity)
  /// beyond the engine's own job-list/seed fingerprint.
  std::uint64_t config_salt = 0;
  /// Jobs per chunk (the save cadence, and the batch whose registries
  /// and profiles merge together). The chunk size — NOT the pool size —
  /// fixes batch composition; 0 defaults to 16.
  std::size_t chunk = 16;
};

/// One job's persisted outcome: the serialized result-document entry
/// plus the deterministic scalars the human table and the
/// sweep_job_done events are rebuilt from on resume.
struct SweepJobResult {
  std::string label;
  std::string entry_json;  ///< deterministic (no wall-clock fields)
  bool resumed = false;    ///< restored from the snapshot
  Scenario scenario = Scenario::kTT;
  std::uint64_t stream = 0;
  std::uint64_t seed = 0;
  double software_accuracy = 0.0;
  double tuning_target = 0.0;
  std::uint64_t lifetime_applications = 0;
  std::uint64_t sessions = 0;
  bool died = false;
  bool failed = false;
  bool timed_out = false;
  std::string error;
  /// The job's buffered trace lines, persisted so a resumed run replays
  /// the complete stream.
  std::vector<std::string> trace_lines;
};

struct CheckpointedSweepOutcome {
  std::vector<SweepJobResult> jobs;  ///< index-aligned with the input
  std::size_t resumed_jobs = 0;
  std::size_t executed_jobs = 0;
  std::size_t failed_jobs = 0;     ///< includes timed-out jobs
  std::size_t timed_out_jobs = 0;
  std::uint64_t checkpoint_generation = 0;  ///< 0 without a checkpoint
  bool fallback_used = false;  ///< restored from the .bak generation
  bool resumed = false;        ///< any snapshot was restored
};

/// Serializes one completed entry into its result-document JSON (global
/// job index, entry). Must be deterministic — no wall-clock fields.
using EntrySerializer =
    std::function<std::string(std::size_t, const ScenarioSweepEntry&)>;

/// Runs (or resumes) `jobs` through `runner`, with per-chunk snapshots
/// when `config.checkpoint_path` is set. Job trace lines reach
/// `obs.trace` at the end, each job closed by its sweep_job_done event;
/// job registries and profiles merge into `obs` after every chunk.
/// Throws IoError when the snapshot belongs to a different grid,
/// CheckpointError when every snapshot generation is corrupt, and
/// InterruptedError when a cooperative shutdown left jobs pending.
CheckpointedSweepOutcome run_checkpointed_sweep(
    const ScenarioRunner& runner, const std::vector<ScenarioJob>& jobs,
    const CheckpointedSweepConfig& config,
    const EntrySerializer& serialize_entry, const obs::Obs& obs = {});

/// Console summary, one row per job.
std::string checkpointed_sweep_table(const CheckpointedSweepOutcome& out);

}  // namespace xbarlife::core
