// ProgramExecutor: pluggable backends that execute a ProgramSequence
// against a crossbar.
//
// Mirrors the PR 6 kernel registry: the backend is resolved once at
// startup (--executor / XBARLIFE_EXECUTOR, unknown name -> exit 2 with
// the usable list) and stamped into result/bench envelopes as the
// "executor" key. Two in-process backends ship today:
//
//   sim      (default) column-batched simulator: contiguous pulse runs
//            execute through Crossbar::program_batch, which hoists the
//            per-pulse transcendental math and amortizes tracker and
//            obs-counter updates across the batch. Bit-identical to
//            percell by construction.
//   percell  legacy reference: every pulse goes through the original
//            one-call-per-cell Crossbar::program_cell path; kept as the
//            differential oracle for sim (and for any future hardware
//            backend, which registers here the same way).
#pragma once

#include <string>
#include <vector>

#include "xbar/program_sequence.hpp"

namespace xbarlife::xbar {

class Crossbar;

/// Per-op outcome of an executed sequence. `results` is aligned with the
/// sequence ops: achieved resistance for a pulse, read conductance for a
/// verify, 0.0 for waits/barriers.
struct ExecReport {
  std::vector<double> results;
  SequenceStats stats;
};

class ProgramExecutor {
 public:
  virtual ~ProgramExecutor() = default;
  virtual const char* name() const = 0;
  virtual ExecReport execute(Crossbar& xb, const ProgramSequence& seq) const = 0;
};

/// Column-batched in-process simulator (default backend).
class SimExecutor final : public ProgramExecutor {
 public:
  const char* name() const override { return "sim"; }
  ExecReport execute(Crossbar& xb, const ProgramSequence& seq) const override;
};

/// Legacy per-cell reference backend: one program_cell call per pulse.
class PerCellExecutor final : public ProgramExecutor {
 public:
  const char* name() const override { return "percell"; }
  ExecReport execute(Crossbar& xb, const ProgramSequence& seq) const override;
};

/// Returns the process-wide active executor, resolving XBARLIFE_EXECUTOR
/// on first use (throws InvalidArgument for an unknown value).
const ProgramExecutor& select_executor();

/// Activates a backend by name ("sim", "percell"; "" / "auto"
/// -> default). Throws InvalidArgument listing the usable names otherwise.
void set_executor(const std::string& name);

/// Name of the active backend (resolving it if needed).
std::string executor_name();

/// Usable backend names, selection-priority order.
std::vector<std::string> available_executors();

}  // namespace xbarlife::xbar
