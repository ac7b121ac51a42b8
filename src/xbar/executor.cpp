#include "xbar/executor.hpp"

#include <atomic>
#include <cstdlib>

#include "common/error.hpp"
#include "xbar/crossbar.hpp"

namespace xbarlife::xbar {

ExecReport SimExecutor::execute(Crossbar& xb, const ProgramSequence& seq) const {
  ExecReport report;
  const std::vector<ProgramOp>& ops = seq.ops();
  report.results.assign(ops.size(), 0.0);
  std::size_t i = 0;
  while (i < ops.size()) {
    const ProgramOp& op = ops[i];
    switch (op.kind) {
      case OpKind::kProgramPulse: {
        // Maximal contiguous pulse run -> one batched device transaction.
        std::size_t j = i + 1;
        while (j < ops.size() && ops[j].kind == OpKind::kProgramPulse) ++j;
        xb.program_batch({ops.data() + i, j - i}, {report.results.data() + i, j - i});
        i = j;
        continue;
      }
      case OpKind::kVerifyRead:
        report.results[i] = xb.read_conductance(op.row, op.col);
        break;
      case OpKind::kWait:
      case OpKind::kBarrier:
        break;
    }
    ++i;
  }
  report.stats = seq.stats();
  xb.note_sequence_executed(report.stats);
  return report;
}

ExecReport PerCellExecutor::execute(Crossbar& xb,
                                    const ProgramSequence& seq) const {
  ExecReport report;
  const std::vector<ProgramOp>& ops = seq.ops();
  report.results.assign(ops.size(), 0.0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const ProgramOp& op = ops[i];
    switch (op.kind) {
      case OpKind::kProgramPulse:
        report.results[i] = xb.program_cell(op.row, op.col, op.value);
        break;
      case OpKind::kVerifyRead:
        report.results[i] = xb.read_conductance(op.row, op.col);
        break;
      case OpKind::kWait:
      case OpKind::kBarrier:
        break;
    }
  }
  report.stats = seq.stats();
  xb.note_sequence_executed(report.stats);
  return report;
}

namespace {

const SimExecutor g_sim;
const PerCellExecutor g_percell;

const ProgramExecutor* resolve(const std::string& name) {
  if (name.empty() || name == "auto" || name == "sim") {
    return &g_sim;
  }
  if (name == "percell") {
    return &g_percell;
  }
  return nullptr;
}

std::string available_list() {
  std::string out;
  for (const std::string& name : available_executors()) {
    if (!out.empty()) {
      out += ", ";
    }
    out += name;
  }
  return out;
}

std::atomic<const ProgramExecutor*> g_active{nullptr};

/// First-use initialization from XBARLIFE_EXECUTOR. A racing pair of
/// threads would resolve the same value and store the same pointer, so
/// the race is benign.
const ProgramExecutor* init_from_env() {
  const char* env = std::getenv("XBARLIFE_EXECUTOR");
  const std::string name = env != nullptr ? env : "";
  const ProgramExecutor* e = resolve(name);
  if (e == nullptr) {
    throw InvalidArgument("XBARLIFE_EXECUTOR=" + name +
                          " is not a usable executor backend "
                          "(available: " +
                          available_list() + ")");
  }
  g_active.store(e, std::memory_order_release);
  return e;
}

}  // namespace

const ProgramExecutor& select_executor() {
  const ProgramExecutor* e = g_active.load(std::memory_order_acquire);
  if (e == nullptr) {
    e = init_from_env();
  }
  return *e;
}

void set_executor(const std::string& name) {
  const ProgramExecutor* e = resolve(name);
  if (e == nullptr) {
    throw InvalidArgument("unknown or unavailable executor backend '" + name +
                          "' (available: " + available_list() + ")");
  }
  g_active.store(e, std::memory_order_release);
}

std::string executor_name() { return select_executor().name(); }

std::vector<std::string> available_executors() {
  return {"sim", "percell"};
}

}  // namespace xbarlife::xbar
