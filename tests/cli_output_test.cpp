// End-to-end CLI output-path tests: every subcommand that accepts the
// --json/--trace/--profile sink flags must fail fast with the IoError
// exit code (3) when the target path is unwritable — before any real
// work runs — the --profile happy path must produce a Perfetto
// trace_event document, and bad arguments (unknown options, malformed
// numbers, unknown executors) must exit with the usage code (2).
//
// The binary path comes in via XBARLIFE_CLI_PATH (set in
// tests/CMakeLists.txt from $<TARGET_FILE:xbarlife_cli>).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef _WIN32
#include <sys/wait.h>
#endif

namespace {

constexpr const char* kUnwritable =
    "/nonexistent-xbarlife-dir/out.json";

std::string cli_path() { return XBARLIFE_CLI_PATH; }

struct CliRun {
  int code = -1;  ///< -1 when the shell itself failed
  std::string stderr_text;
};

/// Runs the CLI with `args`, discarding stdout and capturing stderr.
/// `env` prefixes the command with environment assignments.
CliRun run_cli_capture(const std::string& args, const std::string& env = "") {
  const std::string cmd =
      env + " " + cli_path() + " " + args + " 2>&1 >/dev/null";
  CliRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    return run;
  }
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    run.stderr_text += buf;
  }
  const int status = pclose(pipe);
#ifndef _WIN32
  run.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
#else
  run.code = status;
#endif
  return run;
}

/// Runs the CLI with `args`, discarding its output; returns the exit code.
int run_cli(const std::string& args) { return run_cli_capture(args).code; }

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct SinkCase {
  const char* command;  ///< subcommand plus fast-run flags
  const char* flag;     ///< sink flag under test
};

std::string PrintToString(const SinkCase& c) {
  std::string name = std::string(c.command) + "_" + (c.flag + 2);
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) {
      ch = '_';
    }
  }
  return name;
}

class UnwritableSink : public ::testing::TestWithParam<SinkCase> {};

// Every sink is opened before the command does any work, so even the
// heavy subcommands fail in milliseconds.
TEST_P(UnwritableSink, FailsFastWithIoExitCode) {
  const SinkCase& c = GetParam();
  const int code = run_cli(std::string(c.command) + " " + c.flag + " " +
                           kUnwritable);
  EXPECT_EQ(code, 3) << "command: " << c.command << " " << c.flag;
}

INSTANTIATE_TEST_SUITE_P(
    AllCommands, UnwritableSink,
    ::testing::Values(
        SinkCase{"train", "--json"}, SinkCase{"train", "--trace"},
        SinkCase{"train", "--profile"},
        SinkCase{"lifetime", "--json"}, SinkCase{"lifetime", "--trace"},
        SinkCase{"lifetime", "--profile"},
        SinkCase{"sweep", "--json"}, SinkCase{"sweep", "--trace"},
        SinkCase{"sweep", "--profile"},
        SinkCase{"faults", "--json"}, SinkCase{"faults", "--trace"},
        SinkCase{"faults", "--profile"},
        SinkCase{"device", "--json"}, SinkCase{"device", "--trace"},
        SinkCase{"device", "--profile"},
        SinkCase{"models", "--json"}, SinkCase{"models", "--trace"},
        SinkCase{"models", "--profile"}),
    [](const ::testing::TestParamInfo<SinkCase>& param_info) {
      return PrintToString(param_info.param);
    });

TEST(CliOutput, UnknownCommandExitsUsage) {
  EXPECT_EQ(run_cli("frobnicate"), 2);
  // The removed perf-smoke subcommand is unknown like any other name.
  EXPECT_EQ(run_cli("bench"), 2);
}

// An impossibly small --job-timeout expires every job instantly: the
// sweep still completes with isolated timed-out failures (exit 0), but
// --strict must trip on them like any other failure (exit 4).
TEST(CliOutput, StrictTripsOnTimedOutSweepJobs) {
  const std::string cmd =
      "sweep --model mlp --sessions 1 --replicates 1 --job-timeout 0.001";
  EXPECT_EQ(run_cli(cmd), 0);
  EXPECT_EQ(run_cli(cmd + " --strict"), 4);
}

// Outside a fan-out there is no entry to isolate the failure into: an
// expired lifetime deadline propagates as TimeoutError (exit 8).
TEST(CliOutput, LifetimeWatchdogExpiryExitsTimeout) {
  EXPECT_EQ(
      run_cli("lifetime --model mlp --sessions 1 --job-timeout 0.001"), 8);
}

TEST(CliOutput, DeviceProfileWritesPerfettoDocument) {
  const std::string path =
      ::testing::TempDir() + "/xbarlife_device_profile.json";
  std::remove(path.c_str());
  ASSERT_EQ(run_cli("device --pulses 5 --profile " + path), 0);
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty()) << "no profile written to " << path;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(text.find("\"schema\":\"xbarlife.profile.v1\""),
            std::string::npos);
  // The command-level root span names the subcommand.
  EXPECT_NE(text.find("\"name\":\"cmd.device\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliOutput, DeviceJsonEmbedsProfileKeyWhenProfiling) {
  const std::string json = ::testing::TempDir() + "/xbarlife_device.jsonl";
  const std::string prof =
      ::testing::TempDir() + "/xbarlife_device_prof.json";
  std::remove(json.c_str());
  std::remove(prof.c_str());
  ASSERT_EQ(run_cli("device --pulses 5 --json " + json + " --profile " +
                    prof),
            0);
  const std::string text = slurp(json);
  ASSERT_FALSE(text.empty());
  // Final line is the result document; the profile rollup rides as its
  // trailing key.
  EXPECT_NE(text.find("\"schema\":\"xbarlife.result.v1\""),
            std::string::npos);
  EXPECT_NE(text.find("\"profile\":{\"span_count\":"), std::string::npos);
  std::remove(json.c_str());
  std::remove(prof.c_str());
}

TEST(CliOutput, DeviceJsonWithoutProfileHasNoProfileKey) {
  const std::string json =
      ::testing::TempDir() + "/xbarlife_device_noprof.jsonl";
  std::remove(json.c_str());
  ASSERT_EQ(run_cli("device --pulses 5 --json " + json), 0);
  const std::string text = slurp(json);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.find("\"profile\""), std::string::npos);
  std::remove(json.c_str());
}

// Unknown executor backends exit with the usage code, whether they come
// from the flag or the environment, and the message lists exactly the
// usable names. "remote" is an unknown name like any other.
TEST(CliOutput, UnknownExecutorExitsUsage) {
  for (const std::string name : {"warpdrive", "remote"}) {
    SCOPED_TRACE(name);
    const CliRun by_flag =
        run_cli_capture("device --pulses 5 --executor " + name);
    EXPECT_EQ(by_flag.code, 2);
    EXPECT_NE(by_flag.stderr_text.find("(available: sim, percell)"),
              std::string::npos)
        << by_flag.stderr_text;
    const CliRun by_env =
        run_cli_capture("device --pulses 5", "XBARLIFE_EXECUTOR=" + name);
    EXPECT_EQ(by_env.code, 2);
    EXPECT_NE(by_env.stderr_text.find("(available: sim, percell)"),
              std::string::npos)
        << by_env.stderr_text;
  }
}

struct BadArgCase {
  const char* label;
  const char* args;    ///< full argument list after the binary
  const char* option;  ///< option the error message must name
};

// Without it gtest prints the case as the raw bytes of its three pointers,
// which move with every run under address-space randomisation, and that
// text is part of the name ctest gives the test.
std::string PrintToString(const BadArgCase& c) { return c.option; }

class BadArgument : public ::testing::TestWithParam<BadArgCase> {};

// Unknown options and malformed numbers are usage errors: exit 2 before
// any work runs, with a message naming the offending option.
TEST_P(BadArgument, ExitsUsageNamingTheOption) {
  const BadArgCase& c = GetParam();
  const CliRun run = run_cli_capture(c.args);
  EXPECT_EQ(run.code, 2) << c.args;
  EXPECT_NE(run.stderr_text.find(c.option), std::string::npos)
      << run.stderr_text;
}

INSTANTIATE_TEST_SUITE_P(
    CliOutput, BadArgument,
    ::testing::Values(
        BadArgCase{"misspelled_option", "device --pulses 5 --sesions 2",
                   "--sesions"},
        BadArgCase{"removed_remote_option",
                   "device --pulses 5 --remote loopback", "--remote"},
        BadArgCase{"non_numeric", "lifetime --model mlp --sessions abc",
                   "--sessions"},
        // --job-timeout bounds the run should the value ever be accepted
        // (it would wrap to 2^64-1 sessions).
        BadArgCase{"negative_unsigned",
                   "lifetime --model mlp --sessions -1 --job-timeout 1",
                   "--sessions"},
        BadArgCase{"trailing_characters", "device --pulses 5 --threads 2x",
                   "--threads"}),
    [](const ::testing::TestParamInfo<BadArgCase>& param_info) {
      return std::string(param_info.param.label);
    });

// The executor backend is a pure implementation choice: the same run
// under --executor sim and --executor percell must produce identical
// result streams except for the envelope's own "executor" stamp.
TEST(CliOutput, ExecutorBackendsProduceIdenticalResultsModuloStamp) {
  const std::string sim_json = ::testing::TempDir() + "/xbarlife_sim.jsonl";
  const std::string per_json =
      ::testing::TempDir() + "/xbarlife_percell.jsonl";
  std::remove(sim_json.c_str());
  std::remove(per_json.c_str());
  ASSERT_EQ(run_cli("device --pulses 50 --executor sim --json " + sim_json),
            0);
  ASSERT_EQ(run_cli("device --pulses 50 --executor percell --json " +
                    per_json),
            0);
  std::string sim_text = slurp(sim_json);
  std::string per_text = slurp(per_json);
  ASSERT_FALSE(sim_text.empty());
  ASSERT_FALSE(per_text.empty());
  EXPECT_NE(sim_text.find("\"executor\":\"sim\""), std::string::npos);
  EXPECT_NE(per_text.find("\"executor\":\"percell\""), std::string::npos);
  const auto unstamp = [](std::string text, const std::string& name) {
    const std::string needle = "\"executor\":\"" + name + "\"";
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos)) {
      text.replace(pos, needle.size(), "\"executor\":\"*\"");
    }
    return text;
  };
  EXPECT_EQ(unstamp(sim_text, "sim"), unstamp(per_text, "percell"));
  std::remove(sim_json.c_str());
  std::remove(per_json.c_str());
}

TEST(CliOutput, ProfileEnvVarEnablesProfiling) {
  const std::string path =
      ::testing::TempDir() + "/xbarlife_env_profile.json";
  std::remove(path.c_str());
  const std::string cmd = "XBARLIFE_PROFILE=" + path + " " + cli_path() +
                          " device --pulses 5 >/dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
