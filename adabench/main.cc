// adabench: the repository's benchmark program. Runs one named workload
// from a seed and prints, as the last line of stdout, one JSON object
// with the keys correct, attempted, failed and metrics. Without --trace
// the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones from an extra traced pass. Answers are checked against
// the benchmark's own reference; any wrong answer prints no metrics and
// exits 1.
//
// Usage: adabench --workload <name> --seed <n> --seconds <s>
//                 --trace <0|1> --scratch <dir>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"

namespace {

adabench::Args ParseArgs(int argc, char** argv) {
  adabench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--scratch") {
      args.scratch = value;
    } else {
      adabench::Fatal("unknown argument " + key);
    }
  }
  if (args.scratch.empty()) adabench::Fatal("--scratch is required");
  if (!(args.seconds > 0.0)) adabench::Fatal("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const adabench::Args args = ParseArgs(argc, argv);
  std::filesystem::create_directories(args.scratch);
  adabench::Report report;
  adabench::Outcome outcome;
  if (args.workload == "skip_serial") {
    outcome = adabench::RunSkipSerial(args, &report);
  } else if (args.workload == "dashboard_server") {
    outcome = adabench::RunDashboardServer(args, &report);
  } else if (args.workload == "ingest_checkpoint") {
    outcome = adabench::RunIngestCheckpoint(args, &report);
  } else {
    adabench::Fatal("unknown workload '" + args.workload + "'");
  }
  std::filesystem::remove_all(args.scratch);
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(outcome.attempted),
      static_cast<long long>(outcome.failed),
      correct ? report.Json().c_str() : "{}");
  return correct ? 0 : 1;
}
