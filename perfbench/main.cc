// perfbench — the repo benchmark. Runs one workload from a seed and prints
// report lines (provenance, sizes, deterministic counts, every end-to-end
// number with its sample count, gate results, failed ops) followed by one
// JSON result line:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace=0 the metrics are the end-to-end ones, measured untraced; with
// --trace=1 they are the per-layer ones from the traced run. See
// perfbench/run.py for how to build and invoke it.
//
// Usage:
//   perfbench --workload=online|federated|ingest --seed=N --seconds=S --trace=0|1
//             [--dice_cli=PATH] [--run_dir=DIR] [--commit=C] [--source_digest=D]
//   perfbench --selftest --dice_cli=PATH [--run_dir=DIR]
//   perfbench --list-metrics

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "perfbench/harness.h"
#include "perfbench/launcher.h"
#include "perfbench/metrics.h"
#include "perfbench/workloads.h"
#include "src/util/strings.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

int RunSelfTest(const RunConfig& base);

namespace {

// A run that has not finished by then is stuck; the alarm ends it (and, by
// PR_SET_PDEATHSIG, any dice_cli child) with a nonzero exit.
constexpr unsigned kWatchdogSeconds = 170;

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Provenance(const RunConfig& config, const std::string& commit,
                       const std::string& source_digest) {
  return dice::StrFormat(
      "provenance: workload=%s seed=%llu seconds=%s trace=%d build=%s compiler=\"%s\" "
      "nproc=%ld cpu=\"%s\" commit=%s source_digest=%s",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      FullDigits(config.seconds).c_str(), config.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
      __VERSION__, sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(), commit.c_str(),
      source_digest.c_str());
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: perfbench --workload=online|federated|ingest --seed=N --seconds=S "
               "--trace=0|1 [--dice_cli=PATH] [--run_dir=DIR]\n"
               "       perfbench --selftest --dice_cli=PATH\n"
               "       perfbench --list-metrics\n");
}

void ListMetrics() {
  std::printf("{\"end_to_end\": [");
  const char* sep = "";
  for (const MetricSpec& m : EndToEndMetrics()) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}", sep, m.name, m.unit,
                m.better);
    sep = ", ";
  }
  std::printf("], \"per_layer\": [");
  sep = "";
  for (const MetricSpec& m : PerLayerMetrics()) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", \"moves\": \"%s\"}",
                sep, m.name, m.unit, m.better, m.moves);
    sep = ", ";
  }
  std::printf("]}\n");
}

}  // namespace

// Renders an outcome: report lines, then the result line. Returns the exit
// code: 0 with a result, 1 when a metric is missing (the run did not get far
// enough to measure it).
int PrintOutcome(const RunConfig& config, const Outcome& out) {
  for (const std::string& line : out.lines) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("metric ops = %llu count\nmetric ops_failed = %llu count\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  const auto& specs = config.trace ? PerLayerMetrics() : EndToEndMetrics();
  const auto& values = config.trace ? out.layers : out.e2e;
  MetricSet metrics;
  int missing = 0;
  for (const MetricSpec& spec : specs) {
    auto it = values.find(spec.name);
    if (it == values.end() && !config.trace) {
      std::printf("missing end-to-end metric %s\n", spec.name);
      ++missing;
      continue;
    }
    // A layer the workload does not exercise reports 0.
    metrics.Add(spec.name, it == values.end() ? 0.0 : it->second, spec.unit);
  }
  for (const auto& [name, value] : values) {
    if (metrics.Find(name) == nullptr) {
      std::printf("unregistered metric %s = %s\n", name.c_str(), FullDigits(value).c_str());
      ++missing;
    }
  }
  if (missing > 0) {
    std::fflush(stdout);
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              out.gates_ok ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.Json().c_str());
  std::fflush(stdout);
  return 0;
}

Outcome RunWorkload(const RunConfig& config) {
  if (config.workload == "ingest") {
    return RunIngest(config);
  }
  return RunLive(config, config.workload == "federated");
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::map<std::string, std::string> flags;
  bool selftest = false;
  bool list_metrics = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (arg == "--list-metrics") {
      list_metrics = true;
      continue;
    }
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", arg.c_str());
      PrintUsage();
      return 2;
    }
    flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  if (list_metrics) {
    ListMetrics();
    return 0;
  }
  for (const auto& [key, value] : flags) {
    static const char* kKnown[] = {"workload", "seed",   "seconds",      "trace",
                                   "dice_cli", "run_dir", "commit", "source_digest"};
    bool known = false;
    for (const char* k : kKnown) {
      known = known || key == k;
    }
    if (!known) {
      std::fprintf(stderr, "error: unknown flag '--%s'\n", key.c_str());
      PrintUsage();
      return 2;
    }
  }
  config.workload = flags["workload"];
  config.dice_cli = flags["dice_cli"];
  if (flags.count("run_dir") != 0) {
    config.run_dir = flags["run_dir"];
  }
  std::filesystem::create_directories(config.run_dir);
  // Forked now, while this process is small: see launcher.h.
  Launcher launcher;
  if (selftest || config.workload == "ingest") {
    std::string error;
    if (!launcher.Start(&error)) {
      std::fprintf(stderr, "error: cannot start the launcher: %s\n", error.c_str());
      return 1;
    }
    config.launcher = &launcher;
  }
  alarm(kWatchdogSeconds);
  if (selftest) {
    return RunSelfTest(config);
  }

  const auto seed = dice::ParseUint64(flags["seed"]);
  const auto seconds = dice::ParseUint64(flags["seconds"]);
  const std::string trace = flags["trace"];
  if (config.workload != "online" && config.workload != "federated" &&
      config.workload != "ingest") {
    std::fprintf(stderr, "error: --workload must be online, federated or ingest\n");
    PrintUsage();
    return 2;
  }
  if (!seed.has_value() || !seconds.has_value() || *seconds == 0 || *seconds > 60 ||
      (trace != "0" && trace != "1")) {
    std::fprintf(stderr, "error: need --seed=N, --seconds=1..60 and --trace=0|1\n");
    PrintUsage();
    return 2;
  }
  if (config.workload == "ingest" && access(config.dice_cli.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "error: --dice_cli=%s is not an executable\n", config.dice_cli.c_str());
    return 2;
  }
  config.seed = *seed;
  config.seconds = static_cast<double>(*seconds);
  config.trace = trace == "1";
  std::printf("%s\n", Provenance(config, flags.count("commit") != 0 ? flags["commit"] : "unknown",
                                 flags.count("source_digest") != 0 ? flags["source_digest"] : "unknown")
                          .c_str());
  return PrintOutcome(config, RunWorkload(config));
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
