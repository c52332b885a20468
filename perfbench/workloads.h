// The benchmark's workloads. Each is a closed loop over a fixed amount of work
// derived from the seed and the pass index (a "pass"); a run repeats passes
// until its measuring time is spent and pools the timings of all passes.
//
//   online     the §2.3 loop on the Fig. 2 provider with a fat-fingered
//              multi-entry customer filter: live slice, checkpoint, explore a
//              fresh seed UPDATE, checkers. Solving, lazy clones and checkers
//              dominate; transport, trace decode and persistence do no work.
//              Not in BENCHMARK.json: its solver-bound verdict median moved
//              by 0.107 of itself (quartile distance over five seeds), above
//              a third of the largest bound allowed.
//   federated  the same loop on a provider with no customer filter (PCCW
//              shape); three remote domains, served by one in-process
//              ExplorationServer over a Unix-domain socket, confirm every
//              detection. Remote confirmation dominates.
//   ingest     dice_cli run as a child on a generated full-table .dtrc
//              corpus: a cold start with --trace and --state_dir, then warm
//              restarts from that directory. .dtrc decode, bulk RIB install,
//              snapshots and process memory dominate.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/bgp/attr_intern.h"
#include "src/dice/explorer.h"

namespace perfbench {

class Launcher;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-test size: tiny tables and few verdicts, every gate on.
  bool smoke = false;
  // Working directory inside the checkout (sockets, corpus, state dirs, spans).
  std::string run_dir = ".bench_run";
  // The built dice_cli, for ingest, and the helper that runs it.
  std::string dice_cli;
  Launcher* launcher = nullptr;
};

struct Outcome {
  uint64_t attempted = 0;  // ops: verdicts, and dice_cli runs on ingest
  uint64_t failed = 0;     // ops with an error, a mismatch or an unexpected exit
  bool gates_ok = true;
  std::vector<std::string> lines;  // report lines printed before the result
  std::map<std::string, double> e2e;     // by EndToEndMetrics() name
  std::map<std::string, double> layers;  // by PerLayerMetrics() name

  void FailOp(const std::string& reason);
  void FailGate(const std::string& reason);
  void Note(const std::string& line) { lines.push_back(line); }
  // A report line for a timing: name, value, unit and its sample count.
  void NoteTiming(const std::string& name, double value, const char* unit, size_t n);
};

Outcome RunLive(const RunConfig& config, bool federated);
Outcome RunIngest(const RunConfig& config);

// Peak resident set of this process so far, in MB.
double SelfPeakRssMb();

// Wraps `inner` so that every OnRun call is a dice.check span in `group`.
std::unique_ptr<dice::Checker> MakeTimingChecker(std::unique_ptr<dice::Checker> inner,
                                                 Tracer* tracer, const uint64_t* group);

using Counts = std::map<std::string, uint64_t>;

// Adds one exploration's solver and concolic counters to `counts`.
void AddExplorationCounts(const dice::ExplorationReport& report, Counts& counts);

// Sets the counters `explorer` accumulated over its lifetime, and the attribute
// intern table's growth since `intern_before`.
void SetExplorerCounts(const dice::Explorer& explorer,
                       const dice::bgp::AttrInternStats& intern_before, Counts& counts);

// The per-layer p99s follow the ten-beyond rule, so each needs 1000 samples.
// A traced run that has measured for its --seconds keeps adding passes until
// every p99 whose span it records has them, for at most kTailCapSeconds of
// measuring in all.
inline constexpr double kTailCapSeconds = 120;

// The first per-layer p99 whose span has samples, but too few for the rule,
// as "<metric> has n=<count> samples, needs 1000"; "" when there is none.
std::string ShortTail(const std::vector<Span>& spans);

// Whether a run that started measuring at `start_ns` goes on with another
// pass: until --seconds have passed and, on a traced run, while ShortTail
// of its spans is not empty (up to kTailCapSeconds).
bool KeepMeasuring(const RunConfig& config, int64_t start_ns, const std::vector<Span>& spans);

// The per-layer metrics every workload derives the same way: registered
// counts and their ratios (from pass 0's `counts`), span timings, and each
// layer's self time and share of the `passes` traced passes' wall time. On a
// traced run also writes the spans to <run_dir>/spans-<workload>.tsv, and
// fails the gate when a p99 is still short of samples.
void AddLayerMetrics(const RunConfig& config, const std::vector<Span>& spans, const Counts& counts,
                     size_t passes, double traced_wall_s, Outcome& out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
