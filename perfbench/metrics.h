// The benchmark's metric registry: every end-to-end and per-layer metric it
// prints, with its unit, and for per-layer metrics the end-to-end metrics the
// layer should move. BENCHMARK.json lists the same names; the self-test holds
// the two lists equal.
//
// End-to-end metrics are reported by every workload, because the result line
// must carry each of them on every run:
//   setup_s         time to ready: config parse, table load or ingest, first
//                   checkpoint (median over the run's set-ups). On ingest, the
//                   wall time of the cold dice_cli run.
//   verdict_p50_ms  median time per verdict: TakeCheckpoint, explore to budget
//                   or exhaustion, checkers, remote confirmation. On ingest,
//                   the warm dice_cli restart up to its verdict (restart_s).
//   peak_rss_mb     peak RSS of the process running the program: the benchmark
//                   process, or the cold dice_cli child on ingest.
// The workload-specific numbers (verdict_p90_ms, explore_runs_per_s,
// live_updates_per_s, confirm_p50_ms, confirm_p90_ms, ingest_routes_per_s,
// restart_s) are printed as report lines with their sample counts. Route
// throughput is not a result metric: it is memory-bound, and on a shared host
// other tenants slow memory-bound work for minutes at a time, by more than
// any bound allows. On ingest it is corpus routes / setup_s, which setup_s
// gates.

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher"; for per-layer counts, the useful direction
  const char* moves;   // per-layer: the end-to-end metrics it should move
};

const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
