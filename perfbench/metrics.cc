#include "perfbench/metrics.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s", "lower", ""},
      {"verdict_p50_ms", "ms", "lower", ""},
      {"peak_rss_mb", "MB", "lower", ""},
  };
  return kMetrics;
}

// Where each layer does its work, and where it is predicted unchanged:
//   sym, dice (local), checkpoint: work in every workload, most in online;
//   net: live slices in online/federated, none in ingest (direct load);
//   bgp: bulk writes in ingest, incremental writes under a shared checkpoint
//        in online/federated;
//   trace, persist: ingest only, predicted unchanged (0) in online/federated;
//   dice (remote), transport: federated only, predicted unchanged (0) in
//        online and ingest.
// A workload that does not exercise a metric reports 0 for it.
const std::vector<MetricSpec>& PerLayerMetrics() {
  static const char* kExplore = "verdict_p50_ms explore_runs_per_s verdict_p90_ms";
  static const char* kClone = "verdict_p50_ms peak_rss_mb live_updates_per_s";
  static const char* kLive = "live_updates_per_s setup_s";
  static const char* kIngest = "setup_s(ingest_routes_per_s) peak_rss_mb";
  static const char* kPersist = "verdict_p50_ms(restart_s) setup_s";
  static const char* kConfirm = "verdict_p50_ms confirm_p50_ms confirm_p90_ms";
  static const std::vector<MetricSpec> kMetrics = {
      {"sym.queries", "count", "lower", kExplore},
      {"sym.sat", "count", "lower", kExplore},
      {"sym.unsat", "count", "lower", kExplore},
      {"sym.unknown", "count", "lower", kExplore},
      {"sym.cache_hits", "count", "higher", kExplore},
      {"sym.cache_misses", "count", "lower", kExplore},
      {"sym.cache_hit_ratio", "ratio", "higher", kExplore},
      {"sym.unsat_shortcuts", "count", "higher", kExplore},
      {"sym.atoms_sliced", "count", "higher", kExplore},
      {"sym.preloaded_hits", "count", "higher", kPersist},
      {"sym.unique_paths", "count", "higher", kExplore},
      {"sym.useful_run_ratio", "ratio", "higher", kExplore},
      {"dice.step_p50_us", "us", "lower", kExplore},
      {"dice.step_p99_us", "us", "lower", kExplore},
      {"dice.step_busy_ms", "ms", "lower", kExplore},
      {"dice.start_p50_us", "us", "lower", kExplore},
      {"dice.check_busy_ms", "ms", "lower", kExplore},
      {"dice.runs", "count", "higher", kExplore},
      {"dice.runs_accepted", "count", "higher", kExplore},
      {"dice.runs_rejected", "count", "lower", kExplore},
      {"dice.detections", "count", "higher", kExplore},
      {"dice.intercepted", "count", "lower", kExplore},
      {"dice.self_ms", "ms", "lower", kExplore},
      {"dice.share", "ratio", "lower", kExplore},
      {"checkpoint.take_p50_us", "us", "lower", kClone},
      {"checkpoint.clones", "count", "higher", kClone},
      {"checkpoint.clones_materialized", "count", "lower", kClone},
      {"checkpoint.zero_copy_ratio", "ratio", "higher", kClone},
      {"checkpoint.bytes_cloned_per_run", "B", "lower", kClone},
      {"checkpoint.self_ms", "ms", "lower", kClone},
      {"checkpoint.share", "ratio", "lower", kClone},
      {"net.events", "count", "lower", kLive},
      {"net.run_busy_ms", "ms", "lower", kLive},
      {"net.us_per_event", "us", "lower", kLive},
      {"net.self_ms", "ms", "lower", kLive},
      {"net.share", "ratio", "lower", kLive},
      {"bgp.live_updates", "count", "higher", kLive},
      {"bgp.process_update_p50_us", "us", "lower", kLive},
      {"bgp.process_update_p99_us", "us", "lower", kLive},
      {"bgp.rib_prefixes", "count", "higher", kLive},
      {"bgp.attr_sets_live", "count", "lower", kIngest},
      {"bgp.attr_intern_hit_ratio", "ratio", "higher", kIngest},
      {"bgp.config_parse_ms", "ms", "lower", "setup_s"},
      {"bgp.self_ms", "ms", "lower", kLive},
      {"bgp.share", "ratio", "lower", kLive},
      {"trace.events", "count", "lower", kIngest},
      {"trace.bytes", "B", "lower", kIngest},
      {"trace.decode_ms", "ms", "lower", kIngest},
      {"trace.decode_ns_per_event", "ns", "lower", kIngest},
      {"trace.self_ms", "ms", "lower", kIngest},
      {"trace.share", "ratio", "lower", kIngest},
      {"persist.save_ms", "ms", "lower", kPersist},
      {"persist.load_ms", "ms", "lower", kPersist},
      {"persist.snapshot_bytes", "B", "lower", kPersist},
      {"persist.self_ms", "ms", "lower", kPersist},
      {"persist.share", "ratio", "lower", kPersist},
      {"dice.confirm_busy_ms", "ms", "lower", kConfirm},
      {"dice.confirm_updates", "count", "lower", kConfirm},
      {"dice.confirm_updates_last", "count", "lower", kConfirm},
      {"dice.remote_execute_p50_us", "us", "lower", kConfirm},
      {"dice.remote_clones_materialized", "count", "lower", kConfirm},
      {"dice.remote_clones_avoided", "count", "higher", kConfirm},
      {"dice.screen_cache_hits", "count", "higher", kConfirm},
      {"transport.batches", "count", "lower", kConfirm},
      {"transport.batch_errors", "count", "lower", kConfirm},
      {"transport.rtt_p50_us", "us", "lower", kConfirm},
      {"transport.rtt_p99_us", "us", "lower", kConfirm},
      {"transport.self_p50_us", "us", "lower", kConfirm},
      {"transport.server_busy_us", "us", "lower", kConfirm},
      {"transport.request_bytes_per_batch", "B", "lower", kConfirm},
      {"transport.reply_bytes_per_batch", "B", "lower", kConfirm},
      {"transport.self_ms", "ms", "lower", kConfirm},
      {"transport.share", "ratio", "lower", kConfirm},
      {"tracing.spans", "count", "lower", "tracing overhead"},
      {"tracing.overhead_setup_s", "s", "lower", "tracing overhead"},
      {"tracing.overhead_verdict_p50_ms", "ms", "lower", "tracing overhead"},
  };
  return kMetrics;
}

}  // namespace perfbench
