#include "perfbench/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <utility>

#include "perfbench/metrics.h"
#include "src/util/strings.h"

namespace perfbench {

void Outcome::FailOp(const std::string& reason) {
  ++failed;
  lines.push_back("FAILED op: " + reason);
}

void Outcome::FailGate(const std::string& reason) {
  gates_ok = false;
  lines.push_back("GATE FAILED: " + reason);
}

void Outcome::NoteTiming(const std::string& name, double value, const char* unit, size_t n) {
  lines.push_back(dice::StrFormat("metric %s = %s %s (n=%zu)", name.c_str(),
                                  FullDigits(value).c_str(), unit, n));
}

double SelfPeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

class TimingChecker : public dice::Checker {
 public:
  TimingChecker(std::unique_ptr<dice::Checker> inner, Tracer* tracer, const uint64_t* group)
      : inner_(std::move(inner)), tracer_(tracer), group_(group) {}
  std::string name() const override { return inner_->name(); }
  void OnCheckpoint(const dice::bgp::RouterState& checkpoint) override {
    inner_->OnCheckpoint(checkpoint);
  }
  void OnRun(const dice::RunInfo& info, std::vector<dice::Detection>* out) override {
    ScopedSpan span(tracer_, "dice.check", *group_);
    inner_->OnRun(info, out);
  }

 private:
  std::unique_ptr<dice::Checker> inner_;
  Tracer* tracer_;
  const uint64_t* group_;
};

// Each per-layer p99 and the span whose durations it is taken over.
constexpr std::pair<const char*, const char*> kTailMetrics[] = {
    {"dice.step_p99_us", "dice.step"},
    {"bgp.process_update_p99_us", "bgp.process_update"},
    {"transport.rtt_p99_us", "transport.rpc"},
};

size_t CountSpans(const std::vector<Span>& spans, std::string_view name) {
  return static_cast<size_t>(
      std::count_if(spans.begin(), spans.end(), [&](const Span& s) { return name == s.name; }));
}

}  // namespace

std::string ShortTail(const std::vector<Span>& spans) {
  for (const auto& [metric, span] : kTailMetrics) {
    const size_t n = CountSpans(spans, span);
    if (n > 0 && !SupportsQuantile(n, 0.99)) {
      return dice::StrFormat("%s has n=%zu samples, needs 1000", metric, n);
    }
  }
  return "";
}

bool KeepMeasuring(const RunConfig& config, int64_t start_ns, const std::vector<Span>& spans) {
  const double elapsed_s = static_cast<double>(NowNs() - start_ns) / 1e9;
  return elapsed_s < config.seconds ||
         (config.trace && elapsed_s < kTailCapSeconds && !ShortTail(spans).empty());
}

std::unique_ptr<dice::Checker> MakeTimingChecker(std::unique_ptr<dice::Checker> inner,
                                                 Tracer* tracer, const uint64_t* group) {
  return std::make_unique<TimingChecker>(std::move(inner), tracer, group);
}

void AddExplorationCounts(const dice::ExplorationReport& report, Counts& counts) {
  counts["dice.runs"] += report.concolic.runs;
  counts["sym.unique_paths"] += report.concolic.unique_paths;
  counts["sym.queries"] += report.solver.queries;
  counts["sym.sat"] += report.solver.sat;
  counts["sym.unsat"] += report.solver.unsat;
  counts["sym.unknown"] += report.solver.unknown;
  counts["sym.cache_hits"] += report.solver.cache_hits;
  counts["sym.cache_misses"] += report.solver.cache_misses;
  counts["sym.unsat_shortcuts"] += report.solver.cache_unsat_shortcuts;
  counts["sym.atoms_sliced"] += report.solver.atoms_sliced;
  counts["sym.preloaded_hits"] += report.solver.cache_preloaded_hits;
}

void SetExplorerCounts(const dice::Explorer& explorer,
                       const dice::bgp::AttrInternStats& intern_before, Counts& counts) {
  const dice::ExplorationReport& report = explorer.report();
  counts["dice.runs_accepted"] = report.runs_accepted;
  counts["dice.runs_rejected"] = report.runs_rejected;
  counts["dice.detections"] = report.detections.size();
  counts["dice.intercepted"] = explorer.intercepted().size();
  counts["checkpoint.clones"] = report.clones_made;
  counts["checkpoint.clones_materialized"] = report.clones_materialized;
  counts["checkpoint.clones_avoided"] = report.clones_avoided;
  counts["checkpoint.bytes_cloned"] = explorer.checkpoints().bytes_cloned();
  const dice::bgp::AttrInternStats intern_after = dice::bgp::AttrInternTableStats();
  counts["bgp.attr_sets_live"] = intern_after.live_entries;
  counts["bgp.attr_intern_hits"] = intern_after.hits - intern_before.hits;
  counts["bgp.attr_intern_misses"] = intern_after.misses - intern_before.misses;
}

void AddLayerMetrics(const RunConfig& config, const std::vector<Span>& spans, const Counts& counts,
                     size_t passes, double traced_wall_s, Outcome& out) {
  auto count = [&](const char* name) {
    auto it = counts.find(name);
    return it == counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double n = static_cast<double>(passes);
  auto& L = out.layers;
  for (const MetricSpec& m : PerLayerMetrics()) {
    if (counts.count(m.name) != 0) {
      L[m.name] = count(m.name);
    }
  }
  L["sym.cache_hit_ratio"] =
      Ratio(count("sym.cache_hits"), count("sym.cache_hits") + count("sym.cache_misses"));
  L["sym.useful_run_ratio"] = Ratio(count("sym.unique_paths"), count("dice.runs"));
  L["checkpoint.zero_copy_ratio"] =
      Ratio(count("checkpoint.clones_avoided"), count("checkpoint.clones"));
  L["checkpoint.bytes_cloned_per_run"] =
      Ratio(count("checkpoint.bytes_cloned"), count("checkpoint.clones"));
  L["bgp.attr_intern_hit_ratio"] =
      Ratio(count("bgp.attr_intern_hits"),
            count("bgp.attr_intern_hits") + count("bgp.attr_intern_misses"));

  const std::vector<int64_t> self = SelfTimes(spans);
  const Samples steps = DurationsUs(spans, "dice.step");
  L["dice.step_p50_us"] = steps.P(0.5);
  L["dice.step_busy_ms"] = steps.Sum() / 1e3 / n;
  L["dice.start_p50_us"] = DurationsUs(spans, "dice.start").P(0.5);
  L["dice.check_busy_ms"] = DurationsUs(spans, "dice.check").Sum() / 1e3 / n;
  // Self time: on federated the remote checkpoints are transport children.
  L["checkpoint.take_p50_us"] = SelfUs(spans, self, "checkpoint.take").P(0.5);
  L["bgp.process_update_p50_us"] = DurationsUs(spans, "bgp.process_update").P(0.5);
  // A p99 short of samples reads 0, as does one whose span the workload never
  // opens; the first fails a traced run's gate.
  std::string tail_counts;
  for (const auto& [metric, span] : kTailMetrics) {
    const Samples samples = DurationsUs(spans, span);
    L[metric] = samples.Tail(0.99);
    tail_counts += dice::StrFormat(" %s n=%zu", metric, samples.n());
  }
  L["bgp.config_parse_ms"] = DurationsUs(spans, "bgp.config_parse").P(0.5) / 1e3;
  for (const auto& [layer, ns] : LayerSelfNs(spans)) {
    L[layer + ".self_ms"] = static_cast<double>(ns) / 1e6 / n;
    L[layer + ".share"] = Ratio(static_cast<double>(ns) / 1e9, traced_wall_s);
  }
  L["tracing.spans"] = static_cast<double>(spans.size()) / n;

  out.Note(dice::StrFormat("traced: %zu span(s) over %zu pass(es), %.3f s; p99 samples:%s",
                           spans.size(), passes, traced_wall_s, tail_counts.c_str()));
  if (config.trace) {
    if (const std::string short_tail = ShortTail(spans); !short_tail.empty()) {
      out.FailGate("per-layer " + short_tail);
    }
    const std::string path = config.run_dir + "/spans-" + config.workload + ".tsv";
    if (WriteSpans(spans, path)) {
      out.Note("spans written to " + path);
    } else {
      out.FailGate("cannot write " + path);
    }
  }
}

}  // namespace perfbench
