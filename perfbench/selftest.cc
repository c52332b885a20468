// The benchmark's self-tests: percentile arithmetic and the ten-beyond rule,
// span self time with overlapping children, metric-name validity, and a
// smoke-size run of every workload, untraced and traced, with every gate on.

#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "perfbench/harness.h"
#include "perfbench/metrics.h"
#include "perfbench/workloads.h"

namespace perfbench {

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  Expect(Quantile({}, 0.5) == 0, "empty sample quantile is 0");
  Expect(Quantile({7}, 0.99) == 7, "single sample quantile");
  Expect(Near(Quantile({5, 1, 4, 2, 3}, 0.5), 3), "median of 1..5 (unsorted)");
  Expect(Near(Quantile({1, 2, 3, 4, 5}, 0.25), 2), "p25 of 1..5");
  Expect(Near(Quantile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9), 9.1), "p90 of 1..10 interpolates");
  Expect(Near(Quantile({1, 2}, 1.0), 2) && Near(Quantile({1, 2}, 0.0), 1), "extremes");
  Expect(SamplesBeyond(100, 0.9) == 10 && SupportsQuantile(100, 0.9), "p90 needs 100 samples");
  Expect(SamplesBeyond(99, 0.9) == 9 && !SupportsQuantile(99, 0.9), "99 samples cannot give p90");
  Expect(SupportsQuantile(1000, 0.99) && !SupportsQuantile(999, 0.99), "p99 needs 1000 samples");
  Expect(SupportsQuantile(20, 0.5) && !SupportsQuantile(19, 0.5), "ten beyond the median");
  Samples few;
  for (int i = 1; i <= 50; ++i) {
    few.Add(i);
  }
  Expect(few.Tail(0.9) == 0 && Near(few.Tail(0.5), 25.5), "Tail reports 0 below the rule");
  Expect(Near(few.Sum(), 1275), "sample sum");

  // A traced run's per-layer p99s: a span with samples needs 1000 of them;
  // one the workload never opens is not short.
  std::vector<Span> spans(999, Span{"dice.step", 0, -1, 0, 1});
  spans.push_back(Span{"bgp.process_update", 0, -1, 0, 1});
  Expect(ShortTail(spans).rfind("dice.step_p99_us has n=999", 0) == 0, "999 steps are short");
  spans.back().name = "dice.step";
  Expect(ShortTail(spans).empty(), "1000 steps and no rpc span meet the p99 rule");
}

void TestSelfTime() {
  // parent [0,100] with children [10,40] and [30,60] overlapping each other,
  // [90,120] running past the parent's end, and a grandchild [15,20] that
  // must not count against the parent.
  std::vector<Span> spans = {
      {"dice.verdict", 1, -1, 0, 100},      {"dice.step", 1, 0, 10, 40},
      {"transport.rpc", 1, 0, 30, 60},      {"dice.check", 1, 0, 90, 120},
      {"dice.remote_execute", 1, 2, 35, 50}, {"checkpoint.take", 1, 1, 15, 20},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  Expect(self[0] == 100 - 50 - 10, "parent self time counts overlapping children once");
  Expect(self[1] == 30 - 5, "child self time excludes its own child");
  Expect(self[2] == 30 - 15, "rpc self time excludes the remote execute");
  Expect(self[3] == 30 && self[4] == 15 && self[5] == 5, "leaf self time is its duration");
  const auto layers = LayerSelfNs(spans);
  Expect(layers.at("dice") == 40 + 25 + 30 + 15 && layers.at("transport") == 15 &&
             layers.at("checkpoint") == 5,
         "self time per layer");
  int64_t total = 0;
  for (const auto& [layer, ns] : layers) {
    total += ns;
  }
  // Sibling overlap ([30,40]) is counted in both siblings' self time.
  Expect(total == 120 + 10, "layer self times add to the covered wall time plus sibling overlap");
  Expect(LayerOf("bgp.process_update") == "bgp" && LayerOf("net") == "net", "layer of a name");

  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "dice.verdict", 7);
    ScopedSpan inner(&tracer, "dice.step", 7);
    Expect(tracer.current() == 1, "innermost open span");
  }
  Expect(tracer.spans().size() == 2 && tracer.spans()[1].parent == 0 &&
             tracer.spans()[0].end_ns >= tracer.spans()[1].end_ns,
         "scoped spans nest");
}

void TestMetricNames() {
  Expect(ValidMetricName("setup_s") && ValidMetricName("sym.cache_hit_ratio") &&
             ValidMetricName("9lives-x.y_z"),
         "valid names");
  Expect(!ValidMetricName("") && !ValidMetricName("_x") && !ValidMetricName(".x") &&
             !ValidMetricName("a b") && !ValidMetricName("a/b") &&
             !ValidMetricName(std::string(65, 'a')) && ValidMetricName(std::string(64, 'a')),
         "invalid names");
  Expect(ValidUnit("ms") && ValidUnit("1/s") && ValidUnit("%") && ValidUnit("count") &&
             !ValidUnit("") && !ValidUnit("m s") && !ValidUnit(std::string(17, 'u')),
         "units");
  std::set<std::string> names;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& m : *list) {
      Expect(ValidMetricName(m.name) && ValidUnit(m.unit), std::string("registry entry ") + m.name);
      Expect(names.insert(m.name).second, std::string("unique name ") + m.name);
      Expect(std::string(m.better) == "lower" || std::string(m.better) == "higher",
             std::string("direction of ") + m.name);
    }
  }
  Expect(EndToEndMetrics().front().name == std::string("setup_s"), "setup_s is end-to-end");
  Expect(PerLayerMetrics().size() <= 128, "at most 128 per-layer metrics");
  MetricSet set;
  set.Add("a.b", 1.25, "ms");
  set.Add("c", 3, "count");
  Expect(set.Json() == "{\"a.b\": {\"value\": 1.25, \"unit\": \"ms\"}, \"c\": {\"value\": 3, "
                       "\"unit\": \"count\"}}",
         "metric JSON");
  Expect(FullDigits(0.1) == "0.10000000000000001" && FullDigits(12) == "12", "all digits");
}

void SmokeRun(const RunConfig& base, const std::string& workload, bool trace) {
  RunConfig config = base;
  config.workload = workload;
  config.seed = 3;
  config.seconds = 0;  // one measured pass
  config.trace = trace;
  config.smoke = true;
  const Outcome out = workload == "ingest" ? RunIngest(config)
                                           : RunLive(config, workload == "federated");
  const std::string what = "smoke " + workload + (trace ? " traced" : " untraced");
  for (const std::string& line : out.lines) {
    if (line.rfind("GATE", 0) == 0 || line.rfind("FAILED", 0) == 0) {
      std::printf("  %s: %s\n", what.c_str(), line.c_str());
    }
  }
  Expect(out.gates_ok, what + ": gates pass");
  Expect(out.failed == 0 && out.attempted > 0, what + ": no failed ops");
  for (const MetricSpec& m : EndToEndMetrics()) {
    auto it = out.e2e.find(m.name);
    Expect(trace || (it != out.e2e.end() && it->second > 0),
           what + ": end-to-end " + m.name + " measured and nonzero");
  }
  for (const auto& [name, value] : out.layers) {
    bool known = false;
    for (const MetricSpec& m : PerLayerMetrics()) {
      known = known || name == m.name;
    }
    Expect(known, what + ": per-layer " + name + " is registered");
  }
  if (trace) {
    for (const char* name : {"dice.runs", "sym.queries", "dice.step_p50_us", "dice.self_ms",
                             "checkpoint.clones", "bgp.config_parse_ms", "tracing.spans"}) {
      Expect(out.layers.count(name) != 0 && out.layers.at(name) > 0,
             what + ": per-layer " + name + " measured");
    }
    const char* specific = workload == "ingest"      ? "trace.decode_ms"
                           : workload == "federated" ? "transport.rtt_p50_us"
                                                     : "net.events";
    Expect(out.layers.count(specific) != 0 && out.layers.at(specific) > 0,
           what + ": per-layer " + specific + " measured");
  }
}

}  // namespace

int RunSelfTest(const RunConfig& base) {
  TestPercentiles();
  TestSelfTime();
  TestMetricNames();
  for (const char* workload : {"online", "federated", "ingest"}) {
    for (bool trace : {false, true}) {
      SmokeRun(base, workload, trace);
    }
  }
  std::printf("selftest: %s (%d failure(s))\n", failures == 0 ? "ok" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
