// Measurement plumbing for the repo benchmark: percentiles with the
// ten-beyond sample rule, in-memory spans with self time, and validated
// metric sets rendered as report lines and as the final JSON object.
//
// Everything here is benchmark-side. The program under test is never
// modified: spans wrap the benchmark's own calls into the public src/ APIs.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Monotonic wall clock in nanoseconds.
int64_t NowNs();

// num / den, or 0 when den is 0.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// --- percentiles -------------------------------------------------------------

// The q-quantile (0 <= q <= 1) of `values` by linear interpolation between
// closest ranks: position q*(n-1) in the sorted sample. 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

// Samples strictly above the q-quantile's rank: n - ceil(q*n).
size_t SamplesBeyond(size_t n, double q);

// The ten-beyond rule: a tail percentile is reported only when at least ten
// samples lie beyond it (p90 needs 100 samples, p99 needs 1000). The median is
// always reported, with its sample count.
bool SupportsQuantile(size_t n, double q);

// One timing's samples, aggregated over a whole run.
struct Samples {
  std::vector<double> values;

  void Add(double v) { values.push_back(v); }
  void Append(const Samples& other) {
    values.insert(values.end(), other.values.begin(), other.values.end());
  }
  size_t n() const { return values.size(); }
  double Sum() const;
  double P(double q) const { return Quantile(values, q); }
  // P(q) when the ten-beyond rule allows it (or q is the median), else 0.
  double Tail(double q) const { return q <= 0.5 || SupportsQuantile(n(), q) ? P(q) : 0; }
};

// --- spans -------------------------------------------------------------------

// One timed call. `name` is "<layer>.<operation>" with static storage; the
// spans of one verdict, batch or pass share `group`.
struct Span {
  const char* name = "";
  uint64_t group = 0;
  int32_t parent = -1;  // index into the tracer's span vector; -1 for roots
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Collects spans in memory for one thread. Untraced code passes a null
// Tracer*, which ScopedSpan and every call site check.
class Tracer {
 public:
  // Opens a span whose parent is the innermost open span.
  int32_t Begin(const char* name, uint64_t group);
  // Closes `id`, which must be the innermost open span.
  void End(int32_t id);
  // Records an already finished interval, e.g. one measured on another thread.
  void Add(const char* name, uint64_t group, int32_t parent, int64_t start_ns, int64_t end_ns);
  // The innermost open span, or -1.
  int32_t current() const { return open_.empty() ? -1 : open_.back(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t group)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name, group) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

// The layer of a span name: the part before the first '.'.
std::string LayerOf(std::string_view name);

// Self time of every span: its duration minus the union of its children's
// intervals clipped to it. Children may overlap each other (a server-side
// interval inside a client round trip, say); covered time counts once.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// Self time summed per layer, in nanoseconds.
std::map<std::string, int64_t> LayerSelfNs(const std::vector<Span>& spans);

// Inclusive durations (or self times) in microseconds of the spans called `name`.
Samples DurationsUs(const std::vector<Span>& spans, std::string_view name);
Samples SelfUs(const std::vector<Span>& spans, const std::vector<int64_t>& self,
               std::string_view name);

// Writes spans as tab-separated lines: group, id, parent, name, start, end
// (nanoseconds relative to the first span). Returns false on I/O failure.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

// --- metrics -----------------------------------------------------------------

// A name starts with a letter or digit and has at most 64 letters, digits,
// '_', '.' and '-'. A unit has 1 to 16 letters, digits, '_', '/', '%', '.'
// and '-'.
bool ValidMetricName(std::string_view name);
bool ValidUnit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// An ordered set of uniquely named metrics. Adding an invalid or duplicate
// name is a benchmark bug and aborts.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  const Metric* Find(std::string_view name) const;
  // {"name": {"value": v, "unit": "u"}, ...} with every digit of each value.
  std::string Json() const;

 private:
  std::vector<Metric> metrics_;
};

// Formats a double with every significant digit.
std::string FullDigits(double v);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
