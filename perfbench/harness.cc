#include "perfbench/harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

size_t SamplesBeyond(size_t n, double q) {
  // Rounded before the ceiling so that 0.9 * 100 counts as exactly 90.
  const double rank = std::ceil(std::round(q * static_cast<double>(n) * 1e9) / 1e9);
  const size_t at_or_below = static_cast<size_t>(std::clamp(rank, 0.0, static_cast<double>(n)));
  return n - at_or_below;
}

bool SupportsQuantile(size_t n, double q) { return SamplesBeyond(n, q) >= 10; }

double Samples::Sum() const {
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return sum;
}

int32_t Tracer::Begin(const char* name, uint64_t group) {
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back(Span{name, group, current(), NowNs(), 0});
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  open_.pop_back();
}

void Tracer::Add(const char* name, uint64_t group, int32_t parent, int64_t start_ns,
                 int64_t end_ns) {
  spans_.push_back(Span{name, group, parent, start_ns, end_ns});
}

std::string LayerOf(std::string_view name) {
  return std::string(name.substr(0, name.find('.')));
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t begin = spans[i].start_ns;
    const int64_t end = std::max(spans[i].end_ns, begin);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = begin;  // covered time ends here so far
    for (const auto& [kid_start, kid_end] : kids) {
      const int64_t s = std::max(kid_start, cursor);
      const int64_t e = std::min(kid_end, end);
      if (e > s) {
        covered += e - s;
        cursor = e;
      }
    }
    self[i] = (end - begin) - covered;
  }
  return self;
}

std::map<std::string, int64_t> LayerSelfNs(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, int64_t> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_layer[LayerOf(spans[i].name)] += self[i];
  }
  return by_layer;
}

Samples DurationsUs(const std::vector<Span>& spans, std::string_view name) {
  Samples out;
  for (const Span& span : spans) {
    if (name == span.name) {
      out.Add(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

Samples SelfUs(const std::vector<Span>& spans, const std::vector<int64_t>& self,
               std::string_view name) {
  Samples out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (name == spans[i].name) {
      out.Add(static_cast<double>(self[i]) / 1e3);
    }
  }
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(out, "group\tid\tparent\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out, "%llu\t%zu\t%d\t%s\t%lld\t%lld\n", static_cast<unsigned long long>(s.group),
                 i, s.parent, s.name, static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin));
  }
  return std::fclose(out) == 0;
}

namespace {

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
}

}  // namespace

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(),
                     [](char c) { return IsAlnum(c) || c == '_' || c == '.' || c == '-'; });
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) {
    return false;
  }
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
  });
}

void MetricSet::Add(const std::string& name, double value, const std::string& unit) {
  if (!ValidMetricName(name) || !ValidUnit(unit) || Find(name) != nullptr ||
      !std::isfinite(value)) {
    std::fprintf(stderr, "perfbench: bad metric '%s' (unit '%s', value %g)\n", name.c_str(),
                 unit.c_str(), value);
    std::abort();
  }
  metrics_.push_back(Metric{name, value, unit});
}

const Metric* MetricSet::Find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

std::string FullDigits(double v) {
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricSet::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) {
      out += ", ";
    }
    out += "\"" + m.name + "\": {\"value\": " + FullDigits(m.value) + ", \"unit\": \"" + m.unit +
           "\"}";
  }
  out += "}";
  return out;
}

}  // namespace perfbench
