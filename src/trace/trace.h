// BGP trace model: events, a text serialization, and a RouteViews-style
// synthetic workload generator.
//
// The paper replays a RouteViews dump (full table of 319,355 prefixes from
// route-views.eqix, 2010-04-01) plus its 15-minute update trace into the
// DiCE-enabled router. That data is not redistributable here, so the
// TraceGenerator synthesizes an equivalent workload: a full-table dump with a
// realistic prefix-length mix and power-law origin-AS popularity, and a
// low-rate update stream (announcements, re-announcements with changed paths,
// withdrawals) with the same knobs the evaluation depends on — table size and
// update rate. See DESIGN.md §2 for the substitution argument.

#ifndef SRC_TRACE_TRACE_H_
#define SRC_TRACE_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/bgp/message.h"
#include "src/net/event_loop.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace dice::trace {

// One timed trace event: an UPDATE to inject at `at` (relative to replay
// start).
struct TraceEvent {
  net::SimTime at = 0;
  bgp::UpdateMessage update;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

struct Trace {
  std::vector<TraceEvent> events;

  size_t TotalAnnouncedPrefixes() const;
  size_t TotalWithdrawnPrefixes() const;
  net::SimTime Duration() const { return events.empty() ? 0 : events.back().at; }
};

// --- Text serialization ("MRT-lite") ---------------------------------------
//
// Line format, '|' separated:
//   A|<time_us>|<as path, space separated>|<next hop>|<origin: i/e/?>|<p1,p2,...>
//   W|<time_us>|<p1,p2,...>
std::string SerializeTrace(const Trace& trace);
[[nodiscard]] StatusOr<Trace> ParseTrace(const std::string& text);

// --- Synthetic workload -----------------------------------------------------

struct TraceGeneratorOptions {
  uint64_t seed = 1;

  // Table scale. The paper's table has 319,355 prefixes; benches default to a
  // laptop-friendly scale and accept the paper scale via flag.
  size_t prefix_count = 50000;

  // AS topology scale (the "rest of the Internet" behind the feed).
  size_t as_count = 2000;
  // The AS of the feed peer itself (first hop of every path).
  bgp::AsNumber feed_as = 65000;

  // AS-path length distribution (sampled uniformly in [min, max] around the
  // Internet's ~4 mean).
  size_t min_path_len = 2;
  size_t max_path_len = 6;

  // Zipf exponent for origin-AS popularity (few ASes originate many prefixes).
  double as_popularity_exponent = 1.1;

  // Prefixes per UPDATE in the full dump (RouteViews groups NLRI sharing a
  // path; ~4096-byte messages hold a few hundred prefixes).
  size_t prefixes_per_message = 64;

  // Update-trace shape.
  net::SimTime update_duration = 15 * 60 * net::kSecond;  // the paper's 15 min
  double updates_per_second = 0.29;  // paper steady state ~0.27-0.29 update/s
  double withdraw_fraction = 0.2;    // W vs re-announce mix
};

class TraceGenerator {
 public:
  explicit TraceGenerator(TraceGeneratorOptions options);

  // The synthesized table: prefix + the attributes the feed announces.
  struct TableRoute {
    bgp::Prefix prefix;
    bgp::PathAttributes attrs;
  };
  const std::vector<TableRoute>& table() const { return table_; }

  // Hands each event of the full-table dump to `visit`, in order, building
  // one event at a time: a batched UPDATE sequence, all at time 0, like a
  // table transfer after session establishment. The event is reused, so
  // `visit` must copy what it keeps.
  void StreamFullDump(const std::function<void(const TraceEvent&)>& visit) const;

  // The same dump collected into a Trace.
  Trace FullDump() const;

  // Low-rate update trace over existing table entries.
  Trace UpdateTrace();

  // Convenience: a single random-but-valid UPDATE touching table entries.
  bgp::UpdateMessage RandomUpdate();

 private:
  bgp::PathAttributes MakeAttrs(bgp::AsNumber origin_as);
  bgp::Prefix RandomPrefix();

  TraceGeneratorOptions options_;
  Rng rng_;
  std::vector<TableRoute> table_;
};

}  // namespace dice::trace

#endif  // SRC_TRACE_TRACE_H_
