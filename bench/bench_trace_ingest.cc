// F1j — trace-corpus ingest and replay-verdict identity:
//
// The same generated corpus (~100k-route full dump plus an update stream) is
// serialized to the text format and to the binary .dtrc format, parsed back,
// and replayed through the exploration pipeline from four sources —
// in-memory, text round-trip, binary round-trip, and the binary file streamed
// event by event into the RIB (trace::StreamTrace, the path dice_cli
// --trace takes). The bench reports ingest throughput (events/s and MB/s per
// format) and the size ratio, and gates on two identities: the parsed traces
// must be event-for-event equal, and the four replays must produce
// byte-identical detections digests. Any divergence exits non-zero, so CI
// catches a lossy format change the same way it catches a diverging solver
// fast path.
//
// Flags: --prefixes=N, --runs=N, --seed=S, --as_count=N.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/dice/explorer.h"
#include "src/trace/dtrc.h"
#include "src/trace/trace.h"
#include "src/util/frame.h"

namespace dice::bench {
namespace {

// The replay fixture: a transit AS with annotated relationships and no
// import filtering, so the seeded valley-shaped announcement is accepted and
// the route-leak checker has something to say (a non-empty digest makes the
// identity gate meaningful).
bgp::RouterConfig ReplayConfig() {
  bgp::RouterConfig config;
  config.name = "ingest-bench";
  config.local_as = 3;
  config.router_id = *bgp::Ipv4Address::Parse("10.0.0.3");
  bgp::NeighborConfig feed;
  feed.address = *bgp::Ipv4Address::Parse("10.0.0.9");
  feed.remote_as = 9;
  feed.relationship = bgp::PeerRelationship::kProvider;
  config.neighbors.push_back(feed);
  bgp::NeighborConfig customer;
  customer.address = *bgp::Ipv4Address::Parse("10.0.0.1");
  customer.remote_as = 1;
  customer.relationship = bgp::PeerRelationship::kCustomer;
  config.neighbors.push_back(customer);
  return config;
}

struct ReplayVerdict {
  uint32_t digest = 0;
  size_t detections = 0;
  size_t rib_prefixes = 0;
  double wall_seconds = 0;
};

using EventVisitor = std::function<void(const trace::TraceEvent&)>;
// Hands every event of one trace source to the visitor, in order.
using EventSource = std::function<void(const EventVisitor&)>;

EventSource FromTrace(const trace::Trace& trace) {
  return [&trace](const EventVisitor& visit) {
    for (const trace::TraceEvent& ev : trace.events) {
      visit(ev);
    }
  };
}

ReplayVerdict Replay(const EventSource& source, const bgp::RouterConfig& config,
                     uint64_t runs) {
  Stopwatch timer;
  bgp::RouterState state;
  state.config = std::make_shared<const bgp::RouterConfig>(config);
  const bgp::NeighborConfig& feed = config.neighbors[0];
  const bgp::NeighborConfig& customer = config.neighbors[1];

  bgp::PeerView feed_view;
  feed_view.id = 100;
  feed_view.remote_as = feed.remote_as;
  feed_view.address = feed.address;
  feed_view.established = true;
  bgp::UpdateSink discard = [](bgp::PeerId, const bgp::UpdateMessage&) {};
  source([&](const trace::TraceEvent& ev) {
    bgp::ProcessUpdate(state, {feed_view}, feed_view, feed, ev.update, discard);
  });

  bgp::PeerView customer_view;
  customer_view.id = 200;
  customer_view.remote_as = customer.remote_as;
  customer_view.address = customer.address;
  customer_view.established = true;

  ExplorerOptions options;
  options.concolic.max_runs = runs;
  Explorer explorer(options);
  explorer.AddChecker(std::make_unique<HijackChecker>());
  explorer.AddChecker(std::make_unique<RouteLeakChecker>());
  explorer.TakeCheckpoint(state, {feed_view, customer_view}, 0);

  // The customer announces a path that transits our provider: a valley the
  // checker must flag, plus whatever hijacks exploration digs out of the
  // loaded table.
  bgp::UpdateMessage seed;
  seed.attrs.origin = bgp::Origin::kIgp;
  seed.attrs.as_path = bgp::AsPath::Sequence({customer.remote_as, feed.remote_as, 64500});
  seed.attrs.next_hop = customer.address;
  seed.nlri.push_back(*bgp::Prefix::Parse("10.1.7.0/24"));
  explorer.ExploreSeed(seed, customer_view.id);

  ReplayVerdict verdict;
  std::string digest_src;
  for (const Detection& d : explorer.report().detections) {
    digest_src += d.ToString();
    digest_src += '\n';
  }
  verdict.digest = BodyChecksum(reinterpret_cast<const uint8_t*>(digest_src.data()),
                                digest_src.size());
  verdict.detections = explorer.report().detections.size();
  verdict.rib_prefixes = state.rib.PrefixCount();
  verdict.wall_seconds = timer.Seconds();
  return verdict;
}

double Throughput(size_t count, double seconds) {
  return seconds > 0 ? static_cast<double>(count) / seconds : 0;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t prefixes = flags.GetUint("prefixes", 100000);
  const uint64_t runs = flags.GetUint("runs", 200);
  const uint64_t seed = flags.GetUint("seed", 1);
  const uint64_t as_count = flags.GetUint("as_count", 500);

  trace::TraceGeneratorOptions gen_options;
  gen_options.seed = seed;
  gen_options.prefix_count = prefixes;
  gen_options.as_count = as_count;
  trace::TraceGenerator gen(gen_options);
  trace::Trace corpus = gen.FullDump();
  trace::Trace updates = gen.UpdateTrace();
  corpus.events.insert(corpus.events.end(), updates.events.begin(), updates.events.end());
  std::printf("F1j: trace ingest, %zu events (%llu-route dump + update stream)\n\n",
              corpus.events.size(), static_cast<unsigned long long>(prefixes));

  Stopwatch text_write_timer;
  std::string text = trace::SerializeTrace(corpus);
  const double text_write_s = text_write_timer.Seconds();
  Stopwatch binary_write_timer;
  auto binary = trace::SerializeTraceBinary(corpus);
  const double binary_write_s = binary_write_timer.Seconds();
  if (!binary.ok()) {
    std::fprintf(stderr, "FAIL: binary serialization: %s\n",
                 binary.status().ToString().c_str());
    return 1;
  }

  Stopwatch text_parse_timer;
  auto from_text = trace::ParseTrace(text);
  const double text_parse_s = text_parse_timer.Seconds();
  Stopwatch binary_parse_timer;
  auto from_binary = trace::ParseTraceBinary(*binary);
  const double binary_parse_s = binary_parse_timer.Seconds();
  if (!from_text.ok() || !from_binary.ok()) {
    std::fprintf(stderr, "FAIL: round-trip parse: %s / %s\n",
                 from_text.status().ToString().c_str(),
                 from_binary.status().ToString().c_str());
    return 1;
  }

  bool parsed_identical = from_text->events.size() == corpus.events.size() &&
                          from_binary->events.size() == corpus.events.size();
  for (size_t i = 0; parsed_identical && i < corpus.events.size(); ++i) {
    parsed_identical = from_text->events[i] == corpus.events[i] &&
                       from_binary->events[i] == corpus.events[i];
  }

  Table formats({"format", "bytes", "B/event", "write s", "parse s", "events/s", "MB/s"});
  formats.AddRow({"text", StrFormat("%zu", text.size()),
                  StrFormat("%.1f", static_cast<double>(text.size()) / corpus.events.size()),
                  StrFormat("%.3f", text_write_s), StrFormat("%.3f", text_parse_s),
                  StrFormat("%.0f", Throughput(corpus.events.size(), text_parse_s)),
                  StrFormat("%.1f", Throughput(text.size(), text_parse_s) / 1e6)});
  formats.AddRow({"dtrc", StrFormat("%zu", binary->size()),
                  StrFormat("%.1f", static_cast<double>(binary->size()) / corpus.events.size()),
                  StrFormat("%.3f", binary_write_s), StrFormat("%.3f", binary_parse_s),
                  StrFormat("%.0f", Throughput(corpus.events.size(), binary_parse_s)),
                  StrFormat("%.1f", Throughput(binary->size(), binary_parse_s) / 1e6)});
  formats.Print();
  std::printf("\nsize ratio dtrc/text: %.3f, parse speedup: %.2fx\n",
              static_cast<double>(binary->size()) / text.size(),
              binary_parse_s > 0 ? text_parse_s / binary_parse_s : 0);

  const bgp::RouterConfig config = ReplayConfig();
  ReplayVerdict memory = Replay(FromTrace(corpus), config, runs);
  ReplayVerdict via_text = Replay(FromTrace(*from_text), config, runs);
  ReplayVerdict via_binary = Replay(FromTrace(*from_binary), config, runs);
  // StreamTrace consumes its bytes, so it gets a copy of the file.
  Status streamed = Status::Ok();
  ReplayVerdict via_stream = Replay(
      [&](const EventVisitor& visit) { streamed = trace::StreamTrace(Bytes(*binary), visit); },
      config, runs);
  if (!streamed.ok()) {
    std::fprintf(stderr, "FAIL: streamed ingest: %s\n", streamed.ToString().c_str());
    return 1;
  }
  bool replay_identical = true;
  for (const ReplayVerdict* other : {&via_text, &via_binary, &via_stream}) {
    replay_identical = replay_identical && memory.digest == other->digest &&
                       memory.detections == other->detections;
  }

  std::printf("\nreplay verdicts (%llu exploration runs each; the streamed row's wall time "
              "includes decode):\n",
              static_cast<unsigned long long>(runs));
  Table verdicts({"source", "RIB prefixes", "detections", "digest", "wall s"});
  ReplayVerdict* rows[] = {&memory, &via_text, &via_binary, &via_stream};
  const char* names[] = {"in-memory", "text", "dtrc", "dtrc streamed"};
  for (size_t i = 0; i < 4; ++i) {
    verdicts.AddRow({names[i], StrFormat("%zu", rows[i]->rib_prefixes),
                     StrFormat("%zu", rows[i]->detections),
                     StrFormat("%08x", rows[i]->digest),
                     StrFormat("%.2f", rows[i]->wall_seconds)});
  }
  verdicts.Print();

  if (!parsed_identical) {
    std::printf("\nFAIL: a round-trip changed the event stream\n");
  }
  if (!replay_identical) {
    std::printf("\nFAIL: replay verdicts diverge across formats\n");
  }
  if (memory.detections == 0) {
    std::printf("\nFAIL: the seeded valley produced no detections — the gate is vacuous\n");
  }

  JsonLine json("trace_ingest");
  json.Add("events", static_cast<uint64_t>(corpus.events.size()))
      .Add("text_bytes", static_cast<uint64_t>(text.size()))
      .Add("dtrc_bytes", static_cast<uint64_t>(binary->size()))
      .Add("text_parse_seconds", text_parse_s)
      .Add("dtrc_parse_seconds", binary_parse_s)
      .Add("detections", static_cast<uint64_t>(memory.detections))
      .Add("parsed_identical", parsed_identical)
      .Add("replay_identical", replay_identical);
  json.Print();
  return parsed_identical && replay_identical && memory.detections > 0 ? 0 : 1;
}

}  // namespace
}  // namespace dice::bench

int main(int argc, char** argv) { return dice::bench::Run(argc, argv); }
