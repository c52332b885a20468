// dice_trace — the trace-corpus tool: generate, inspect, record, and replay
// BGP traces in the text (MRT-lite) and binary (.dtrc) formats of src/trace/.
//
// Usage:
//   dice_trace gen    --out=FILE [--prefixes=N] [--as_count=N] [--seed=N]
//                     [--rate=R] [--duration_s=S] [--withdraw_fraction=F]
//                     [--dump_only] [--text]
//   dice_trace info   --in=FILE
//   dice_trace record --config=router.conf --out=FILE [--prefixes=N]
//                     [--seed=N] [--rate=R] [--duration_s=S] [--text]
//   dice_trace replay --in=FILE --config=router.conf [--runs=N]
//                     [--seed-prefix=P] [--seed-asn=A] [--anycast=P,...]
//
// gen synthesizes a full-table dump plus an update stream at the requested
// scale and writes it as a compact .dtrc binary (or text with --text).
// info prints summary statistics for either format (sniffed by magic).
// record runs the configured router live in the simulator, streams a
// synthetic table+update trace in from the *first* neighbor, and captures
// every UPDATE the router exports to the *last* neighbor — a candump of the
// router's own egress, timestamped in sim time.
// replay loads a trace into the configured router and runs the same
// exploration as dice_cli: hijack checker plus the valley-free route-leak checker (armed by
// `relationship` annotations in the config). Exit code 3 reports findings.
//
// Exit codes: 0 ok (no findings), 1 runtime error, 2 usage error, 3 findings.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/common.h"
#include "src/bgp/attr_intern.h"
#include "src/bgp/router.h"
#include "src/dice/explorer.h"
#include "src/persist/env.h"
#include "src/trace/dtrc.h"
#include "src/trace/feed.h"
#include "src/trace/trace.h"
#include "src/util/frame.h"

namespace dice {
namespace {

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open " + path);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void PrintUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: dice_trace <command> [flags]\n"
      "commands:\n"
      "  gen    --out=FILE [--prefixes=N] [--as_count=N] [--seed=N] [--rate=R]\n"
      "         [--duration_s=S] [--withdraw_fraction=F] [--dump_only] [--text]\n"
      "  info   --in=FILE\n"
      "  record --config=router.conf --out=FILE [--prefixes=N] [--seed=N]\n"
      "         [--rate=R] [--duration_s=S] [--text]\n"
      "  replay --in=FILE --config=router.conf [--runs=N]\n"
      "         [--seed-prefix=P] [--seed-asn=A] [--anycast=P,...]\n"
      "Traces are written as binary .dtrc unless --text; info and replay accept\n"
      "both formats (sniffed by magic).\n");
}

bool ParsesAsDouble(const std::string& value) {
  if (value.empty()) {
    return false;
  }
  char* end = nullptr;
  std::strtod(value.c_str(), &end);
  return end == value.c_str() + value.size();
}

// Per-subcommand flag tables. Every flag takes a value except the booleans,
// which may appear bare (--text) or with a value (--text=1).
struct CommandSpec {
  std::set<std::string> known;
  std::set<std::string> uint;
  std::set<std::string> real;  // floating point
  std::set<std::string> boolean;
  std::set<std::string> required;
};

const CommandSpec* SpecFor(const std::string& command) {
  static const CommandSpec kGen = {
      {"out", "prefixes", "as_count", "seed", "rate", "duration_s", "withdraw_fraction",
       "dump_only", "text"},
      {"prefixes", "as_count", "seed", "duration_s"},
      {"rate", "withdraw_fraction"},
      {"dump_only", "text"},
      {"out"},
  };
  static const CommandSpec kInfo = {{"in"}, {}, {}, {}, {"in"}};
  static const CommandSpec kRecord = {
      {"config", "out", "prefixes", "seed", "rate", "duration_s", "text"},
      {"prefixes", "seed", "duration_s"},
      {"rate"},
      {"text"},
      {"config", "out"},
  };
  static const CommandSpec kReplay = {
      {"in", "config", "runs", "seed-prefix", "seed-asn", "anycast"},
      {"runs", "seed-asn"},
      {},
      {},
      {"in", "config"},
  };
  if (command == "gen") return &kGen;
  if (command == "info") return &kInfo;
  if (command == "record") return &kRecord;
  if (command == "replay") return &kReplay;
  return nullptr;
}

// Same contract as dice_cli's ValidateArgs: rejects anything bench::Flags
// would silently ignore or misread. Returns 0 to proceed, nonzero to exit
// with that code (0 also for explicit --help, via *help_requested).
int ValidateArgs(const std::string& command, const CommandSpec& spec, int argc, char** argv,
                 bool* help_requested) {
  std::set<std::string> seen;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      *help_requested = true;
      return 0;
    }
    const auto flag = bench::Flags::ParseFlag(arg);
    if (!flag.has_value()) {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", arg.c_str());
      return 2;
    }
    const auto& [key, value] = *flag;
    if (spec.known.count(key) == 0) {
      std::fprintf(stderr, "error: unknown flag '--%s' for '%s'\n", key.c_str(),
                   command.c_str());
      return 2;
    }
    seen.insert(key);
    if (arg.find('=') == std::string::npos && spec.boolean.count(key) == 0) {
      std::fprintf(stderr, "error: flag '--%s' requires a value\n", key.c_str());
      return 2;
    }
    if (spec.uint.count(key) != 0 && !ParseUint64(value).has_value()) {
      std::fprintf(stderr, "error: flag '--%s' expects an unsigned integer (got '%s')\n",
                   key.c_str(), value.c_str());
      return 2;
    }
    if (spec.real.count(key) != 0 && !ParsesAsDouble(value)) {
      std::fprintf(stderr, "error: flag '--%s' expects a number (got '%s')\n", key.c_str(),
                   value.c_str());
      return 2;
    }
  }
  for (const std::string& required : spec.required) {
    if (seen.count(required) == 0) {
      std::fprintf(stderr, "error: '%s' requires --%s\n", command.c_str(), required.c_str());
      return 2;
    }
  }
  return 0;
}

trace::TraceGeneratorOptions GeneratorOptions(const bench::Flags& flags) {
  trace::TraceGeneratorOptions options;
  options.seed = flags.GetUint("seed", 1);
  options.prefix_count = flags.GetUint("prefixes", 10000);
  options.as_count = flags.GetUint("as_count", options.as_count);
  options.updates_per_second = flags.GetDouble("rate", options.updates_per_second);
  options.update_duration = flags.GetUint("duration_s", 60) * net::kSecond;
  return options;
}

// Appends `updates` after `dump`, keeping event times non-decreasing (the
// binary writer requires it; the generator already emits both sorted).
trace::Trace ConcatTraces(trace::Trace dump, const trace::Trace& updates) {
  for (const trace::TraceEvent& ev : updates.events) {
    dump.events.push_back(ev);
  }
  return dump;
}

// Streams `writer`'s .dtrc file to `path`, one chunk at a time, and prints
// the summary line.
int WriteDtrcFile(const trace::TraceWriter& writer, const std::string& path, size_t announced,
                  size_t withdrawn) {
  persist::PosixEnv env;
  Status written = env.WriteFile(
      path, [&writer](persist::WritableFile& file) { return writer.Finish(file); });
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %llu events, %zu announced, %zu withdrawn, %zu bytes (binary)\n",
              path.c_str(), static_cast<unsigned long long>(writer.event_count()), announced,
              withdrawn, writer.SerializedSize());
  return 0;
}

int WriteTraceFile(const trace::Trace& trace, const std::string& path, bool text) {
  if (!text) {
    trace::TraceWriter writer;
    for (const trace::TraceEvent& event : trace.events) {
      if (Status appended = writer.Append(event); !appended.ok()) {
        std::fprintf(stderr, "error: %s\n", appended.ToString().c_str());
        return 1;
      }
    }
    return WriteDtrcFile(writer, path, trace.TotalAnnouncedPrefixes(),
                         trace.TotalWithdrawnPrefixes());
  }
  const std::string payload = trace::SerializeTrace(trace);
  persist::PosixEnv env;
  Status written = env.WriteFile(path, [&payload](persist::WritableFile& file) {
    return file.Append(reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  });
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu events, %zu announced, %zu withdrawn, %zu bytes (text)\n",
              path.c_str(), trace.events.size(), trace.TotalAnnouncedPrefixes(),
              trace.TotalWithdrawnPrefixes(), payload.size());
  return 0;
}

int RunGen(const bench::Flags& flags) {
  trace::TraceGeneratorOptions options = GeneratorOptions(flags);
  options.withdraw_fraction = flags.GetDouble("withdraw_fraction", options.withdraw_fraction);
  trace::TraceGenerator generator(options);
  const std::string path = flags.GetString("out", "");
  const bool dump_only = flags.GetBool("dump_only", false);
  if (flags.GetBool("text", false)) {
    trace::Trace trace = generator.FullDump();
    if (!dump_only) {
      trace = ConcatTraces(std::move(trace), generator.UpdateTrace());
    }
    return WriteTraceFile(trace, path, /*text=*/true);
  }
  // .dtrc: each event goes from the generator straight into the writer, so
  // no Trace of the dump is built, and the file streams out of the writer.
  trace::TraceWriter writer;
  size_t announced = 0;
  size_t withdrawn = 0;
  Status appended;
  auto append = [&](const trace::TraceEvent& event) {
    if (appended.ok()) {
      appended = writer.Append(event);
      announced += event.update.nlri.size();
      withdrawn += event.update.withdrawn.size();
    }
  };
  generator.StreamFullDump(append);
  if (!dump_only) {
    for (const trace::TraceEvent& event : generator.UpdateTrace().events) {
      append(event);
    }
  }
  if (!appended.ok()) {
    std::fprintf(stderr, "error: %s\n", appended.ToString().c_str());
    return 1;
  }
  return WriteDtrcFile(writer, path, announced, withdrawn);
}

int RunInfo(const bench::Flags& flags) {
  const std::string path = flags.GetString("in", "");
  persist::PosixEnv env;
  auto data = env.ReadFile(path);
  if (!data.ok()) {
    std::fprintf(stderr, "error: %s\n", data.status().ToString().c_str());
    return 1;
  }
  const bool binary = trace::LooksLikeBinaryTrace(*data);
  const size_t bytes = data->size();
  size_t events = 0;
  size_t announced = 0;
  size_t withdrawn = 0;
  net::SimTime duration = 0;  // the last event's time, as Trace::Duration()
  std::unordered_set<uint64_t> attr_sets;
  Status streamed = trace::StreamTrace(std::move(*data), [&](const trace::TraceEvent& ev) {
    ++events;
    announced += ev.update.nlri.size();
    withdrawn += ev.update.withdrawn.size();
    duration = ev.at;
    if (!ev.update.nlri.empty()) {
      attr_sets.insert(bgp::HashAttrs(ev.update.attrs));
    }
  });
  if (!streamed.ok()) {
    std::fprintf(stderr, "trace error: %s\n", streamed.ToString().c_str());
    return 1;
  }
  std::printf("%s: %s format, %zu bytes\n", path.c_str(), binary ? "binary .dtrc" : "text",
              bytes);
  std::printf("events: %zu (%zu announced prefixes, %zu withdrawn)\n", events, announced,
              withdrawn);
  std::printf("distinct attr sets: %zu\n", attr_sets.size());
  std::printf("duration: %.3fs\n", static_cast<double>(duration) / net::kSecond);
  if (events != 0) {
    std::printf("bytes/event: %.1f\n",
                static_cast<double>(bytes) / static_cast<double>(events));
  }
  return 0;
}

int RunRecord(const bench::Flags& flags) {
  auto config_text = ReadFile(flags.GetString("config", ""));
  if (!config_text.ok()) {
    std::fprintf(stderr, "error: %s\n", config_text.status().ToString().c_str());
    return 1;
  }
  auto parsed = bgp::ParseSingleRouterConfig(*config_text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "config error: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  bgp::RouterConfig config = std::move(parsed).value();
  if (config.neighbors.size() < 2) {
    std::fprintf(stderr,
                 "error: record needs at least two neighbors (first feeds the table, "
                 "last captures the router's exports)\n");
    return 1;
  }
  const bgp::NeighborConfig& table_neighbor = config.neighbors.front();
  const bgp::NeighborConfig& capture_neighbor = config.neighbors.back();

  trace::TraceGeneratorOptions options = GeneratorOptions(flags);
  trace::TraceGenerator generator(options);
  trace::Trace input = ConcatTraces(generator.FullDump(), generator.UpdateTrace());
  net::SimTime span = input.Duration();

  constexpr net::NodeId kRouterNode = 1;
  constexpr net::NodeId kTableNode = 2;
  constexpr net::NodeId kCaptureNode = 3;
  net::EventLoop loop;
  net::Network net(&loop);
  bgp::Router router(kRouterNode, config, &net);
  trace::BgpFeedNode table_feed(kTableNode, "table-feed", table_neighbor.remote_as,
                                table_neighbor.address, &net);
  trace::BgpFeedNode capture(kCaptureNode, "capture", capture_neighbor.remote_as,
                             capture_neighbor.address, &net);
  net.AddNode(&router);
  net.AddNode(&table_feed);
  net.AddNode(&capture);
  router.RegisterPeerNode(table_neighbor.address, kTableNode);
  router.RegisterPeerNode(capture_neighbor.address, kCaptureNode);
  table_feed.SetPeer(kRouterNode);
  capture.SetPeer(kRouterNode);
  router.Start();
  net.Connect(kRouterNode, kTableNode, net::kMillisecond);
  net.Connect(kRouterNode, kCaptureNode, net::kMillisecond);
  loop.RunFor(5 * net::kSecond);
  if (!router.Established(kTableNode) || !router.Established(kCaptureNode)) {
    std::fprintf(stderr, "error: simulated sessions did not establish\n");
    return 1;
  }

  // The candump: every UPDATE the router sends the capture peer, stamped with
  // the sim time it crossed the wire (relative to recording start).
  trace::Trace recorded;
  const net::SimTime record_start = loop.now();
  capture.set_update_observer([&](const bgp::UpdateMessage& update) {
    recorded.events.push_back(trace::TraceEvent{loop.now() - record_start, update});
  });

  trace::ScheduleTrace(&net, &table_feed, input, loop.now());
  loop.RunFor(span + 20 * net::kSecond);
  std::printf("recorded %zu UPDATEs from router %s (AS %u) toward %s over %.3fs of sim time\n",
              recorded.events.size(), config.name.c_str(), config.local_as,
              capture_neighbor.address.ToString().c_str(),
              static_cast<double>(recorded.Duration()) / net::kSecond);
  return WriteTraceFile(recorded, flags.GetString("out", ""), flags.GetBool("text", false));
}

int RunReplay(const bench::Flags& flags) {
  auto config_text = ReadFile(flags.GetString("config", ""));
  if (!config_text.ok()) {
    std::fprintf(stderr, "error: %s\n", config_text.status().ToString().c_str());
    return 1;
  }
  auto parsed = bgp::ParseSingleRouterConfig(*config_text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "config error: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  bgp::RouterConfig config = std::move(parsed).value();
  if (config.neighbors.empty()) {
    std::fprintf(stderr, "error: the router needs at least one neighbor\n");
    return 1;
  }
  const bgp::NeighborConfig* table_neighbor = &config.neighbors.front();
  const bgp::NeighborConfig* explore_neighbor = &config.neighbors.back();

  const std::string trace_path = flags.GetString("in", "");
  persist::PosixEnv env;
  auto trace_data = env.ReadFile(trace_path);
  if (!trace_data.ok()) {
    std::fprintf(stderr, "error: %s\n", trace_data.status().ToString().c_str());
    return 1;
  }

  bgp::RouterState state;
  state.config = std::make_shared<const bgp::RouterConfig>(config);
  bgp::PeerView table_view;
  table_view.id = 100;
  table_view.remote_as = table_neighbor->remote_as;
  table_view.address = table_neighbor->address;
  table_view.established = true;

  size_t events = 0;
  size_t loaded = 0;
  bgp::UpdateSink discard = [](bgp::PeerId, const bgp::UpdateMessage&) {};
  Status streamed = trace::StreamTrace(std::move(*trace_data), [&](const trace::TraceEvent& ev) {
    bgp::ProcessUpdate(state, {table_view}, table_view, *table_neighbor, ev.update, discard);
    loaded += ev.update.nlri.size();
    ++events;
  });
  if (!streamed.ok()) {
    std::fprintf(stderr, "trace error: %s\n", streamed.ToString().c_str());
    return 1;
  }
  std::printf("replayed %s: %zu events, %zu announced prefixes\n", trace_path.c_str(), events,
              loaded);
  std::printf("RIB: %zu prefixes\n", state.rib.PrefixCount());

  bgp::PeerView explore_view;
  explore_view.id = 200;
  explore_view.remote_as = explore_neighbor->remote_as;
  explore_view.address = explore_neighbor->address;
  explore_view.established = true;

  ExplorerOptions options;
  options.concolic.max_runs = flags.GetUint("runs", 1000);
  Explorer explorer(options);
  auto hijack = std::make_unique<HijackChecker>();
  for (const std::string& p : Split(flags.GetString("anycast", ""), ',')) {
    auto prefix = bgp::Prefix::Parse(p);
    if (prefix.has_value()) {
      hijack->AddAnycastPrefix(*prefix);
    }
  }
  explorer.AddChecker(std::move(hijack));
  auto leak = std::make_unique<RouteLeakChecker>();
  const RouteLeakChecker* leak_view = leak.get();
  explorer.AddChecker(std::move(leak));

  explorer.TakeCheckpoint(state, {table_view, explore_view}, 0);
  if (leak_view->armed()) {
    std::printf("route-leak checker armed by relationship annotations\n");
  }

  bgp::UpdateMessage seed_update;
  auto seed_prefix = bgp::Prefix::Parse(flags.GetString("seed-prefix", "10.1.7.0/24"));
  bgp::AsNumber seed_asn = static_cast<bgp::AsNumber>(flags.GetUint("seed-asn", 0));
  if (seed_asn == 0) {
    seed_asn = explore_neighbor->remote_as;
  }
  seed_update.attrs.origin = bgp::Origin::kIgp;
  seed_update.attrs.as_path = bgp::AsPath::Sequence({explore_neighbor->remote_as, seed_asn});
  seed_update.attrs.next_hop = explore_neighbor->address;
  seed_update.nlri.push_back(seed_prefix.value_or(*bgp::Prefix::Parse("10.1.7.0/24")));

  explorer.ExploreSeed(seed_update, explore_view.id);
  std::printf("%s\n", explorer.report().Summary().c_str());

  // Byte-compatible with dice_cli's digest: gates diff a .dtrc replay against
  // the same trace replayed from text or in memory.
  std::string digest_src;
  for (const Detection& d : explorer.report().detections) {
    digest_src += d.ToString();
    digest_src += '\n';
  }
  std::printf("detections_digest=%08x count=%zu\n",
              BodyChecksum(reinterpret_cast<const uint8_t*>(digest_src.data()),
                           digest_src.size()),
              explorer.report().detections.size());
  for (const Detection& d : explorer.report().detections) {
    std::printf("  %s\n", d.ToString().c_str());
  }
  return explorer.report().detections.empty() ? 0 : 3;
}

int Run(int argc, char** argv) {
  if (argc < 2 || std::string(argv[1]) == "--help" || std::string(argv[1]) == "-h") {
    PrintUsage(argc < 2 ? stderr : stdout);
    return argc < 2 ? 2 : 0;
  }
  const std::string command = argv[1];
  const CommandSpec* spec = SpecFor(command);
  if (spec == nullptr) {
    std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
    PrintUsage(stderr);
    return 2;
  }
  bool help_requested = false;
  if (int rc = ValidateArgs(command, *spec, argc, argv, &help_requested); rc != 0) {
    PrintUsage(stderr);
    return rc;
  }
  if (help_requested) {
    PrintUsage(stdout);
    return 0;
  }
  bench::Flags flags(argc, argv);
  if (command == "gen") return RunGen(flags);
  if (command == "info") return RunInfo(flags);
  if (command == "record") return RunRecord(flags);
  return RunReplay(flags);
}

}  // namespace
}  // namespace dice

int main(int argc, char** argv) { return dice::Run(argc, argv); }
