// The ingest workload: the shipped dice_cli run as a child process on a
// generated full-table .dtrc corpus, cold with --trace and --state_dir, then
// warm from that directory. The in-process replica calls the same public
// functions in the CLI's order (ParseTraceAuto, ProcessUpdate per event,
// snapshot Save, the verdict; warm: LoadLatest with LoadRouterState and
// LoadQueryCache, the verdict) and is what the traced run measures.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "perfbench/fixtures.h"
#include "perfbench/launcher.h"
#include "perfbench/workloads.h"
#include "src/bgp/attr_intern.h"
#include "src/bgp/config.h"
#include "src/bgp/update_processing.h"
#include "src/dice/distributed.h"
#include "src/persist/env.h"
#include "src/persist/query_cache_snapshot.h"
#include "src/persist/router_state_snapshot.h"
#include "src/persist/snapshot_store.h"
#include "src/trace/dtrc.h"
#include "src/trace/trace.h"
#include "src/util/frame.h"
#include "src/util/strings.h"

namespace perfbench {

namespace bgp = dice::bgp;
namespace persist = dice::persist;
namespace trace = dice::trace;
using dice::StrFormat;

namespace {

struct IngestInputs {
  size_t prefixes = 0;
  size_t runs = 64;  // the CLI's exploration budget; exploration exhausts first
  std::string dir;
  std::string config_path;
  std::string corpus_path;
  std::string config_text;
  std::string inject;       // prefix:origin-AS, as --inject takes it
  std::string seed_prefix;  // a /24 inside the victim /22, so verdicts carry detections
  size_t events = 0;
  size_t routes = 0;  // announced prefixes in the corpus
  size_t bytes = 0;
};

bool WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  out << data;
  return static_cast<bool>(out);
}

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::optional<IngestInputs> MakeIngestInputs(const RunConfig& config, std::string* error) {
  IngestInputs in;
  in.prefixes = config.smoke ? 3000 : 100000;
  in.dir = config.run_dir + StrFormat("/ingest-%d", static_cast<int>(getpid()));
  std::filesystem::remove_all(in.dir);
  std::filesystem::create_directories(in.dir);
  in.config_path = in.dir + "/provider.conf";
  in.corpus_path = in.dir + "/corpus.dtrc";

  ProviderShape shape;
  shape.customer_blocks = 16;
  in.config_text = ProviderConfigText(shape);
  in.inject = StrFormat("%s:%u", kVictimSpace, kVictimOrigin);
  const bgp::Prefix victim = *bgp::Prefix::Parse(kVictimSpace);
  in.seed_prefix =
      bgp::Prefix::Make(bgp::Ipv4Address(victim.address().bits() |
                                         static_cast<uint32_t>(config.seed % 4) << 8),
                        24)
          .ToString();

  trace::TraceGeneratorOptions gen;
  gen.seed = config.seed;
  gen.prefix_count = in.prefixes;
  trace::Trace corpus = trace::TraceGenerator(gen).FullDump();
  auto bytes = trace::SerializeTraceBinary(corpus);
  if (!bytes.ok()) {
    *error = "corpus: " + bytes.status().ToString();
    return std::nullopt;
  }
  in.events = corpus.events.size();
  in.routes = corpus.TotalAnnouncedPrefixes();
  in.bytes = bytes->size();
  if (!WriteFile(in.config_path, in.config_text) ||
      !WriteFile(in.corpus_path, std::string(bytes->begin(), bytes->end()))) {
    *error = "cannot write inputs under " + in.dir;
    return std::nullopt;
  }
  return in;
}

// "detections_digest=XXXXXXXX count=N" from the CLI's output, or "".
std::string CliDigest(const std::string& output) {
  const size_t at = output.find("detections_digest=");
  if (at == std::string::npos) {
    return "";
  }
  const size_t end = output.find('\n', at);
  return output.substr(at + 18, end == std::string::npos ? std::string::npos : end - at - 18);
}

// --- the in-process replica ----------------------------------------------------

struct ReplicaRun {
  std::string error;
  std::string digest;  // in the CLI's "XXXXXXXX count=N" form
  double setup_s = 0;  // config, trace read and decode or snapshot load, first checkpoint
  double wall_s = 0;
  Counts counts;
};

// Mirrors dice_cli's trace + --state_dir path step by step, so its digest
// must equal the CLI's. `warm` expects the snapshots a cold replica left.
ReplicaRun RunReplica(const IngestInputs& in, const std::string& state_dir, bool warm,
                      Tracer* tracer, uint64_t group) {
  ReplicaRun r;
  const int64_t start = NowNs();
  const bgp::AttrInternStats intern_before = bgp::AttrInternTableStats();
  std::optional<bgp::RouterConfig> parsed;
  {
    ScopedSpan span(tracer, "bgp.config_parse", group);
    auto config = bgp::ParseSingleRouterConfig(in.config_text);
    if (!config.ok()) {
      r.error = "config: " + config.status().ToString();
      return r;
    }
    parsed = std::move(config).value();
  }
  const bgp::RouterConfig& config = *parsed;
  const bgp::NeighborConfig& table_neighbor = config.neighbors.front();
  const bgp::NeighborConfig& explore_neighbor = config.neighbors.back();
  bgp::RouterState state;
  state.config = std::make_shared<const bgp::RouterConfig>(config);
  bgp::PeerView table_view;
  table_view.id = 100;
  table_view.remote_as = table_neighbor.remote_as;
  table_view.address = table_neighbor.address;
  table_view.established = true;

  std::string corpus;
  {
    ScopedSpan span(tracer, "trace.read", group);
    corpus = ReadFile(in.corpus_path).value_or("");
  }
  std::string fp_src = in.config_text + '\n' + corpus + '\n' + in.inject;
  const uint64_t fingerprint =
      dice::BodyChecksum(reinterpret_cast<const uint8_t*>(fp_src.data()), fp_src.size());
  fp_src.clear();

  persist::PosixEnv env;
  persist::SnapshotStore router_store(env, state_dir, "router_state");
  persist::SnapshotStore cache_store(env, state_dir, "query_cache");
  bool loaded = false;
  {
    ScopedSpan span(tracer, "persist.load", group);
    auto generation = router_store.LoadLatest([&](const dice::Bytes& bytes) -> dice::Status {
      auto restored = persist::LoadRouterState(bytes, state.config, fingerprint);
      if (!restored.ok()) {
        return restored.status();
      }
      state = std::move(restored).value();
      return dice::Status();
    });
    loaded = generation.ok();
  }
  if (loaded != warm) {
    r.error = warm ? "warm replica found no router-state snapshot" : "cold replica found a snapshot";
    return r;
  }
  if (!warm) {
    dice::StatusOr<trace::Trace> decoded = dice::InvalidArgumentError("not decoded");
    {
      ScopedSpan span(tracer, "trace.decode", group);
      decoded = trace::ParseTraceAuto(corpus);
    }
    if (!decoded.ok()) {
      r.error = "trace: " + decoded.status().ToString();
      return r;
    }
    r.counts["trace.events"] = decoded->events.size();
    bgp::UpdateSink discard = [](bgp::PeerId, const bgp::UpdateMessage&) {};
    const int32_t parent = tracer != nullptr ? tracer->current() : -1;
    for (const trace::TraceEvent& ev : decoded->events) {
      const int64_t s = tracer != nullptr ? NowNs() : 0;
      bgp::ProcessUpdate(state, {table_view}, table_view, table_neighbor, ev.update, discard);
      if (tracer != nullptr) {
        tracer->Add("bgp.process_update", group, parent, s, NowNs());
      }
    }
    const auto parts = dice::Split(in.inject, ':');
    bgp::UpdateMessage u;
    u.attrs.origin = bgp::Origin::kIgp;
    u.attrs.as_path = bgp::AsPath::Sequence(
        {table_neighbor.remote_as, static_cast<bgp::AsNumber>(*dice::ParseUint64(parts[1]))});
    u.attrs.next_hop = table_neighbor.address;
    u.nlri.push_back(*bgp::Prefix::Parse(parts[0]));
    bgp::ProcessUpdate(state, {table_view}, table_view, table_neighbor, u, discard);
    ScopedSpan span(tracer, "persist.save", group);
    const dice::Bytes snapshot = persist::SerializeRouterState(state, fingerprint);
    r.counts["persist.snapshot_bytes"] = snapshot.size();
    if (auto saved = router_store.Save(snapshot); !saved.ok()) {
      r.error = "router-state snapshot: " + saved.status().ToString();
      return r;
    }
  }
  corpus.clear();
  r.counts["bgp.rib_prefixes"] = state.rib.PrefixCount();

  bgp::PeerView explore_view;
  explore_view.id = 200;
  explore_view.remote_as = explore_neighbor.remote_as;
  explore_view.address = explore_neighbor.address;
  explore_view.established = true;
  dice::ExplorerOptions options;
  options.concolic.max_runs = in.runs;
  dice::DistributedExplorer explorer(options);
  uint64_t check_group = group;
  std::unique_ptr<dice::Checker> hijack = std::make_unique<dice::HijackChecker>();
  std::unique_ptr<dice::Checker> leak = std::make_unique<dice::RouteLeakChecker>();
  if (tracer != nullptr) {
    hijack = MakeTimingChecker(std::move(hijack), tracer, &check_group);
    leak = MakeTimingChecker(std::move(leak), tracer, &check_group);
  }
  explorer.AddChecker(std::move(hijack));
  explorer.AddChecker(std::move(leak));
  {
    ScopedSpan span(tracer, "persist.load", group);
    auto generation = cache_store.LoadLatest([&](const dice::Bytes& bytes) {
      return persist::LoadQueryCache(bytes, *explorer.local().query_cache());
    });
    if (generation.ok() != warm) {
      r.error = warm ? "warm replica found no query-cache snapshot" : "cold replica found a cache";
      return r;
    }
  }
  {
    ScopedSpan span(tracer, "checkpoint.take", group);
    explorer.TakeCheckpoint(state, {table_view, explore_view}, 0);
  }
  r.setup_s = static_cast<double>(NowNs() - start) / 1e9;

  bgp::UpdateMessage seed;
  seed.attrs.origin = bgp::Origin::kIgp;
  seed.attrs.as_path = bgp::AsPath::Sequence({explore_neighbor.remote_as, explore_neighbor.remote_as});
  seed.attrs.next_hop = explore_neighbor.address;
  seed.nlri.push_back(*bgp::Prefix::Parse(in.seed_prefix));
  auto save_cache = [&]() -> bool {
    ScopedSpan span(tracer, "persist.save", group);
    return cache_store.Save(persist::SerializeQueryCache(*explorer.local().query_cache())).ok();
  };
  bool saved = true;
  {
    ScopedSpan verdict(tracer, "dice.verdict", group);
    {
      ScopedSpan span(tracer, "dice.start", group);
      explorer.local().StartExploration(seed, explore_view.id);
    }
    // dice_cli's default --snapshot_every.
    constexpr uint64_t kSnapshotEvery = 64;
    uint64_t steps = 0;
    for (bool more = true; more;) {
      {
        ScopedSpan span(tracer, "dice.step", group);
        more = explorer.local().Step();
      }
      if (more && ++steps % kSnapshotEvery == 0) {
        saved = save_cache() && saved;
      }
    }
    saved = save_cache() && saved;
    explorer.ConfirmRemotely();
  }
  const int64_t end = NowNs();
  if (!saved) {
    r.error = "query-cache snapshot failed";
    return r;
  }
  r.wall_s = static_cast<double>(end - start) / 1e9;

  const dice::ExplorationReport& report = explorer.local_report();
  r.digest = DetectionsDigest(report.detections) + StrFormat(" count=%zu", report.detections.size());
  AddExplorationCounts(report, r.counts);
  SetExplorerCounts(explorer.local(), intern_before, r.counts);
  return r;
}

// A cold replica then a warm one from its state directory. Work counts are
// summed over the two; table sizes are the cold run's.
struct ReplicaPair {
  ReplicaRun cold;
  ReplicaRun warm;
  Counts counts;
  std::string error;
};

ReplicaPair RunReplicaPair(const IngestInputs& in, Tracer* tracer, uint64_t pass) {
  ReplicaPair p;
  const std::string state_dir = in.dir + "/replica-state";
  std::filesystem::remove_all(state_dir);
  p.cold = RunReplica(in, state_dir, false, tracer, pass << 1);
  if (p.cold.error.empty()) {
    p.warm = RunReplica(in, state_dir, true, tracer, (pass << 1) | 1);
  }
  p.error = !p.cold.error.empty() ? "cold replica: " + p.cold.error
            : !p.warm.error.empty() ? "warm replica: " + p.warm.error
                                    : "";
  for (const auto* run : {&p.cold, &p.warm}) {
    for (const auto& [name, value] : run->counts) {
      p.counts[name] += value;
    }
  }
  for (const char* name : {"bgp.rib_prefixes", "bgp.attr_sets_live"}) {
    p.counts[name] = p.cold.counts[name];
  }
  return p;
}

}  // namespace

Outcome RunIngest(const RunConfig& config) {
  Outcome out;
  if (config.launcher == nullptr) {
    out.FailGate("ingest needs the child-process launcher");
    return out;
  }
  std::string error;
  const std::optional<IngestInputs> inputs = MakeIngestInputs(config, &error);
  if (!inputs.has_value()) {
    out.FailGate(error);
    return out;
  }
  const IngestInputs& in = *inputs;
  out.Note(StrFormat("sizes: corpus_prefixes=%zu events=%zu routes=%zu bytes=%zu runs_budget=%zu "
                     "seed_prefix=%s inject=%s",
                     in.prefixes, in.events, in.routes, in.bytes, in.runs, in.seed_prefix.c_str(),
                     in.inject.c_str()));
  const std::vector<std::string> cli_args = {
      config.dice_cli, "--config=" + in.config_path, "--trace=" + in.corpus_path,
      "--state_dir=" + in.dir + "/cli-state", "--inject=" + in.inject,
      "--seed-prefix=" + in.seed_prefix, StrFormat("--runs=%zu", in.runs)};

  Samples cold_s, warm_s, cold_rss;
  double rss_floor_mb = 0;
  std::string cli_digest;
  // One cold run, then warm restarts from its state directory; every run that
  // misbehaves is a failed op. Each restart reloads the same router state,
  // so they are repeat measurements of one restart.
  constexpr int kWarmRestarts = 3;
  auto cli_pass = [&](uint64_t pass) {
    std::filesystem::remove_all(in.dir + "/cli-state");
    auto run_checked = [&](const char* which, std::initializer_list<const char*> must_print) {
      const std::string output_path = in.dir + "/" + which + ".out";
      const ChildRun run = config.launcher->Run(cli_args, output_path);
      const std::string output = ReadFile(output_path).value_or("");
      ++out.attempted;
      const std::string digest = CliDigest(output);
      std::string reason;
      if (!run.error.empty()) {
        reason = run.error;
      } else if (run.exit_code != 3) {
        reason = StrFormat("exit code %d, want 3 (findings present)", run.exit_code);
      } else if (digest.empty() || digest.find(" count=0") != std::string::npos) {
        reason = "no detections digest with findings";
      } else if (!cli_digest.empty() && digest != cli_digest) {
        reason = "digest " + digest + " != cold digest " + cli_digest;
        out.FailGate(StrFormat("pass %llu %s dice_cli %s", static_cast<unsigned long long>(pass),
                               which, reason.c_str()));
      }
      for (const char* line : must_print) {
        if (reason.empty() && output.find(line) == std::string::npos) {
          reason = std::string("output lacks '") + line + "'";
        }
      }
      if (!reason.empty()) {
        out.FailOp(StrFormat("pass %llu %s dice_cli: %s", static_cast<unsigned long long>(pass),
                             which, reason.c_str()));
        return std::optional<ChildRun>();
      }
      if (cli_digest.empty()) {
        cli_digest = digest;
      }
      return std::optional<ChildRun>(run);
    };
    if (auto cold = run_checked("cold", {"router state snapshot: generation"})) {
      cold_s.Add(cold->wall_s);
      cold_rss.Add(cold->peak_rss_mb);
      rss_floor_mb = std::max(rss_floor_mb, cold->floor_rss_mb);
      // The child starts with the launcher's resident pages; a peak no
      // higher than those would not be dice_cli's own.
      if (cold->peak_rss_mb <= cold->floor_rss_mb) {
        out.FailGate(StrFormat("pass %llu cold dice_cli peak RSS %.1f MB is not above the "
                               "launcher's %.1f MB",
                               static_cast<unsigned long long>(pass), cold->peak_rss_mb,
                               cold->floor_rss_mb));
      }
    }
    for (int i = 0; i < kWarmRestarts; ++i) {
      if (auto warm = run_checked("warm", {"warm restart: router state generation",
                                           "warm restart: query cache generation"})) {
        warm_s.Add(warm->wall_s);
      }
    }
  };

  Tracer tracer;
  std::vector<ReplicaPair> traced;
  std::vector<ReplicaPair> untraced;
  auto replica_pass = [&](bool trace_it, uint64_t pass) {
    ReplicaPair p = RunReplicaPair(in, trace_it ? &tracer : nullptr, pass);
    out.attempted += 2;
    if (!p.error.empty()) {
      out.FailOp(StrFormat("pass %llu %s", static_cast<unsigned long long>(pass), p.error.c_str()));
      return;
    }
    for (const ReplicaRun* run : {&p.cold, &p.warm}) {
      if (run->digest != cli_digest) {
        out.FailGate(StrFormat("pass %llu replica (%s) digest %s != cold dice_cli digest %s",
                               static_cast<unsigned long long>(pass),
                               trace_it ? "traced" : "untraced", run->digest.c_str(),
                               cli_digest.c_str()));
      }
    }
    (trace_it ? traced : untraced).push_back(std::move(p));
  };

  // Untraced: CLI passes (a cold run and its warm restarts) until the
  // measuring time is spent, then a traced replica pair for the gates.
  // Traced: one CLI pass for the gates, then untraced and traced replica
  // pairs alternately, so the overhead compares equal work, until the
  // measuring time is spent and the p99s have their samples.
  const int64_t measure_start = NowNs();
  auto measuring = [&] { return KeepMeasuring(config, measure_start, tracer.spans()); };
  uint64_t pass = 0;
  if (!config.trace) {
    do {
      cli_pass(pass++);
    } while (measuring());
    replica_pass(true, pass++);
  } else {
    cli_pass(pass++);
    do {
      replica_pass(false, pass++);
      replica_pass(true, pass++);
    } while (measuring());
  }
  std::filesystem::remove_all(in.dir);
  if (cli_digest.empty() || traced.empty()) {
    out.FailGate("no successful dice_cli or replica run to compare");
    return out;
  }
  if (out.gates_ok) {
    out.Note("gate cold dice_cli == warm dice_cli == in-process replica (traced" +
             std::string(config.trace ? " and untraced" : "") +
             "): detections_digest=" + cli_digest);
  }
  for (const auto& [name, value] : traced.front().counts) {
    out.Note(StrFormat("count %s = %llu (replica, cold + warm)", name.c_str(),
                       static_cast<unsigned long long>(value)));
  }

  // --- end-to-end, from the dice_cli runs -------------------------------------
  if (cold_s.n() > 0 && warm_s.n() > 0) {
    out.e2e["setup_s"] = cold_s.P(0.5);
    out.e2e["verdict_p50_ms"] = warm_s.P(0.5) * 1e3;
    out.e2e["peak_rss_mb"] = cold_rss.P(0.5);
    out.NoteTiming("setup_s", cold_s.P(0.5), "s", cold_s.n());
    out.NoteTiming("restart_s", warm_s.P(0.5), "s", warm_s.n());
    out.NoteTiming("ingest_routes_per_s", Ratio(static_cast<double>(in.routes), cold_s.P(0.5)),
                   "1/s", cold_s.n());
    out.NoteTiming("peak_rss_mb", cold_rss.P(0.5), "MB", cold_rss.n());
    out.Note(StrFormat("peak_rss floor: the launcher held at most %.1f MB when it forked a cold "
                       "dice_cli",
                       rss_floor_mb));
  }

  // --- per-layer, from the traced replica --------------------------------------
  const std::vector<Span>& spans = tracer.spans();
  double traced_wall_s = 0;
  for (const ReplicaPair& p : traced) {
    traced_wall_s += p.cold.wall_s + p.warm.wall_s;
  }
  AddLayerMetrics(config, spans, traced.front().counts, traced.size(), traced_wall_s, out);
  const double passes = static_cast<double>(traced.size());
  auto& L = out.layers;
  L["trace.bytes"] = static_cast<double>(in.bytes);
  L["trace.decode_ms"] = DurationsUs(spans, "trace.decode").Sum() / 1e3 / passes;
  L["trace.decode_ns_per_event"] = Ratio(L["trace.decode_ms"] * 1e6, L["trace.events"]);
  L["persist.save_ms"] = DurationsUs(spans, "persist.save").Sum() / 1e3 / passes;
  L["persist.load_ms"] = DurationsUs(spans, "persist.load").Sum() / 1e3 / passes;
  if (!untraced.empty()) {
    Samples traced_setup, untraced_setup, traced_verdict, untraced_verdict;
    for (const ReplicaPair& p : traced) {
      traced_setup.Add(p.cold.setup_s);
      traced_verdict.Add(p.warm.wall_s * 1e3);
    }
    for (const ReplicaPair& p : untraced) {
      untraced_setup.Add(p.cold.setup_s);
      untraced_verdict.Add(p.warm.wall_s * 1e3);
    }
    L["tracing.overhead_setup_s"] = traced_setup.P(0.5) - untraced_setup.P(0.5);
    L["tracing.overhead_verdict_p50_ms"] = traced_verdict.P(0.5) - untraced_verdict.P(0.5);
    out.NoteTiming("replica_setup_s", untraced_setup.P(0.5), "s", untraced_setup.n());
    out.NoteTiming("replica_restart_ms", untraced_verdict.P(0.5), "ms", untraced_verdict.n());
  }
  return out;
}

}  // namespace perfbench
