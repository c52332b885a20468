// The online and federated workloads: the §2.3 loop on a live Fig. 2
// provider. Each verdict runs a slice of live table updates through the
// simulated session, then checkpoints the provider, explores one seed UPDATE
// to exhaustion or budget with one long-lived explorer, runs the checkers
// and, on federated, confirms every detection with the remote domains.

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <utility>

#include "perfbench/fixtures.h"
#include "perfbench/workloads.h"
#include "src/bgp/attr_intern.h"
#include "src/bgp/config.h"
#include "src/bgp/router.h"
#include "src/bgp/update_processing.h"
#include "src/dice/distributed.h"
#include "src/net/network.h"
#include "src/trace/feed.h"
#include "src/trace/trace.h"
#include "src/transport/client.h"
#include "src/transport/server.h"
#include "src/util/strings.h"

namespace perfbench {

namespace bgp = dice::bgp;
namespace net = dice::net;
namespace trace = dice::trace;
namespace transport = dice::transport;
using dice::StrFormat;

namespace {

constexpr net::NodeId kCustomerNode = 1;
constexpr net::NodeId kProviderNode = 2;
constexpr net::NodeId kFeedNode = 3;
constexpr uint64_t kSetupGroup = 0xfffff;

constexpr size_t kMaxRuns = 16;  // exploration budget per verdict
constexpr size_t kCustomerBlocks = 8;
constexpr double kLiveUpdatesPerSimS = 150;
constexpr uint64_t kTableSeed = 1;
constexpr net::SimTime kSlice = net::kSecond;  // simulated time between checkpoints

struct LiveSizes {
  size_t table_prefixes = 0;
  size_t verdicts = 0;  // per pass; a run pools the verdicts of its passes
  size_t remotes = 0;
  size_t remote_prefixes = 0;
};

LiveSizes SizesFor(bool federated, bool smoke) {
  LiveSizes s;
  if (smoke) {
    s.table_prefixes = 2000;
    s.verdicts = 8;
    s.remotes = federated ? 2 : 0;
    s.remote_prefixes = 1000;
  } else if (federated) {
    // Confirmation re-sends every earlier detection, so its cost grows with
    // the square of the verdicts a pass runs (see ConfirmRemotely).
    s.table_prefixes = 10000;
    s.verdicts = 120;
    s.remotes = 3;
    s.remote_prefixes = 10000;
  } else {
    // Verdicts are dominated by the solver's long-tail queries; 40 per pass
    // keeps several set-ups per run.
    s.table_prefixes = 20000;
    s.verdicts = 40;
  }
  return s;
}

// Everything a pass needs, generated once per run from the seed.
struct LiveInputs {
  LiveSizes sizes;
  bool federated = false;
  std::string topology_config;  // provider and customer router blocks
  std::vector<std::string> remote_configs;
  trace::Trace table;    // the feed's full-table transfer
  trace::Trace updates;  // live updates, one slice per verdict
  std::vector<trace::Trace> remote_tables;
  std::vector<bgp::Prefix> table_prefixes;  // what foreign seed UPDATEs draw from
  uint64_t seed = 0;

  // The seed UPDATEs of pass `pass`. Every pass explores fresh ones, so a run
  // samples many inputs; a pass and its traced replay share them.
  std::vector<bgp::UpdateMessage> PassSeeds(uint64_t pass) const {
    return MakeSeedUpdates(sizes.verdicts, seed * 1000003 + pass, table_prefixes,
                           kCustomerBlocks);
  }
};

LiveInputs MakeLiveInputs(uint64_t seed, bool federated, bool smoke) {
  LiveInputs in;
  in.sizes = SizesFor(federated, smoke);
  in.federated = federated;
  ProviderShape shape;
  shape.customer_blocks = kCustomerBlocks;
  shape.customer_filter = !federated;
  in.topology_config = ProviderConfigText(shape) + CustomerConfigText();

  // The provider's table, and the live updates drawn from it, are one fixture
  // for every seed (the generator's default seed). Drawn per seed, the table
  // alone decided how many explored routes land under a covering route of
  // another origin, and so how many detections every later verdict
  // re-confirms: 794 to 1289 per pass over four seeds, against 695 to 729
  // over six seeds with this table. The seed still picks every pass's seed
  // UPDATEs and the remote domains.
  trace::TraceGeneratorOptions gen;
  gen.seed = kTableSeed;
  gen.prefix_count = in.sizes.table_prefixes;
  gen.updates_per_second = kLiveUpdatesPerSimS;
  gen.update_duration = kSlice * in.sizes.verdicts;
  trace::TraceGenerator generator(gen);
  in.table = generator.FullDump();
  in.updates = generator.UpdateTrace();

  in.seed = seed;
  in.table_prefixes.reserve(generator.table().size());
  for (const auto& route : generator.table()) {
    in.table_prefixes.push_back(route.prefix);
  }

  for (size_t i = 0; i < in.sizes.remotes; ++i) {
    in.remote_configs.push_back(RemoteConfigText(i, seed));
    trace::TraceGeneratorOptions remote_gen;
    remote_gen.seed = seed * 31 + i + 1;
    remote_gen.prefix_count = in.sizes.remote_prefixes;
    remote_gen.feed_as = static_cast<bgp::AsNumber>(65001 + i);
    in.remote_tables.push_back(trace::TraceGenerator(remote_gen).FullDump());
  }
  return in;
}

// Server-side ExecuteBatch intervals, written on the server's reactor thread
// and drained by the client wrapper after each round trip.
struct ServerClock {
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> intervals;
};

class ServerTimingService : public dice::ExplorationService {
 public:
  ServerTimingService(std::unique_ptr<dice::ExplorationService> inner, ServerClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}
  const std::string& domain_name() const override { return inner_->domain_name(); }
  uint64_t TakeCheckpoint(net::SimTime now) override { return inner_->TakeCheckpoint(now); }
  dice::StatusOr<dice::ExploratoryBatchReply> ExecuteBatch(
      const dice::ExploratoryBatchRequest& request) override {
    const int64_t start = NowNs();
    auto reply = inner_->ExecuteBatch(request);
    const int64_t end = NowNs();
    std::lock_guard<std::mutex> lock(clock_->mu);
    clock_->intervals.emplace_back(start, end);
    return reply;
  }

 private:
  std::unique_ptr<dice::ExplorationService> inner_;
  ServerClock* clock_;
};

// Times the client stub: each round trip is a transport.rpc span whose child
// is the server's dice.remote_execute interval.
class ClientTimingService : public dice::ExplorationService {
 public:
  ClientTimingService(std::unique_ptr<dice::ExplorationService> inner, Tracer* tracer,
                      ServerClock* clock, const uint64_t* group)
      : inner_(std::move(inner)), tracer_(tracer), clock_(clock), group_(group) {}
  const std::string& domain_name() const override { return inner_->domain_name(); }
  uint64_t TakeCheckpoint(net::SimTime now) override {
    ScopedSpan span(tracer_, "transport.checkpoint", *group_);
    return inner_->TakeCheckpoint(now);
  }
  dice::StatusOr<dice::ExploratoryBatchReply> ExecuteBatch(
      const dice::ExploratoryBatchRequest& request) override {
    const int32_t id = tracer_->Begin("transport.rpc", *group_);
    auto reply = inner_->ExecuteBatch(request);
    tracer_->End(id);
    std::vector<std::pair<int64_t, int64_t>> intervals;
    {
      std::lock_guard<std::mutex> lock(clock_->mu);
      intervals.swap(clock_->intervals);
    }
    for (const auto& [start, end] : intervals) {
      tracer_->Add("dice.remote_execute", *group_, id, start, end);
    }
    return reply;
  }

 private:
  std::unique_ptr<dice::ExplorationService> inner_;
  Tracer* tracer_;
  ServerClock* clock_;
  const uint64_t* group_;
};

// Advances the simulation by `duration`. Untraced, one RunFor call. Traced,
// event by event under a `span_name` span, recording each event in which the
// provider (or the customer) received an UPDATE as a bgp child span.
size_t RunSession(net::EventLoop& loop, net::SimTime duration, const bgp::Router& provider,
                  const bgp::Router& customer, Tracer* tracer, const char* span_name,
                  const char* provider_update_span, uint64_t group) {
  if (tracer == nullptr) {
    return loop.RunFor(duration);
  }
  ScopedSpan span(tracer, span_name, group);
  const int32_t parent = tracer->current();
  const net::SimTime deadline = loop.now() + duration;
  size_t events = 0;
  for (auto next = loop.NextEventTime(); next.has_value() && *next <= deadline;
       next = loop.NextEventTime()) {
    const uint64_t provider_before = provider.updates_received();
    const uint64_t customer_before = customer.updates_received();
    const int64_t start = NowNs();
    loop.Step();
    const int64_t end = NowNs();
    ++events;
    if (provider.updates_received() != provider_before) {
      tracer->Add(provider_update_span, group, parent, start, end);
    } else if (customer.updates_received() != customer_before) {
      tracer->Add("bgp.customer_update", group, parent, start, end);
    }
  }
  loop.RunUntil(deadline);  // nothing left due; advances the clock
  return events;
}

// What one pass measured. Counts are deterministic for the seed and the pass
// index; timings are pooled over the run.
struct PassResult {
  bool ok = true;            // set-up succeeded; false aborts the run
  std::string error;
  double setup_s = 0;
  double wall_s = 0;
  Samples verdict_ms;
  Samples confirm_ms;
  double explore_s = 0;      // wall time inside StartExploration/Step
  Samples live_rate;         // UPDATEs per second of wall time, one per live slice
  Counts counts;
  std::string digest;        // per-verdict outcomes, the gate material
  std::string system_wide;   // last verdict's system-wide findings (federated)
  std::vector<std::string> failures;  // failed ops, with reasons
  // Server-side counters (socket hosting).
  transport::ExplorationServer::DomainStats server;
};

enum class RemoteHosting { kSocket, kInProcessWire };

bgp::UpdateMessage VictimRoute() {
  bgp::UpdateMessage victim;
  victim.attrs.origin = bgp::Origin::kIgp;
  victim.attrs.as_path = bgp::AsPath::Sequence({kFeedAs, 3549, kVictimOrigin});
  victim.attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.9");
  victim.nlri.push_back(*bgp::Prefix::Parse(kVictimSpace));
  return victim;
}

// Builds one remote domain's state from its config text and table, as a
// config-file federation entry of dice_cli does.
std::unique_ptr<dice::InProcessExplorationService> BuildRemote(const bgp::RouterConfig& config,
                                                               const trace::Trace& table) {
  const bgp::NeighborConfig table_neighbor = config.neighbors.front();
  const bgp::NeighborConfig* provider_neighbor = nullptr;
  for (const bgp::NeighborConfig& n : config.neighbors) {
    if (n.remote_as == kProviderAs) {
      provider_neighbor = &n;
    }
  }
  bgp::RouterState state;
  state.config = std::make_shared<const bgp::RouterConfig>(config);
  bgp::PeerView table_view;
  table_view.id = 100;
  table_view.remote_as = table_neighbor.remote_as;
  table_view.address = table_neighbor.address;
  table_view.established = true;
  bgp::UpdateSink discard = [](bgp::PeerId, const bgp::UpdateMessage&) {};
  for (const trace::TraceEvent& ev : table.events) {
    bgp::ProcessUpdate(state, {table_view}, table_view, table_neighbor, ev.update, discard);
  }
  bgp::PeerView provider_view;
  provider_view.id = 200;
  provider_view.remote_as = kProviderAs;
  provider_view.address = provider_neighbor->address;
  provider_view.established = true;
  return std::make_unique<dice::InProcessExplorationService>(
      config.name, std::move(state), std::vector<bgp::PeerView>{table_view, provider_view},
      provider_view.id);
}

PassResult RunLivePass(const LiveInputs& in, RemoteHosting hosting, Tracer* tracer,
                       const std::string& socket_path, uint64_t pass) {
  PassResult r;
  const std::vector<bgp::UpdateMessage> seeds = in.PassSeeds(pass);
  const LiveSizes& sz = in.sizes;
  const int64_t pass_start = NowNs();
  const bgp::AttrInternStats intern_before = bgp::AttrInternTableStats();
  uint64_t group = (pass << 20) | kSetupGroup;

  // --- set-up: config parse, table load, remote domains, first checkpoint ---
  const int64_t setup_start = NowNs();
  std::vector<bgp::RouterConfig> configs;
  std::vector<bgp::RouterConfig> remote_configs;
  {
    ScopedSpan span(tracer, "bgp.config_parse", group);
    auto parsed = bgp::ParseConfig(in.topology_config);
    if (!parsed.ok() || parsed->size() != 2) {
      r.ok = false;
      r.error = "topology config: " + parsed.status().ToString();
      return r;
    }
    configs = std::move(parsed).value();
    for (const std::string& text : in.remote_configs) {
      auto remote = bgp::ParseSingleRouterConfig(text);
      if (!remote.ok()) {
        r.ok = false;
        r.error = "remote config: " + remote.status().ToString();
        return r;
      }
      remote_configs.push_back(std::move(remote).value());
    }
  }

  net::EventLoop loop;
  net::Network network(&loop);
  bgp::Router provider(kProviderNode, configs[0], &network);
  bgp::Router customer(kCustomerNode, configs[1], &network);
  trace::BgpFeedNode feed(kFeedNode, "internet", kFeedAs, *bgp::Ipv4Address::Parse("10.0.0.9"),
                          &network);
  network.AddNode(&customer);
  network.AddNode(&provider);
  network.AddNode(&feed);
  customer.RegisterPeerNode(*bgp::Ipv4Address::Parse("10.0.0.3"), kProviderNode);
  provider.RegisterPeerNode(*bgp::Ipv4Address::Parse("10.0.0.1"), kCustomerNode);
  provider.RegisterPeerNode(*bgp::Ipv4Address::Parse("10.0.0.9"), kFeedNode);
  feed.SetPeer(kProviderNode);
  customer.Start();
  provider.Start();
  network.Connect(kCustomerNode, kProviderNode, net::kMillisecond);
  network.Connect(kProviderNode, kFeedNode, net::kMillisecond);
  RunSession(loop, 5 * net::kSecond, provider, customer, tracer, "net.establish",
             "bgp.table_update", group);
  if (!provider.Established(kCustomerNode) || !provider.Established(kFeedNode)) {
    r.ok = false;
    r.error = "simulated sessions did not establish";
    return r;
  }
  trace::ScheduleTrace(&network, &feed, in.table, loop.now());
  feed.SendUpdate(VictimRoute());
  RunSession(loop, in.table.Duration() + 20 * net::kSecond, provider, customer, tracer,
             "net.table_load", "bgp.table_update", group);

  dice::ExplorerOptions options;
  options.concolic.max_runs = kMaxRuns;
  // The default remote batch size: every detection bound for a domain rides
  // in one batch, so a verdict makes one round trip per domain and the
  // batch's size, not the number of thread wake-ups, sets its cost.
  dice::DistributedExplorer explorer(options);
  std::unique_ptr<dice::Checker> hijack = std::make_unique<dice::HijackChecker>();
  std::unique_ptr<dice::Checker> leak = std::make_unique<dice::RouteLeakChecker>();
  if (tracer != nullptr) {
    hijack = MakeTimingChecker(std::move(hijack), tracer, &group);
    leak = MakeTimingChecker(std::move(leak), tracer, &group);
  }
  explorer.AddChecker(std::move(hijack));
  explorer.AddChecker(std::move(leak));

  // Remote domains: one in-process server (no workers) behind a Unix socket,
  // or the in-process wire round trip the smoke gate compares it against.
  ServerClock server_clock;
  std::unique_ptr<transport::ExplorationServer> server;
  std::vector<uint32_t> domain_ids;
  if (in.federated) {
    std::vector<std::unique_ptr<dice::ExplorationService>> domains;
    for (size_t i = 0; i < remote_configs.size(); ++i) {
      ScopedSpan span(tracer, "bgp.remote_table_load", group);
      domains.push_back(BuildRemote(remote_configs[i], in.remote_tables[i]));
    }
    if (hosting == RemoteHosting::kInProcessWire) {
      for (auto& domain : domains) {
        explorer.AddRemoteService(std::make_unique<dice::WireExplorationService>(std::move(domain)));
      }
    } else {
      ScopedSpan span(tracer, "transport.connect", group);
      transport::ExplorationServer::Options server_options;
      server_options.workers = 0;
      server = std::make_unique<transport::ExplorationServer>(server_options);
      for (auto& domain : domains) {
        if (tracer != nullptr) {
          domain = std::make_unique<ServerTimingService>(std::move(domain), &server_clock);
        }
        domain_ids.push_back(server->AddDomain(std::move(domain)));
      }
      auto address = transport::Address::Parse("unix:" + socket_path);
      dice::Status status = address.ok() ? server->AddEndpoint(*address) : address.status();
      if (status.ok()) {
        status = server->Start();
      }
      if (!status.ok()) {
        r.ok = false;
        r.error = "server: " + status.ToString();
        return r;
      }
      auto bound = server->BoundAddress(0);
      if (!bound.ok()) {
        r.ok = false;
        r.error = "server address: " + bound.status().ToString();
        return r;
      }
      auto stubs = transport::ConnectRemoteDomains(*bound);
      if (!stubs.ok() || stubs->size() != domain_ids.size()) {
        r.ok = false;
        r.error = "connect: " + (stubs.ok() ? std::string("domain count") : stubs.status().ToString());
        return r;
      }
      for (auto& stub : *stubs) {
        if (tracer != nullptr) {
          stub = std::make_unique<ClientTimingService>(std::move(stub), tracer, &server_clock,
                                                       &group);
        }
        explorer.AddRemoteService(std::move(stub));
      }
    }
  }
  {
    ScopedSpan span(tracer, "checkpoint.take", group);
    explorer.TakeCheckpoint(provider, loop.now());
  }
  r.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;

  // --- verdicts --------------------------------------------------------------
  trace::ScheduleTrace(&network, &feed, in.updates, loop.now());
  dice::Explorer& local = explorer.local();
  auto& counts = r.counts;
  size_t detections_seen = 0;
  for (size_t v = 0; v < sz.verdicts; ++v) {
    group = (pass << 20) | v;
    const uint64_t updates_before = provider.updates_received();
    const int64_t live_start = NowNs();
    counts["net.events"] += RunSession(loop, kSlice, provider, customer, tracer, "net.run",
                                       "bgp.process_update", group);
    const uint64_t live_updates = provider.updates_received() - updates_before;
    r.live_rate.Add(static_cast<double>(live_updates) * 1e9 /
                    static_cast<double>(std::max<int64_t>(NowNs() - live_start, 1)));
    counts["bgp.live_updates"] += live_updates;

    int64_t t_checkpoint = 0;
    int64_t t_explore = 0;
    int64_t t_confirm = 0;
    int64_t t_done = 0;
    {
      ScopedSpan verdict(tracer, "dice.verdict", group);
      t_checkpoint = NowNs();
      {
        ScopedSpan span(tracer, "checkpoint.take", group);
        explorer.TakeCheckpoint(provider, loop.now());
      }
      t_explore = NowNs();
      {
        ScopedSpan span(tracer, "dice.start", group);
        local.StartExploration(seeds[v], kCustomerNode);
      }
      for (bool more = true; more;) {
        ScopedSpan span(tracer, "dice.step", group);
        more = local.Step();
      }
      t_confirm = NowNs();
      if (in.federated) {
        ScopedSpan span(tracer, "dice.confirm", group);
        explorer.ConfirmRemotely();
      }
      t_done = NowNs();
    }
    r.verdict_ms.Add(static_cast<double>(t_done - t_checkpoint) / 1e6);
    r.explore_s += static_cast<double>(t_confirm - t_explore) / 1e9;

    const dice::ExplorationReport& report = local.report();
    AddExplorationCounts(report, counts);
    std::string line = StrFormat("v%zu runs=%llu paths=%llu branches=%llu det=%zu", v,
                                 static_cast<unsigned long long>(report.concolic.runs),
                                 static_cast<unsigned long long>(report.concolic.unique_paths),
                                 static_cast<unsigned long long>(report.concolic.branches_covered),
                                 report.detections.size());
    for (; detections_seen < report.detections.size(); ++detections_seen) {
      line += "\n  " + report.detections[detections_seen].ToString();
    }
    if (in.federated) {
      const dice::RemoteBatchStats& rpc = explorer.remote_stats();
      r.confirm_ms.Add(static_cast<double>(t_done - t_confirm) / 1e6);
      counts["dice.confirm_updates"] += rpc.updates_sent;
      counts["dice.confirm_updates_last"] = rpc.updates_sent;
      counts["dice.confirm_replies"] += rpc.replies_received;
      counts["transport.batches"] += rpc.batches_sent;
      counts["transport.batch_errors"] += rpc.batch_errors;
      counts["dice.remote_clones_materialized"] += rpc.counters.clones_materialized;
      counts["dice.remote_clones_avoided"] += rpc.counters.clones_avoided;
      counts["dice.screen_cache_hits"] += rpc.counters.screen_cache_hits;
      uint64_t spread = 0;
      for (const dice::SystemWideDetection& sw : explorer.system_wide()) {
        spread += sw.total_spread;
      }
      line += StrFormat("\n  system-wide=%zu spread=%llu replies=%llu", explorer.system_wide().size(),
                        static_cast<unsigned long long>(spread),
                        static_cast<unsigned long long>(rpc.replies_received));
      // ConfirmRemotely counts a failed batch and one with the wrong number
      // of replies alike as a batch error.
      if (rpc.batch_errors > 0) {
        r.failures.push_back(StrFormat("verdict %zu: %llu remote batch error(s)", v,
                                       static_cast<unsigned long long>(rpc.batch_errors)));
      }
    }
    r.digest += line + "\n";
  }
  if (in.federated) {
    r.system_wide = SystemWideText(explorer.system_wide());
  }

  // Lifetime counters of the pass's explorer grow with every verdict.
  SetExplorerCounts(local, intern_before, counts);
  counts["bgp.rib_prefixes"] = provider.rib().PrefixCount();
  for (uint32_t id : domain_ids) {
    const auto stats = server->domain_stats(id);
    r.server.requests += stats.requests;
    r.server.batches += stats.batches;
    r.server.errors += stats.errors;
    r.server.request_bytes += stats.request_bytes;
    r.server.reply_bytes += stats.reply_bytes;
    r.server.busy_us += stats.busy_us;
  }
  r.wall_s = static_cast<double>(NowNs() - pass_start) / 1e9;
  return r;
}

}  // namespace

Outcome RunLive(const RunConfig& config, bool federated) {
  Outcome out;
  const LiveInputs in = MakeLiveInputs(config.seed, federated, config.smoke);
  const LiveSizes& sz = in.sizes;
  const std::string socket_path =
      config.run_dir + StrFormat("/fed-%d.sock", static_cast<int>(getpid()));
  out.Note(StrFormat("sizes: table_prefixes=%zu table_seed=%llu verdicts_per_pass=%zu "
                     "max_runs=%zu customer_blocks=%zu remotes=%zu remote_prefixes=%zu "
                     "live_updates=%zu slice_sim_ms=%llu",
                     sz.table_prefixes, static_cast<unsigned long long>(kTableSeed), sz.verdicts,
                     kMaxRuns, kCustomerBlocks, sz.remotes, sz.remote_prefixes,
                     in.updates.events.size(),
                     static_cast<unsigned long long>(kSlice / net::kMillisecond)));

  Tracer tracer;
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  bool aborted = false;
  double peak_rss_mb = 0;  // after the untraced passes, before any traced one

  auto run = [&](uint64_t pass, bool trace_it) {
    PassResult r = RunLivePass(in, RemoteHosting::kSocket, trace_it ? &tracer : nullptr,
                               socket_path, pass);
    out.attempted += sz.verdicts;
    if (!r.ok) {
      out.FailGate(StrFormat("pass %llu set-up failed: %s", static_cast<unsigned long long>(pass),
                             r.error.c_str()));
      out.failed += sz.verdicts;
      aborted = true;
    }
    for (const std::string& failure : r.failures) {
      out.FailOp(StrFormat("pass %llu %s", static_cast<unsigned long long>(pass), failure.c_str()));
    }
    return r;
  };
  // Tracing must not change a verdict: the same inputs give the same digest
  // and the same counts with spans on and off.
  auto gate = [&](const PassResult& plain, const PassResult& with_spans, uint64_t pass) {
    if (plain.digest != with_spans.digest || plain.system_wide != with_spans.system_wide) {
      out.FailGate(StrFormat("pass %llu traced verdict digest %s != untraced %s",
                             static_cast<unsigned long long>(pass),
                             TextDigest(with_spans.digest + with_spans.system_wide).c_str(),
                             TextDigest(plain.digest + plain.system_wide).c_str()));
    }
    for (const auto& [name, value] : plain.counts) {
      // The attribute intern table is process-wide; its counters depend on
      // what earlier passes left alive.
      auto it = with_spans.counts.find(name);
      if (name.rfind("bgp.attr_", 0) != 0 && (it == with_spans.counts.end() || it->second != value)) {
        out.FailGate(StrFormat("pass %llu count %s differs traced vs untraced",
                               static_cast<unsigned long long>(pass), name.c_str()));
      }
    }
  };

  // Untraced: passes 0, 1, ... until the measuring time is spent, then pass 0
  // again with spans for the gate. Traced: every pass runs untraced and then
  // traced on the same inputs, so the gate and the tracing overhead compare
  // equal work under the same conditions, until the measuring time is spent
  // and the p99s have their samples.
  const int64_t measure_start = NowNs();
  for (uint64_t pass = 0; pass == 0 || KeepMeasuring(config, measure_start, tracer.spans());
       ++pass) {
    PassResult plain = run(pass, false);
    if (aborted) {
      break;
    }
    peak_rss_mb = SelfPeakRssMb();
    if (config.trace) {
      PassResult with_spans = run(pass, true);
      if (aborted) {
        break;
      }
      gate(plain, with_spans, pass);
      traced.push_back(std::move(with_spans));
    }
    untraced.push_back(std::move(plain));
  }
  if (!config.trace && !aborted) {
    PassResult with_spans = run(0, true);
    if (!aborted) {
      gate(untraced.front(), with_spans, 0);
      traced.push_back(std::move(with_spans));
    }
  }

  // Smoke-size federation gate: the system-wide verdicts over the socket
  // must equal the same verdicts confirmed through in-process
  // WireExplorationService domains.
  if (federated && !aborted) {
    const LiveInputs smoke = MakeLiveInputs(config.seed, true, true);
    PassResult over_socket = RunLivePass(smoke, RemoteHosting::kSocket, nullptr, socket_path, 0);
    PassResult in_process = RunLivePass(smoke, RemoteHosting::kInProcessWire, nullptr, "", 0);
    out.attempted += 2 * smoke.sizes.verdicts;
    if (!over_socket.ok || !in_process.ok) {
      out.FailGate("smoke federation set-up failed: " + over_socket.error + in_process.error);
    } else if (over_socket.digest != in_process.digest ||
               over_socket.system_wide != in_process.system_wide) {
      out.FailGate("smoke federation: socket digest " + TextDigest(over_socket.digest) + "/" +
                   TextDigest(over_socket.system_wide) + " != in-process wire digest " +
                   TextDigest(in_process.digest) + "/" + TextDigest(in_process.system_wide));
    } else {
      out.Note("gate smoke federation socket == in-process wire: digest " +
               TextDigest(over_socket.digest) + " system-wide " +
               TextDigest(over_socket.system_wide));
    }
    for (const std::string& failure : over_socket.failures) {
      out.FailOp("smoke socket " + failure);
    }
    for (const std::string& failure : in_process.failures) {
      out.FailOp("smoke wire " + failure);
    }
  }
  if (aborted || untraced.empty() || traced.empty()) {
    return out;
  }
  const PassResult& first = untraced.front();
  if (out.gates_ok) {
    out.Note(StrFormat("gate traced == untraced: %zu untraced and %zu traced pass(es), pass 0 "
                       "digest %s",
                       untraced.size(), traced.size(),
                       TextDigest(first.digest + first.system_wide).c_str()));
  }
  for (const auto& [name, value] : first.counts) {
    out.Note(StrFormat("count %s = %llu (pass 0)", name.c_str(),
                       static_cast<unsigned long long>(value)));
  }

  // --- end-to-end, from the untraced passes -----------------------------------
  // Medians over many short samples (set-ups, verdicts, live slices) rather
  // than sums: host interference comes in bursts of a few seconds.
  auto pool = [](const std::vector<PassResult>& passes) {
    struct Pooled {
      Samples setup, verdict, confirm, live_rate;
      double explore_runs_per_s = 0;
    } pooled;
    double explore_s = 0;
    uint64_t runs = 0;
    for (const PassResult& p : passes) {
      pooled.setup.Add(p.setup_s);
      pooled.verdict.Append(p.verdict_ms);
      pooled.confirm.Append(p.confirm_ms);
      pooled.live_rate.Append(p.live_rate);
      explore_s += p.explore_s;
      runs += p.counts.at("dice.runs");
    }
    pooled.explore_runs_per_s = Ratio(static_cast<double>(runs), explore_s);
    return pooled;
  };
  const auto e2e = pool(untraced);
  out.e2e["setup_s"] = e2e.setup.P(0.5);
  out.e2e["verdict_p50_ms"] = e2e.verdict.P(0.5);
  out.e2e["peak_rss_mb"] = peak_rss_mb;
  out.NoteTiming("setup_s", e2e.setup.P(0.5), "s", e2e.setup.n());
  out.NoteTiming("verdict_p50_ms", e2e.verdict.P(0.5), "ms", e2e.verdict.n());
  out.NoteTiming("verdict_p90_ms", e2e.verdict.Tail(0.9), "ms", e2e.verdict.n());
  out.NoteTiming("explore_runs_per_s", e2e.explore_runs_per_s, "1/s", e2e.verdict.n());
  out.NoteTiming("live_updates_per_s", e2e.live_rate.P(0.5), "1/s", e2e.live_rate.n());
  if (federated) {
    out.NoteTiming("confirm_p50_ms", e2e.confirm.P(0.5), "ms", e2e.confirm.n());
    out.NoteTiming("confirm_p90_ms", e2e.confirm.Tail(0.9), "ms", e2e.confirm.n());
  }

  // --- per-layer, from the traced passes -------------------------------------
  // Counts are pass 0's: deterministic for the seed.
  const std::vector<Span>& spans = tracer.spans();
  double traced_wall_s = 0;
  for (const PassResult& p : traced) {
    traced_wall_s += p.wall_s;
  }
  AddLayerMetrics(config, spans, traced.front().counts, traced.size(), traced_wall_s, out);
  const double passes = static_cast<double>(traced.size());
  auto& L = out.layers;
  const Samples slices = DurationsUs(spans, "net.run");
  L["net.run_busy_ms"] = slices.Sum() / 1e3 / passes;
  L["net.us_per_event"] = Ratio(slices.Sum() / passes, L["net.events"]);
  if (federated) {
    const transport::ExplorationServer::DomainStats& server = traced.front().server;
    const Samples rtt = DurationsUs(spans, "transport.rpc");
    L["dice.confirm_busy_ms"] = DurationsUs(spans, "dice.confirm").Sum() / 1e3 / passes;
    L["dice.remote_execute_p50_us"] = DurationsUs(spans, "dice.remote_execute").P(0.5);
    L["transport.rtt_p50_us"] = rtt.P(0.5);
    L["transport.self_p50_us"] = SelfUs(spans, SelfTimes(spans), "transport.rpc").P(0.5);
    L["transport.server_busy_us"] = static_cast<double>(server.busy_us);
    // Bytes of every request and reply frame body (batches and checkpoints)
    // per batch.
    L["transport.request_bytes_per_batch"] =
        Ratio(static_cast<double>(server.request_bytes), static_cast<double>(server.batches));
    L["transport.reply_bytes_per_batch"] =
        Ratio(static_cast<double>(server.reply_bytes), static_cast<double>(server.batches));
  }
  const auto traced_e2e = pool(traced);
  L["tracing.overhead_setup_s"] = traced_e2e.setup.P(0.5) - e2e.setup.P(0.5);
  L["tracing.overhead_verdict_p50_ms"] = traced_e2e.verdict.P(0.5) - e2e.verdict.P(0.5);
  return out;
}

}  // namespace perfbench
