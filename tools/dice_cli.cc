// dice_cli — run DiCE against a router configuration and a trace, from files.
//
// The downstream-operator entry point: feed it your router's configuration
// (the BIRD-style language of src/bgp/config.h) and a BGP trace (the
// MRT-lite text format of src/trace/trace.h or the binary .dtrc format of
// src/trace/dtrc.h, sniffed by magic; or a synthetic table), and it
// reports which prefix ranges a misconfigured policy would let a peer leak.
//
// Usage:
//   dice_cli --config=router.conf [--trace=updates.trc] [--prefixes=N]
//            [--runs=N] [--seed=N] [--seed-prefix=10.1.7.0/24] [--seed-asn=1]
//            [--anycast=192.175.48.0/24,...] [--peer=<neighbor address>]
//            [--inject=203.0.113.0/24:64500,...]
//            [--remote_config=upstream.conf,...] [--remote_batch_size=N]
//            [--state_dir=DIR] [--snapshot_every=N]
//            [--serve=tcp:HOST:PORT,...] [--serve_peer_as=AS] [--serve_workers=N]
//
// The configuration must contain exactly one router block; the trace (or the
// synthetic table) is loaded as routes from the *first* configured neighbor
// unless --peer selects another; exploration then runs on the *last*
// configured neighbor's session (typically the customer).
//
// Federation: each --remote_config entry is either a neighbor domain's
// router config file (one block; it should configure a neighbor whose AS is
// this router's AS — that session receives the exploratory routes, answered
// in-process over the wire-serialized narrow interface) or the address of a
// remote dice_cli --serve process — `tcp:host:port`, `unix:/path`, or
// `shm:/name` — in which case every domain that server announces joins the
// federation over a real socket or shared-memory transport.
// --remote_batch_size caps exploratory updates per RPC (default 64, min 1).
//
// Serve mode: --serve=ADDR[,ADDR...] turns dice_cli into the other side of
// that federation — it builds one remote domain from --config (same
// construction as an in-process --remote_config entry: synthetic table from
// --seed/--prefixes, exploratory session on the neighbor whose AS is
// --serve_peer_as, defaulting to the first neighbor's AS) and serves it on
// every listed endpoint until killed. --serve_workers=N answers requests on
// an N-thread pool (different domains in parallel); --state_dir warm-restarts
// the domain's table from its snapshot so a SIGKILLed server rejoins the
// federation without rebuilding state. Each resolved endpoint is printed as a
// `serving <domain> on <address>` line (tcp:...:0 shows the kernel-assigned
// port). Incompatible with --remote_config.
//
// Durable state: --state_dir=DIR persists the solver query cache (every
// --snapshot_every exploration runs, default 64) and the loaded router state
// as crash-safe generation files, and reloads them on start — a killed
// process warm-restarts with its learned UNSAT cores. Corrupt or torn
// snapshots are detected, quarantined, and degrade to a cold start; a router
// state taken under other inputs is skipped, and kept.
//
// Exit: once its output is flushed, a run keeps the router state it built or
// loaded until the process exits rather than freeing it.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/bgp/router.h"
#include "src/dice/distributed.h"
#include "src/persist/query_cache_snapshot.h"
#include "src/persist/router_state_snapshot.h"
#include "src/persist/snapshot_store.h"
#include "src/trace/dtrc.h"
#include "src/trace/trace.h"
#include "src/transport/address.h"
#include "src/transport/client.h"
#include "src/transport/server.h"
#include "src/util/frame.h"
#include "src/util/logging.h"

namespace dice {
namespace {

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);  // --trace may be a binary .dtrc
  if (!in) {
    return NotFoundError("cannot open " + path);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: dice_cli --config=router.conf [--trace=updates.trc] [--prefixes=N]\n"
               "                [--runs=N] [--seed=N] [--seed-prefix=P] [--seed-asn=A]\n"
               "                [--anycast=P,...] [--peer=ADDR] [--inject=P:AS,...]\n"
               "                [--remote_config=F,...] [--remote_batch_size=N]\n"
               "                [--state_dir=DIR] [--snapshot_every=N]\n"
               "                [--serve=tcp:HOST:PORT|unix:/path|shm:/name,...]\n"
               "                [--serve_peer_as=AS] [--serve_workers=N]\n"
               "remote_config entries may be config files or server addresses\n"
               "(tcp:host:port, unix:/path, shm:/name).\n");
}

// Rejects anything bench::Flags would silently ignore or misread: unknown
// flags, positional arguments, value flags missing their '=value', and
// numeric flags whose value does not parse. Returns 0 to proceed, nonzero to
// exit with that code (0 is also the exit code for explicit --help,
// signalled via *help_requested).
int ValidateArgs(int argc, char** argv, bool* help_requested) {
  // Every flag takes a value; the numeric ones must parse as unsigned.
  static const std::set<std::string> kKnownFlags = {
      "config",  "trace",       "prefixes", "runs",    "seed",
      "peer",    "seed-prefix", "seed-asn", "anycast", "inject",
      "remote_config", "remote_batch_size", "state_dir", "snapshot_every",
      "serve", "serve_peer_as", "serve_workers",
  };
  static const std::set<std::string> kUintFlags = {
      "prefixes", "runs", "seed", "seed-asn", "remote_batch_size",
      "snapshot_every", "serve_peer_as", "serve_workers"};
  bool has_serve = false;
  bool has_remote_config = false;
  for (int i = 1; i < argc; ++i) {
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
    if (kKnownFlags.count(key) == 0) {
      std::fprintf(stderr, "error: unknown flag '--%s'\n", key.c_str());
      return 2;
    }
    if (arg.find('=') == std::string::npos) {
      std::fprintf(stderr, "error: flag '--%s' requires a value\n", key.c_str());
      return 2;
    }
    if (kUintFlags.count(key) != 0 && !ParseUint64(value).has_value()) {
      std::fprintf(stderr, "error: flag '--%s' expects an unsigned integer (got '%s')\n",
                   key.c_str(), value.c_str());
      return 2;
    }
    if (key == "remote_batch_size" && *ParseUint64(value) == 0) {
      std::fprintf(stderr, "error: flag '--remote_batch_size' must be at least 1\n");
      return 2;
    }
    if (key == "state_dir") {
      if (value.empty()) {
        std::fprintf(stderr, "error: flag '--state_dir' requires a non-empty directory\n");
        return 2;
      }
    }
    if (key == "snapshot_every" && *ParseUint64(value) == 0) {
      std::fprintf(stderr, "error: flag '--snapshot_every' must be at least 1\n");
      return 2;
    }
    if (key == "serve") {
      has_serve = true;
      bool any = false;
      for (const std::string& entry : Split(value, ',')) {
        if (entry.empty()) {
          continue;
        }
        any = true;
        auto address = transport::Address::Parse(entry);
        if (!address.ok()) {
          std::fprintf(stderr, "error: bad --serve endpoint '%s': %s\n", entry.c_str(),
                       address.status().message().c_str());
          return 2;
        }
      }
      if (!any) {
        std::fprintf(stderr, "error: flag '--serve' needs at least one endpoint "
                             "(tcp:HOST:PORT, unix:/path, or shm:/name)\n");
        return 2;
      }
    }
    if (key == "remote_config") {
      has_remote_config = true;
      // Socket entries (tcp:/unix:/shm:) must parse as addresses; anything
      // else is treated as a config file path and validated when opened.
      for (const std::string& entry : Split(value, ',')) {
        if (entry.empty() || !transport::LooksLikeAddress(entry)) {
          continue;
        }
        auto address = transport::Address::Parse(entry);
        if (!address.ok()) {
          std::fprintf(stderr, "error: bad --remote_config address '%s': %s\n",
                       entry.c_str(), address.status().message().c_str());
          return 2;
        }
      }
    }
  }
  if (has_serve && has_remote_config) {
    std::fprintf(stderr, "error: --serve is incompatible with --remote_config "
                         "(a server hosts its own domain; it does not dial others)\n");
    return 2;
  }
  return 0;
}

// One federated remote domain built from a router config file: name, loaded
// state, session views, and the PeerId the exploratory routes arrive on.
struct RemoteDomainParts {
  std::string domain;
  bgp::RouterState state;
  std::vector<bgp::PeerView> views;
  bgp::PeerId from_peer = 0;
  bool warm_loaded = false;  // state came from a snapshot, not a table build
};

// Builds one federated remote domain from a config file: its table is loaded
// synthetically (same generator as the local router), and the session the
// exploratory routes arrive on is the first configured neighbor whose AS
// matches `provider_as` (the exploring router's AS; 0 = the first neighbor)
// — the remote's own import policy for that session decides what it would
// adopt. With `store`, the loaded state round-trips through the snapshot
// store: a warm restart (after a SIGKILL, say) reloads the table instead of
// rebuilding it, fingerprint-checked against the exact config and generator
// inputs that produced it.
StatusOr<RemoteDomainParts> BuildRemoteDomainParts(const std::string& path,
                                                   bgp::AsNumber provider_as, uint64_t seed,
                                                   uint64_t prefixes,
                                                   persist::SnapshotStore* store) {
  DICE_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  DICE_ASSIGN_OR_RETURN(bgp::RouterConfig config, bgp::ParseSingleRouterConfig(text));
  if (config.neighbors.empty()) {
    return InvalidArgumentError(path + ": remote router needs at least one neighbor");
  }
  const bgp::NeighborConfig* provider_neighbor = nullptr;
  if (provider_as == 0) {
    provider_neighbor = &config.neighbors.front();
    provider_as = provider_neighbor->remote_as;
  } else {
    for (const bgp::NeighborConfig& neighbor : config.neighbors) {
      if (neighbor.remote_as == provider_as) {
        provider_neighbor = &neighbor;
        break;
      }
    }
  }
  if (provider_neighbor == nullptr) {
    return InvalidArgumentError(
        StrFormat("%s: no neighbor with AS %u (the exploring router's AS)", path.c_str(),
                  static_cast<unsigned>(provider_as)));
  }

  RemoteDomainParts parts;
  parts.domain = config.name.empty() ? path : config.name;
  bgp::Ipv4Address provider_address = provider_neighbor->address;
  bgp::NeighborConfig table_neighbor = config.neighbors.front();
  parts.state.config = std::make_shared<const bgp::RouterConfig>(std::move(config));

  bgp::PeerView table_view;
  table_view.id = 100;
  table_view.remote_as = table_neighbor.remote_as;
  table_view.address = table_neighbor.address;
  table_view.established = true;

  // Everything the table is derived from, hashed so a snapshot only reloads
  // under the exact inputs that produced it.
  const std::string fp_src =
      text + StrFormat("\nsynthetic:%llu:%llu:%u", static_cast<unsigned long long>(seed),
                       static_cast<unsigned long long>(prefixes),
                       static_cast<unsigned>(provider_as));
  const uint64_t fingerprint =
      BodyChecksum(reinterpret_cast<const uint8_t*>(fp_src.data()), fp_src.size());

  if (store != nullptr) {
    auto generation = store->LoadLatest([&](const Bytes& bytes) -> Status {
      auto restored = persist::LoadRouterState(bytes, parts.state.config, fingerprint);
      if (!restored.ok()) {
        return restored.status();
      }
      parts.state = std::move(restored).value();
      return Status();
    });
    parts.warm_loaded = generation.ok();
  }
  if (!parts.warm_loaded) {
    // The remote's table: the same synthetic full dump the local router
    // loads, learned from its first neighbor.
    bgp::UpdateSink discard = [](bgp::PeerId, const bgp::UpdateMessage&) {};
    trace::TraceGeneratorOptions gen_options;
    gen_options.seed = seed;
    gen_options.prefix_count = prefixes;
    trace::TraceGenerator generator(gen_options);
    generator.StreamFullDump([&](const trace::TraceEvent& ev) {
      bgp::ProcessUpdate(parts.state, {table_view}, table_view, table_neighbor, ev.update,
                         discard);
    });
    if (store != nullptr) {
      auto saved = store->Save([&](persist::WritableFile& file) {
        return persist::SerializeRouterState(parts.state, fingerprint, file);
      });
      if (!saved.ok()) {
        std::fprintf(stderr, "warning: remote state snapshot failed: %s\n",
                     saved.status().ToString().c_str());
      }
    }
  }

  // The session the exploring router's messages arrive on.
  bgp::PeerView provider_view;
  provider_view.id = 200;
  provider_view.remote_as = provider_as;
  provider_view.address = provider_address;
  provider_view.established = true;

  parts.views = {table_view, provider_view};
  parts.from_peer = provider_view.id;
  return parts;
}

// The in-process federation peer: the built domain behind the byte-level
// round-trip decorator (every batch crosses real serialized buffers).
StatusOr<std::unique_ptr<WireExplorationService>> MakeRemoteDomain(
    const std::string& path, bgp::AsNumber provider_as, uint64_t seed, uint64_t prefixes) {
  DICE_ASSIGN_OR_RETURN(RemoteDomainParts parts,
                        BuildRemoteDomainParts(path, provider_as, seed, prefixes, nullptr));
  return std::make_unique<WireExplorationService>(
      std::make_unique<InProcessExplorationService>(parts.domain, std::move(parts.state),
                                                    std::move(parts.views), parts.from_peer));
}

// --serve mode: build the domain from --config and host it on every listed
// endpoint until the process is killed. The real-transport twin of an
// in-process --remote_config entry — same construction, same verdicts.
int RunServe(bench::Flags& flags, const std::string& serve_spec) {
  const std::string config_path = flags.GetString("config", "");
  if (config_path.empty()) {
    PrintUsage(stderr);
    return 2;
  }
  const uint64_t seed = flags.GetUint("seed", 1);
  const uint64_t prefixes = flags.GetUint("prefixes", 10000);
  const uint64_t serve_peer_as = flags.GetUint("serve_peer_as", 0);
  const uint64_t serve_workers = flags.GetUint("serve_workers", 0);
  const std::string state_dir = flags.GetString("state_dir", "");

  persist::PosixEnv persist_env;
  std::optional<persist::SnapshotStore> store;
  if (!state_dir.empty()) {
    store.emplace(persist_env, state_dir, "remote_state");
  }
  auto parts = BuildRemoteDomainParts(config_path, static_cast<bgp::AsNumber>(serve_peer_as),
                                      seed, prefixes, store.has_value() ? &*store : nullptr);
  if (!parts.ok()) {
    std::fprintf(stderr, "serve error: %s\n", parts.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: domain %s, %zu prefixes\n",
              parts->warm_loaded ? "warm restart" : "cold start", parts->domain.c_str(),
              parts->state.rib.PrefixCount());

  transport::ExplorationServer::Options server_options;
  server_options.workers = serve_workers;
  transport::ExplorationServer server(server_options);
  const std::string domain_name = parts->domain;
  server.AddDomain(std::make_unique<InProcessExplorationService>(
      parts->domain, std::move(parts->state), std::move(parts->views), parts->from_peer));

  size_t endpoints = 0;
  for (const std::string& entry : Split(serve_spec, ',')) {
    if (entry.empty()) {
      continue;
    }
    auto address = transport::Address::Parse(entry);  // validated in ValidateArgs
    if (!address.ok()) {
      std::fprintf(stderr, "serve error: %s\n", address.status().ToString().c_str());
      return 2;
    }
    if (Status added = server.AddEndpoint(*address); !added.ok()) {
      std::fprintf(stderr, "serve error: %s: %s\n", entry.c_str(),
                   added.ToString().c_str());
      return 1;
    }
    ++endpoints;
  }
  if (Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "serve error: %s\n", started.ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < endpoints; ++i) {
    auto bound = server.BoundAddress(i);
    if (!bound.ok()) {
      std::fprintf(stderr, "serve error: %s\n", bound.status().ToString().c_str());
      return 1;
    }
    // Scripts scrape this line for the kernel-assigned port of tcp:...:0.
    std::printf("serving %s on %s\n", domain_name.c_str(), bound->ToString().c_str());
  }
  if (serve_workers > 0) {
    std::printf("request workers: %llu\n", static_cast<unsigned long long>(serve_workers));
  }
  std::fflush(stdout);

  // Serve until killed. SIGTERM/SIGKILL is the intended shutdown: the
  // federation e2e harness kills servers mid-run on purpose, and the client
  // side reconnects and re-validates epochs when a replacement comes up.
  while (server.running()) {
    pause();
  }
  return 0;
}

// Holds `state` until the process exits instead of freeing it: a full
// table's trie nodes, route vectors and attribute sets take tens of
// milliseconds to free one by one, and the exit returns all of their memory
// at once. The holder is a global, so LeakSanitizer still sees the state as
// reachable and reports any other leak (LLVM's BuryPointer does the same
// for compiler state).
void KeepUntilExit(bgp::RouterState state) {
  static bgp::RouterState* kept = nullptr;
  DICE_CHECK(kept == nullptr);
  kept = new bgp::RouterState(std::move(state));
}

int Run(int argc, char** argv) {
  bool help_requested = false;
  if (int rc = ValidateArgs(argc, argv, &help_requested); rc != 0) {
    PrintUsage(stderr);
    return rc;
  }
  if (help_requested) {
    PrintUsage(stdout);
    return 0;
  }

  bench::Flags flags(argc, argv);
  const std::string serve_spec = flags.GetString("serve", "");
  if (!serve_spec.empty()) {
    return RunServe(flags, serve_spec);
  }
  const std::string config_path = flags.GetString("config", "");
  const std::string trace_path = flags.GetString("trace", "");
  const uint64_t prefixes = flags.GetUint("prefixes", 10000);
  const uint64_t runs = flags.GetUint("runs", 1000);
  const uint64_t seed = flags.GetUint("seed", 1);
  const uint64_t remote_batch_size = flags.GetUint("remote_batch_size", 64);
  const std::string state_dir = flags.GetString("state_dir", "");
  const uint64_t snapshot_every = flags.GetUint("snapshot_every", 64);

  if (config_path.empty()) {
    PrintUsage(stderr);
    return 2;
  }

  // --- configuration --------------------------------------------------------
  auto config_text = ReadFile(config_path);
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
  std::printf("router %s: AS %u, %zu neighbors, %zu filters\n", config.name.c_str(),
              config.local_as, config.neighbors.size(), config.policies.filters().size());

  // Table source peer (default: first neighbor) and exploration peer
  // (default: last neighbor).
  const bgp::NeighborConfig* table_neighbor = &config.neighbors.front();
  const bgp::NeighborConfig* explore_neighbor = &config.neighbors.back();
  std::string peer_flag = flags.GetString("peer", "");
  if (!peer_flag.empty()) {
    auto addr = bgp::Ipv4Address::Parse(peer_flag);
    if (!addr.has_value() || config.FindNeighbor(*addr) == nullptr) {
      std::fprintf(stderr, "error: --peer=%s is not a configured neighbor\n",
                   peer_flag.c_str());
      return 1;
    }
    explore_neighbor = config.FindNeighbor(*addr);
  }

  // --- state: trace file or synthetic table ---------------------------------
  bgp::RouterState state;
  state.config = std::make_shared<const bgp::RouterConfig>(config);

  bgp::PeerView table_view;
  table_view.id = 100;
  table_view.remote_as = table_neighbor->remote_as;
  table_view.address = table_neighbor->address;
  table_view.established = true;

  // What the table would be built from, hashed into the snapshot fingerprint:
  // a router-state snapshot only loads back under the exact config, table
  // source, and injections that produced it, so a warm restart can never
  // silently explore a different cold-start state. A .dtrc corpus is
  // identified by its frame header, so a warm restart never reads its body.
  persist::PosixEnv persist_env;
  const std::string inject_spec = flags.GetString("inject", "");
  trace::TraceGeneratorOptions gen_options;
  gen_options.seed = seed;
  gen_options.prefix_count = prefixes;
  auto table_identity = trace::TableSourceIdentity(trace_path, gen_options);
  if (!table_identity.ok()) {
    std::fprintf(stderr, "error: %s\n", table_identity.status().ToString().c_str());
    return 1;
  }
  const uint64_t state_fingerprint =
      persist::StateFingerprint(*config_text, *table_identity, inject_spec);

  std::optional<persist::SnapshotStore> router_store;
  std::optional<persist::SnapshotStore> cache_store;
  if (!state_dir.empty()) {
    router_store.emplace(persist_env, state_dir, "router_state");
    cache_store.emplace(persist_env, state_dir, "query_cache");
  }

  bool state_loaded = false;
  if (router_store.has_value()) {
    auto generation = router_store->LoadLatest([&](const Bytes& bytes) -> Status {
      auto restored = persist::LoadRouterState(bytes, state.config, state_fingerprint);
      if (!restored.ok()) {
        return restored.status();
      }
      state = std::move(restored).value();
      return Status();
    });
    if (generation.ok()) {
      state_loaded = true;
      std::printf("warm restart: router state generation %llu loaded from %s\n",
                  static_cast<unsigned long long>(*generation), state_dir.c_str());
    } else {
      std::printf("cold start: %s\n", generation.status().message().c_str());
    }
  }

  bgp::UpdateSink discard = [](bgp::PeerId, const bgp::UpdateMessage&) {};
  if (!state_loaded) {
    size_t loaded = 0;
    if (!trace_path.empty()) {
      // A text trace's identity is all its bytes; a .dtrc corpus is read
      // whole only now, and refused if its header is no longer the one the
      // snapshot below is fingerprinted by.
      Bytes content;
      if (trace::LooksLikeBinaryTrace(*table_identity)) {
        auto read = persist_env.ReadFile(trace_path);
        if (!read.ok()) {
          std::fprintf(stderr, "error: %s\n", read.status().ToString().c_str());
          return 1;
        }
        if (read->size() < table_identity->size() ||
            !std::equal(table_identity->begin(), table_identity->end(), read->begin())) {
          std::fprintf(stderr, "trace error: %s changed while it was read\n",
                       trace_path.c_str());
          return 1;
        }
        content = std::move(*read);
      } else {
        content = std::move(*table_identity);
      }
      // Each decoded event goes straight into the RIB, and the corpus is
      // freed when the stream ends, before the snapshot below is built. A
      // decode error — the body checksum included — exits before anything
      // is saved.
      size_t events = 0;
      Status streamed =
          trace::StreamTrace(std::move(content), [&](const trace::TraceEvent& ev) {
            bgp::ProcessUpdate(state, {table_view}, table_view, *table_neighbor, ev.update,
                               discard);
            loaded += ev.update.nlri.size();
            ++events;
          });
      if (!streamed.ok()) {
        std::fprintf(stderr, "trace error: %s\n", streamed.ToString().c_str());
        return 1;
      }
      std::printf("loaded trace %s: %zu events, %zu announced prefixes\n", trace_path.c_str(),
                  events, loaded);
    } else {
      trace::TraceGenerator generator(gen_options);
      generator.StreamFullDump([&](const trace::TraceEvent& ev) {
        bgp::ProcessUpdate(state, {table_view}, table_view, *table_neighbor, ev.update, discard);
        loaded += ev.update.nlri.size();
      });
      std::printf("loaded synthetic table: %zu prefixes (use --trace= for real data)\n", loaded);
    }
    // Extra routes planted into the table, e.g. --inject=203.0.113.0/24:64500
    // (prefix:origin-AS). Useful to model space the operator knows exists.
    for (const std::string& spec : Split(inject_spec, ',')) {
      if (spec.empty()) {
        continue;
      }
      auto parts = Split(spec, ':');
      auto prefix = bgp::Prefix::Parse(parts[0]);
      auto origin = parts.size() > 1 ? ParseUint64(parts[1]) : std::optional<uint64_t>(64500);
      if (!prefix.has_value() || !origin.has_value()) {
        std::fprintf(stderr, "error: bad --inject entry '%s'\n", spec.c_str());
        return 1;
      }
      bgp::UpdateMessage u;
      u.attrs.origin = bgp::Origin::kIgp;
      u.attrs.as_path =
          bgp::AsPath::Sequence({table_neighbor->remote_as, static_cast<bgp::AsNumber>(*origin)});
      u.attrs.next_hop = table_neighbor->address;
      u.nlri.push_back(*prefix);
      bgp::ProcessUpdate(state, {table_view}, table_view, *table_neighbor, u, discard);
      std::printf("injected %s (origin AS %llu)\n", prefix->ToString().c_str(),
                  static_cast<unsigned long long>(*origin));
    }
    if (router_store.has_value()) {
      // Streamed into the generation file: no snapshot buffer is built.
      auto saved = router_store->Save([&](persist::WritableFile& file) {
        return persist::SerializeRouterState(state, state_fingerprint, file);
      });
      if (saved.ok()) {
        std::printf("router state snapshot: generation %llu written to %s\n",
                    static_cast<unsigned long long>(*saved), state_dir.c_str());
      } else {
        std::fprintf(stderr, "warning: router state snapshot failed: %s\n",
                     saved.status().ToString().c_str());
      }
    }
  }

  std::printf("RIB: %zu prefixes\n", state.rib.PrefixCount());

  // --- explore ---------------------------------------------------------------
  bgp::PeerView explore_view;
  explore_view.id = 200;
  explore_view.remote_as = explore_neighbor->remote_as;
  explore_view.address = explore_neighbor->address;
  explore_view.established = true;

  ExplorerOptions options;
  options.concolic.max_runs = runs;
  DistributedExplorer explorer(options);
  explorer.set_remote_batch_size(remote_batch_size);
  auto checker = std::make_unique<HijackChecker>();
  for (const std::string& p : Split(flags.GetString("anycast", ""), ',')) {
    auto prefix = bgp::Prefix::Parse(p);
    if (prefix.has_value()) {
      checker->AddAnycastPrefix(*prefix);
      std::printf("whitelisted anycast space: %s\n", prefix->ToString().c_str());
    }
  }
  explorer.AddChecker(std::move(checker));
  // Valley-free route-leak checking, armed by `relationship` annotations in
  // the config; inert (and free) on unannotated configurations.
  auto leak_checker = std::make_unique<RouteLeakChecker>();
  const RouteLeakChecker* leak_view = leak_checker.get();
  explorer.AddChecker(std::move(leak_checker));

  // Federated remote domains. A config-file entry builds the domain in
  // process behind the wire-serialized narrow interface; a socket entry
  // (tcp:/unix:/shm:) dials a dice_cli --serve process and adds a stub for
  // every domain it announces — same interface, real process boundary.
  std::vector<const WireExplorationService*> wires;
  std::vector<const transport::SocketExplorationService*> sockets;
  for (const std::string& remote_entry : Split(flags.GetString("remote_config", ""), ',')) {
    if (remote_entry.empty()) {
      continue;
    }
    if (transport::LooksLikeAddress(remote_entry)) {
      auto address = transport::Address::Parse(remote_entry);  // validated already
      if (!address.ok()) {
        std::fprintf(stderr, "remote error: %s\n", address.status().ToString().c_str());
        return 2;
      }
      auto stubs = transport::ConnectRemoteDomains(*address);
      if (!stubs.ok()) {
        std::fprintf(stderr, "remote error: %s: %s\n", remote_entry.c_str(),
                     stubs.status().ToString().c_str());
        return 1;
      }
      for (std::unique_ptr<ExplorationService>& stub : *stubs) {
        std::printf("federated remote domain: %s via %s (batch size %llu)\n",
                    stub->domain_name().c_str(), address->ToString().c_str(),
                    static_cast<unsigned long long>(remote_batch_size));
        // ConnectRemoteDomains builds only socket stubs.
        sockets.push_back(static_cast<const transport::SocketExplorationService*>(stub.get()));
        explorer.AddRemoteService(std::move(stub));
      }
      continue;
    }
    auto service = MakeRemoteDomain(remote_entry, config.local_as, seed, prefixes);
    if (!service.ok()) {
      std::fprintf(stderr, "remote error: %s\n", service.status().ToString().c_str());
      return 1;
    }
    std::printf("federated remote domain: %s (batch size %llu)\n",
                (*service)->domain_name().c_str(),
                static_cast<unsigned long long>(remote_batch_size));
    wires.push_back(service->get());
    explorer.AddRemoteService(std::move(*service));
  }

  // Warm the long-lived solver cache from the latest loadable snapshot;
  // corrupt generations quarantine and the previous one is tried.
  if (cache_store.has_value()) {
    auto generation = cache_store->LoadLatest([&](const Bytes& bytes) -> Status {
      return persist::LoadQueryCache(bytes, *explorer.local().query_cache());
    });
    if (generation.ok()) {
      std::printf("warm restart: query cache generation %llu loaded from %s\n",
                  static_cast<unsigned long long>(*generation), state_dir.c_str());
    } else {
      std::printf("cold solver cache: %s\n", generation.status().message().c_str());
    }
  }

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

  std::printf("\nexploring session with %s (AS %u), seed %s, budget %llu runs...\n",
              explore_neighbor->address.ToString().c_str(), explore_neighbor->remote_as,
              seed_update.nlri[0].ToString().c_str(), static_cast<unsigned long long>(runs));
  bench::Stopwatch timer;
  if (state_dir.empty()) {
    explorer.ExploreSeed(seed_update, explore_view.id);
  } else {
    // Same exploration as ExploreSeed (StartExploration + Step to exhaustion +
    // ConfirmRemotely), with a crash-safe query-cache snapshot every
    // --snapshot_every runs so a killed process warm-restarts.
    auto save_cache = [&]() {
      auto saved = cache_store->Save(persist::SerializeQueryCache(*explorer.local().query_cache()));
      if (!saved.ok()) {
        std::fprintf(stderr, "warning: query cache snapshot failed: %s\n",
                     saved.status().ToString().c_str());
      }
    };
    explorer.local().StartExploration(seed_update, explore_view.id);
    uint64_t steps = 0;
    while (explorer.local().Step()) {
      if (++steps % snapshot_every == 0) {
        save_cache();
      }
    }
    save_cache();
    explorer.ConfirmRemotely();
  }
  std::printf("done in %.2fs: %s\n", timer.Seconds(), explorer.local_report().Summary().c_str());

  // A stable digest over the detection list, for crash-recovery gates that
  // diff an interrupted-then-warm-restarted run against an uninterrupted one.
  {
    std::string digest_src;
    for (const Detection& d : explorer.local_report().detections) {
      digest_src += d.ToString();
      digest_src += '\n';
    }
    std::printf("detections_digest=%08x count=%zu\n",
                BodyChecksum(reinterpret_cast<const uint8_t*>(digest_src.data()),
                             digest_src.size()),
                explorer.local_report().detections.size());
  }

  // What crossing the federation boundary cost, when remote domains are
  // registered: RPC counts and the wire bytes that actually moved.
  if (explorer.remote_count() > 0) {
    const RemoteBatchStats& rpc = explorer.remote_stats();
    uint64_t request_bytes = 0;
    uint64_t reply_bytes = 0;
    for (const WireExplorationService* wire : wires) {
      request_bytes += wire->request_bytes();
      reply_bytes += wire->reply_bytes();
    }
    for (const transport::SocketExplorationService* socket : sockets) {
      request_bytes += socket->request_bytes();
      reply_bytes += socket->reply_bytes();
    }
    std::printf("federation: %zu domain(s), %llu batch(es) of <=%llu updates, "
                "%llu updates sent, %llu replies, %llu errors; wire bytes %llu out / %llu in; "
                "remote clones avoided %llu, materialized %llu, screen cache hits %llu\n",
                explorer.remote_count(), static_cast<unsigned long long>(rpc.batches_sent),
                static_cast<unsigned long long>(remote_batch_size),
                static_cast<unsigned long long>(rpc.updates_sent),
                static_cast<unsigned long long>(rpc.replies_received),
                static_cast<unsigned long long>(rpc.batch_errors),
                static_cast<unsigned long long>(request_bytes),
                static_cast<unsigned long long>(reply_bytes),
                static_cast<unsigned long long>(rpc.counters.clones_avoided),
                static_cast<unsigned long long>(rpc.counters.clones_materialized),
                static_cast<unsigned long long>(rpc.counters.screen_cache_hits));
    std::string sw_digest_src;
    for (const SystemWideDetection& sw : explorer.system_wide()) {
      std::string domains;
      for (const std::string& d : sw.adopting_domains) {
        domains += " " + d;
      }
      std::printf("SYSTEM-WIDE %s — adopted by:%s (spread %llu)\n",
                  sw.local.ToString().c_str(), domains.c_str(),
                  static_cast<unsigned long long>(sw.total_spread));
      sw_digest_src += sw.local.ToString() + domains +
                       StrFormat(" spread=%llu\n",
                                 static_cast<unsigned long long>(sw.total_spread));
    }
    // The federation-level twin of detections_digest: covers which remote
    // domains adopted what. The e2e gates diff this across transports
    // (in-process vs tcp vs unix vs shm) and across a server SIGKILL +
    // warm restart — any divergence means a transport changed a verdict.
    std::printf("system_wide_digest=%08x count=%zu\n",
                BodyChecksum(reinterpret_cast<const uint8_t*>(sw_digest_src.data()),
                             sw_digest_src.size()),
                explorer.system_wide().size());
  }
  std::printf("\n");

  int exit_code = 0;
  if (explorer.local_report().detections.empty()) {
    std::printf("no potential route leaks found within budget.\n");
  } else {
    std::set<std::string> ranges;
    for (const Detection& d : explorer.local_report().detections) {
      ranges.insert(d.victim.has_value() ? d.victim->ToString() : d.prefix.ToString());
    }
    std::printf("POTENTIAL ROUTE LEAKS — this session can override %zu prefix range(s):\n",
                ranges.size());
    for (const std::string& r : ranges) {
      std::printf("  %s\n", r.c_str());
    }
    std::printf("\nfirst triggering input: %s\n",
                explorer.local_report().detections[0].input.ToString().c_str());
    std::printf("fix the import policy for %s before a live announcement does this.\n",
                explore_neighbor->address.ToString().c_str());
    exit_code = 3;  // findings present
  }
  std::fflush(stdout);
  KeepUntilExit(std::move(state));
  return exit_code;
}

}  // namespace
}  // namespace dice

int main(int argc, char** argv) { return dice::Run(argc, argv); }
