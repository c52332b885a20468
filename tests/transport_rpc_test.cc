// The RPC layer end to end: envelope codec robustness, server/client round
// trips over TCP and Unix-domain sockets, multi-domain multiplexing with
// pipelined out-of-order replies, reconnect-with-epoch-revalidation after a
// server restart, bit-identity against the in-process service path, and a
// whole federation — explorer plus served domains — in one process.

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/dice/distributed.h"
#include "src/transport/client.h"
#include "src/transport/server.h"
#include "src/transport/stream.h"
#include "src/transport/wire.h"
#include "tests/transport_test_util.h"

namespace dice::transport {
namespace {

// --- Envelope codec ----------------------------------------------------------

RpcRequest MakeRequest() {
  RpcRequest request;
  request.correlation_id = 0x1122334455667788ull;
  request.domain_id = 7;
  request.op = RpcOp::kExecuteBatch;
  request.payload = {1, 2, 3, 4, 5};
  return request;
}

RpcReply MakeReply() {
  RpcReply reply;
  reply.correlation_id = 99;
  reply.domain_id = 7;
  reply.op = RpcOp::kTakeCheckpoint;
  reply.status_code = StatusCode::kFailedPrecondition;
  reply.error = "stale epoch";
  reply.payload = {9, 8};
  return reply;
}

TEST(RpcWireTest, RequestRoundTrips) {
  RpcRequest request = MakeRequest();
  StatusOr<RpcRequest> parsed = RpcRequest::Parse(request.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, request);
}

TEST(RpcWireTest, ReplyRoundTripsAndRematerializesStatus) {
  RpcReply reply = MakeReply();
  StatusOr<RpcReply> parsed = RpcReply::Parse(reply.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, reply);
  Status status = parsed->ToStatus();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.message(), "stale epoch");
}

TEST(RpcWireTest, HelloRoundTrips) {
  HelloReply hello;
  hello.domains.push_back(HelloDomain{1, "upstream", 42});
  hello.domains.push_back(HelloDomain{2, "peerlat", 0});
  StatusOr<HelloReply> parsed = HelloReply::Parse(hello.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, hello);
}

TEST(RpcWireTest, EveryTruncationIsAnError) {
  Bytes request_wire = MakeRequest().Serialize();
  for (size_t len = 0; len < request_wire.size(); ++len) {
    Bytes truncated(request_wire.begin(),
                    request_wire.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(RpcRequest::Parse(truncated).ok()) << "len " << len;
  }
  Bytes reply_wire = MakeReply().Serialize();
  for (size_t len = 0; len < reply_wire.size(); ++len) {
    Bytes truncated(reply_wire.begin(), reply_wire.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(RpcReply::Parse(truncated).ok()) << "len " << len;
  }
}

TEST(RpcWireTest, EveryBitFlipIsAnError) {
  Bytes wire = MakeRequest().Serialize();
  for (size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = wire;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_FALSE(RpcRequest::Parse(flipped).ok())
          << "bit " << bit << " of byte " << byte << " parsed";
    }
  }
}

TEST(RpcWireTest, RequestNeverParsesAsReply) {
  EXPECT_FALSE(RpcReply::Parse(MakeRequest().Serialize()).ok());
  EXPECT_FALSE(RpcRequest::Parse(MakeReply().Serialize()).ok());
}

TEST(RpcWireTest, UnknownOpIsRejected) {
  EXPECT_FALSE(ParseRpcOp(0).ok());
  EXPECT_FALSE(ParseRpcOp(4).ok());
  EXPECT_FALSE(ParseRpcOp(255).ok());
}

// --- Server + client over sockets --------------------------------------------

struct ServerHarness {
  explicit ServerHarness(const Address& endpoint, size_t workers = 0,
                         uint64_t initial_epoch = 0, uint64_t start_epoch = 0) {
    ExplorationServer::Options options;
    options.workers = workers;
    server = std::make_unique<ExplorationServer>(options);
    auto owned_a = std::make_unique<FakeService>("upstream", start_epoch);
    auto owned_b = std::make_unique<FakeService>("peerlat", start_epoch);
    domain_a = owned_a.get();
    domain_b = owned_b.get();
    EXPECT_EQ(server->AddDomain(std::move(owned_a), initial_epoch), 1u);
    EXPECT_EQ(server->AddDomain(std::move(owned_b), initial_epoch), 2u);
    Status added = server->AddEndpoint(endpoint);
    EXPECT_TRUE(added.ok()) << added;
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started;
    bound = *server->BoundAddress(0);
  }

  std::unique_ptr<ExplorationServer> server;
  FakeService* domain_a = nullptr;
  FakeService* domain_b = nullptr;
  Address bound;
};

RpcChannel::Options FastOptions() {
  RpcChannel::Options options;
  options.connect_timeout_ms = 2000;
  options.call_timeout_ms = 10000;
  options.reconnect_attempts = 4;
  options.reconnect_backoff_ms = 5;
  return options;
}

TEST(RpcTransportTest, HelloAnnouncesEveryDomainWithEpochs) {
  ServerHarness harness(LoopbackAddress());
  RpcChannel channel(harness.bound, FastOptions());
  ASSERT_TRUE(channel.Connect().ok());
  ASSERT_EQ(channel.hello().domains.size(), 2u);
  EXPECT_EQ(channel.hello().domains[0].id, 1u);
  EXPECT_EQ(channel.hello().domains[0].name, "upstream");
  EXPECT_EQ(channel.hello().domains[0].epoch, 0u);
  EXPECT_EQ(channel.hello().domains[1].id, 2u);
  EXPECT_EQ(channel.hello().domains[1].name, "peerlat");
}

void RoundTripOver(const Address& endpoint) {
  ServerHarness harness(endpoint);
  StatusOr<std::vector<std::unique_ptr<ExplorationService>>> stubs =
      ConnectRemoteDomains(harness.bound, FastOptions());
  ASSERT_TRUE(stubs.ok()) << stubs.status();
  ASSERT_EQ(stubs->size(), 2u);
  ExplorationService& upstream = *(*stubs)[0];
  EXPECT_EQ(upstream.domain_name(), "upstream");

  const uint64_t epoch = upstream.TakeCheckpoint(1234);
  ASSERT_EQ(epoch, 1u);
  EXPECT_EQ(harness.domain_a->last_checkpoint_now(), 1234u);

  StatusOr<ExploratoryBatchReply> reply =
      upstream.ExecuteBatch(TestBatch(epoch, {"203.0.113.0/24", "192.0.2.0/24"}));
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->replies.size(), 2u);
  EXPECT_EQ(reply->checkpoint_epoch, epoch);
  EXPECT_TRUE(reply->replies[0].accepted);
  EXPECT_EQ(reply->replies[0].prefix, *bgp::Prefix::Parse("203.0.113.0/24"));

  // A second domain on the same connection answers independently.
  ExplorationService& peerlat = *(*stubs)[1];
  const uint64_t other_epoch = peerlat.TakeCheckpoint(1234);
  ASSERT_EQ(other_epoch, 1u);
  StatusOr<ExploratoryBatchReply> other =
      peerlat.ExecuteBatch(TestBatch(other_epoch, {"198.51.100.0/24"}));
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_EQ(harness.domain_b->batches(), 1u);
}

TEST(RpcTransportTest, RoundTripOverTcp) { RoundTripOver(LoopbackAddress()); }

TEST(RpcTransportTest, RoundTripOverUnixSocket) {
  RoundTripOver(UniqueUnixAddress("rpc"));
}

TEST(RpcTransportTest, ServerSideErrorsTravelAsStatus) {
  ServerHarness harness(LoopbackAddress());
  auto channel = std::make_shared<RpcChannel>(harness.bound, FastOptions());
  ASSERT_TRUE(channel->Connect().ok());
  SocketExplorationService stub(channel, 1, "upstream");

  // Batch before checkpoint: rejected locally, no wire round trip.
  StatusOr<ExploratoryBatchReply> early = stub.ExecuteBatch(TestBatch(1, {"10.0.0.0/24"}));
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.status().code(), StatusCode::kFailedPrecondition);

  ASSERT_EQ(stub.TakeCheckpoint(10), 1u);
  // Stale epoch: also rejected locally against the public epoch space.
  StatusOr<ExploratoryBatchReply> stale = stub.ExecuteBatch(TestBatch(7, {"10.0.0.0/24"}));
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);

  // Unknown domain id: NotFound produced by the server, carried as data.
  SocketExplorationService ghost(channel, 42, "ghost");
  EXPECT_EQ(ghost.TakeCheckpoint(10), 0u) << "remote NotFound must map to epoch 0";
}

TEST(RpcTransportTest, CorruptEnvelopeKillsConnectionButNotServer) {
  ServerHarness harness(LoopbackAddress());
  {
    StatusOr<FrameStream> raw = FrameStream::Dial(harness.bound, 2000);
    ASSERT_TRUE(raw.ok()) << raw.status();
    // A well-framed stream frame whose body is garbage: the envelope parse
    // fails and the server drops the connection.
    ASSERT_TRUE(raw->SendFrame({0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3}).ok());
    StatusOr<Bytes> answer = raw->RecvFrame(2000);
    EXPECT_FALSE(answer.ok()) << "server answered a corrupt envelope";
  }
  // The server keeps serving fresh connections.
  StatusOr<std::vector<std::unique_ptr<ExplorationService>>> stubs =
      ConnectRemoteDomains(harness.bound, FastOptions());
  ASSERT_TRUE(stubs.ok()) << stubs.status();
  EXPECT_EQ((*stubs)[0]->TakeCheckpoint(5), 1u);
}

TEST(RpcTransportTest, StalledDomainDoesNotBlockOthers) {
  // workers=2 so the blocked domain occupies one worker while the other
  // domain's request flows through the second.
  ServerHarness harness(LoopbackAddress(), /*workers=*/2);
  auto channel = std::make_shared<RpcChannel>(harness.bound, FastOptions());
  ASSERT_TRUE(channel->Connect().ok());
  SocketExplorationService slow(channel, 1, "upstream");
  SocketExplorationService fast(channel, 2, "peerlat");
  ASSERT_EQ(slow.TakeCheckpoint(1), 1u);
  ASSERT_EQ(fast.TakeCheckpoint(1), 1u);

  // Park the next batch on domain A inside the server — its worker blocks on
  // the fake's gate, holding the per-domain mutex.
  harness.domain_a->ArmBlock();
  ExploratoryBatchRequest slow_batch = TestBatch(1, {"203.0.113.0/24"});
  StatusOr<uint64_t> slow_call =
      channel->StartCall(1, RpcOp::kExecuteBatch, slow_batch.Serialize());
  ASSERT_TRUE(slow_call.ok()) << slow_call.status();
  harness.domain_a->WaitUntilBlocked();

  // With domain A wedged, a full round trip to domain B still completes —
  // this is the "one slow domain never stalls the connection" property.
  StatusOr<ExploratoryBatchReply> fast_reply =
      fast.ExecuteBatch(TestBatch(1, {"198.51.100.0/24"}));
  ASSERT_TRUE(fast_reply.ok()) << fast_reply.status();

  // Now release A and collect its (later) reply by correlation id.
  harness.domain_a->Release();
  StatusOr<RpcReply> slow_reply = channel->Await(*slow_call);
  ASSERT_TRUE(slow_reply.ok()) << slow_reply.status();
  EXPECT_EQ(slow_reply->status_code, StatusCode::kOk);
  StatusOr<ExploratoryBatchReply> parsed =
      ExploratoryBatchReply::Parse(slow_reply->payload);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->replies.size(), 1u);
  // 2 checkpoints + the fast batch + the awaited slow batch; the Hello
  // exchange is not a "call" reply.
  EXPECT_EQ(channel->replies_received(), 4u);
}

// A scripted ClientTransport that answers Hello/TakeCheckpoint inline but
// holds ExecuteBatch replies until `hold` of them have accumulated, then
// releases them in REVERSE send order — a deterministic out-of-order server.
// Each batch reply tags would_propagate with its correlation id so the test
// can prove every Await got its own answer.
class ReorderingTransport : public ClientTransport {
 public:
  explicit ReorderingTransport(size_t hold) : hold_(hold) {}

  Status SendFrame(const Bytes& frame) override {
    StatusOr<RpcRequest> request = RpcRequest::Parse(frame);
    if (!request.ok()) {
      return request.status();
    }
    RpcReply reply;
    reply.correlation_id = request->correlation_id;
    reply.domain_id = request->domain_id;
    reply.op = request->op;
    switch (request->op) {
      case RpcOp::kHello: {
        HelloReply hello;
        hello.domains.push_back(HelloDomain{1, "upstream", 0});
        reply.payload = hello.Serialize();
        inbox_.push_back(std::move(reply));
        break;
      }
      case RpcOp::kTakeCheckpoint: {
        ByteWriter writer;
        writer.PutU64(++epoch_);
        reply.payload = writer.Take();
        inbox_.push_back(std::move(reply));
        break;
      }
      case RpcOp::kExecuteBatch: {
        StatusOr<ExploratoryBatchRequest> batch =
            ExploratoryBatchRequest::Parse(request->payload);
        if (!batch.ok()) {
          return batch.status();
        }
        ExploratoryBatchReply out;
        out.checkpoint_epoch = batch->checkpoint_epoch;
        NarrowReply narrow;
        narrow.prefix = batch->updates.front().nlri.front();
        narrow.accepted = true;
        narrow.would_propagate = request->correlation_id;
        out.replies.push_back(narrow);
        reply.payload = out.Serialize();
        held_.push_back(std::move(reply));
        if (held_.size() >= hold_) {
          while (!held_.empty()) {
            inbox_.push_back(std::move(held_.back()));
            held_.pop_back();
          }
        }
        break;
      }
    }
    return Status::Ok();
  }

  StatusOr<Bytes> RecvFrame(int) override {
    if (inbox_.empty()) {
      return DeadlineExceededError("scripted transport has nothing to say");
    }
    Bytes frame = inbox_.front().Serialize();
    inbox_.pop_front();
    return frame;
  }

  void Close() override {}

 private:
  size_t hold_;
  uint64_t epoch_ = 0;
  std::deque<RpcReply> inbox_;
  std::deque<RpcReply> held_;
};

TEST(RpcTransportTest, OutOfOrderRepliesCorrelateThroughParking) {
  RpcChannel::Options options = FastOptions();
  options.dialer = [](const Address&, int) {
    return StatusOr<std::unique_ptr<ClientTransport>>(
        std::make_unique<ReorderingTransport>(/*hold=*/3));
  };
  RpcChannel channel(LoopbackAddress(), options);
  ASSERT_TRUE(channel.Connect().ok());

  // Three pipelined batch calls; the scripted server answers them 3, 2, 1.
  std::vector<uint64_t> ids;
  for (const char* prefix : {"10.1.0.0/24", "10.2.0.0/24", "10.3.0.0/24"}) {
    StatusOr<uint64_t> id =
        channel.StartCall(1, RpcOp::kExecuteBatch, TestBatch(1, {prefix}).Serialize());
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
  }
  // Await in send order: the first Await must park two foreign replies
  // before its own arrives; the later Awaits are served from the park.
  for (uint64_t id : ids) {
    StatusOr<RpcReply> reply = channel.Await(id);
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->correlation_id, id);
    StatusOr<ExploratoryBatchReply> parsed =
        ExploratoryBatchReply::Parse(reply->payload);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    ASSERT_EQ(parsed->replies.size(), 1u);
    EXPECT_EQ(parsed->replies[0].would_propagate, id)
        << "a parked reply was correlated to the wrong call";
  }
  EXPECT_EQ(channel.out_of_order_replies(), 2u);
}

TEST(RpcTransportTest, ReconnectAfterRestartRevalidatesEpochs) {
  Address endpoint = UniqueUnixAddress("rpc_restart");
  auto harness = std::make_unique<ServerHarness>(endpoint);
  StatusOr<std::vector<std::unique_ptr<ExplorationService>>> stubs =
      ConnectRemoteDomains(endpoint, FastOptions());
  ASSERT_TRUE(stubs.ok()) << stubs.status();
  auto* stub = static_cast<SocketExplorationService*>((*stubs)[0].get());

  ASSERT_EQ(stub->TakeCheckpoint(777), 1u);
  ASSERT_TRUE(stub->ExecuteBatch(TestBatch(1, {"203.0.113.0/24"})).ok());

  // "SIGKILL": the server dies taking every connection with it; a cold
  // replacement (epoch 0 — it lost the checkpoint) binds the same path.
  harness.reset();
  ServerHarness replacement(endpoint);

  // The very next batch reconnects, notices the advertised epoch no longer
  // matches, replays TakeCheckpoint at the *remembered* sim-time, and then
  // executes — invisible to the caller except for the counters.
  StatusOr<ExploratoryBatchReply> reply =
      stub->ExecuteBatch(TestBatch(1, {"192.0.2.0/24"}));
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->checkpoint_epoch, 1u) << "public epoch must be preserved";
  EXPECT_EQ(stub->revalidations(), 1u);
  EXPECT_EQ(replacement.domain_a->last_checkpoint_now(), 777u)
      << "checkpoint must be replayed at the remembered sim-time";
  EXPECT_EQ(replacement.domain_a->batches(), 1u);
}

TEST(RpcTransportTest, WarmRestartWithMatchingEpochSkipsReplay) {
  Address endpoint = UniqueUnixAddress("rpc_warm");
  auto harness = std::make_unique<ServerHarness>(endpoint);
  StatusOr<std::vector<std::unique_ptr<ExplorationService>>> stubs =
      ConnectRemoteDomains(endpoint, FastOptions());
  ASSERT_TRUE(stubs.ok()) << stubs.status();
  auto* stub = static_cast<SocketExplorationService*>((*stubs)[0].get());
  ASSERT_EQ(stub->TakeCheckpoint(5), 1u);

  harness.reset();
  // Warm restart: the replacement restored its snapshot — services already
  // at epoch 1, Hello advertises initial_epoch 1.
  ServerHarness replacement(endpoint, /*workers=*/0, /*initial_epoch=*/1,
                            /*start_epoch=*/1);

  StatusOr<ExploratoryBatchReply> reply =
      stub->ExecuteBatch(TestBatch(1, {"192.0.2.0/24"}));
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(stub->revalidations(), 0u)
      << "matching advertised epoch must not replay the checkpoint";
  EXPECT_EQ(replacement.domain_a->last_checkpoint_now(), 0u);
}

// --- Bit-identity with the in-process path -----------------------------------

std::unique_ptr<InProcessExplorationService> MakeRealService(
    const std::string& name = "upstream") {
  auto config = std::make_shared<bgp::RouterConfig>();
  config->name = name;
  config->local_as = 7;
  config->router_id = *bgp::Ipv4Address::Parse("10.0.0.7");
  bgp::NeighborConfig from_provider;
  from_provider.address = *bgp::Ipv4Address::Parse("10.0.0.3");
  from_provider.remote_as = 3;
  config->neighbors.push_back(from_provider);

  bgp::RouterState state;
  state.config = config;
  bgp::Route victim;
  victim.peer = 9;
  victim.peer_as = 9;
  bgp::PathAttributes victim_attrs;
  victim_attrs.origin = bgp::Origin::kIgp;
  victim_attrs.as_path = bgp::AsPath::Sequence({9, 64500});
  victim.attrs = std::move(victim_attrs);
  state.rib.AddRoute(*bgp::Prefix::Parse("192.0.2.0/24"), victim);

  bgp::PeerView provider_view;
  provider_view.id = 2;
  provider_view.remote_as = 3;
  provider_view.address = *bgp::Ipv4Address::Parse("10.0.0.3");
  provider_view.established = true;
  return std::make_unique<InProcessExplorationService>(name, std::move(state),
                                                       std::vector<bgp::PeerView>{provider_view},
                                                       2);
}

TEST(RpcTransportTest, SocketPathIsBitIdenticalToInProcessPath) {
  // Same state, same batch: once through a local InProcessExplorationService,
  // once across a real socket to an identical service. The replies must be
  // equal field for field.
  auto local = MakeRealService();

  ExplorationServer server;
  server.AddDomain(MakeRealService());
  ASSERT_TRUE(server.AddEndpoint(LoopbackAddress()).ok());
  ASSERT_TRUE(server.Start().ok());
  StatusOr<std::vector<std::unique_ptr<ExplorationService>>> stubs =
      ConnectRemoteDomains(*server.BoundAddress(0), FastOptions());
  ASSERT_TRUE(stubs.ok()) << stubs.status();
  ExplorationService& remote = *(*stubs)[0];

  const uint64_t local_epoch = local->TakeCheckpoint(50);
  const uint64_t remote_epoch = remote.TakeCheckpoint(50);
  ASSERT_EQ(local_epoch, remote_epoch);

  ExploratoryBatchRequest batch =
      TestBatch(local_epoch, {"192.0.2.0/24", "203.0.113.0/24", "10.7.0.0/16"});
  StatusOr<ExploratoryBatchReply> local_reply = local->ExecuteBatch(batch);
  StatusOr<ExploratoryBatchReply> remote_reply = remote.ExecuteBatch(batch);
  ASSERT_TRUE(local_reply.ok()) << local_reply.status();
  ASSERT_TRUE(remote_reply.ok()) << remote_reply.status();
  EXPECT_EQ(*local_reply, *remote_reply)
      << "the socket transport changed a verdict";
}

// --- A whole federation in one process --------------------------------------

// What one federated exploration concluded, plus the batch bytes it moved.
struct FederationOutcome {
  std::vector<std::string> detections;
  std::vector<std::string> system_wide;
  RemoteBatchStats stats;
  uint64_t request_bytes = 0;
  uint64_t reply_bytes = 0;
};

// Explores an unfiltered provider (AS 3) holding the victim 192.0.2.0/24 that
// both remote domains also hold, so local hijacks of it are confirmed
// system-wide, and batches of 4 updates give each domain several RPCs.
// `count_bytes` adds the remotes' byte counters to the outcome; it runs
// while the explorer that owns the remotes is still alive.
FederationOutcome Federate(std::vector<std::unique_ptr<ExplorationService>> remotes,
                           const std::function<void(FederationOutcome&)>& count_bytes) {
  auto config = std::make_shared<bgp::RouterConfig>();
  config->name = "provider";
  config->local_as = 3;
  config->router_id = *bgp::Ipv4Address::Parse("10.0.0.3");
  bgp::NeighborConfig customer;
  customer.address = *bgp::Ipv4Address::Parse("10.0.0.1");
  customer.remote_as = 1;
  config->neighbors.push_back(customer);
  bgp::RouterState state;
  state.config = config;
  bgp::Route victim;
  victim.peer = 9;
  victim.peer_as = 9;
  bgp::PathAttributes victim_attrs;
  victim_attrs.origin = bgp::Origin::kIgp;
  victim_attrs.as_path = bgp::AsPath::Sequence({9, 64500});
  victim.attrs = std::move(victim_attrs);
  state.rib.AddRoute(*bgp::Prefix::Parse("192.0.2.0/24"), victim);
  bgp::PeerView customer_view;
  customer_view.id = 1;
  customer_view.remote_as = 1;
  customer_view.address = customer.address;
  customer_view.established = true;

  ExplorerOptions options;
  options.concolic.max_runs = 200;
  DistributedExplorer dice(options);
  dice.AddChecker(std::make_unique<HijackChecker>());
  for (std::unique_ptr<ExplorationService>& remote : remotes) {
    dice.AddRemoteService(std::move(remote));
  }
  dice.set_remote_batch_size(4);
  dice.TakeCheckpoint(state, {customer_view}, 0);
  bgp::UpdateMessage seed;
  seed.attrs.origin = bgp::Origin::kIgp;
  seed.attrs.as_path = bgp::AsPath::Sequence({1, 100});
  seed.attrs.next_hop = customer.address;
  seed.nlri.push_back(*bgp::Prefix::Parse("10.1.7.0/24"));
  dice.ExploreSeed(seed, 1);

  FederationOutcome out;
  for (const Detection& d : dice.local_report().detections) {
    out.detections.push_back(d.ToString());
  }
  for (const SystemWideDetection& sw : dice.system_wide()) {
    std::string line = sw.local.ToString();
    for (const std::string& domain : sw.adopting_domains) {
      line += " " + domain;
    }
    out.system_wide.push_back(line + StrFormat(" spread=%llu",
                                               static_cast<unsigned long long>(sw.total_spread)));
  }
  out.stats = dice.remote_stats();
  count_bytes(out);
  return out;
}

TEST(FederationInOneProcessTest, ServedDomainsMatchWireDomains) {
  // Reference: both domains behind the byte-level in-process decorator.
  std::vector<std::unique_ptr<ExplorationService>> wired;
  std::vector<const WireExplorationService*> wires;
  for (const char* name : {"upstream", "peerlat"}) {
    auto wire = std::make_unique<WireExplorationService>(MakeRealService(name));
    wires.push_back(wire.get());
    wired.push_back(std::move(wire));
  }
  FederationOutcome reference = Federate(std::move(wired), [&](FederationOutcome& out) {
    for (const WireExplorationService* wire : wires) {
      out.request_bytes += wire->request_bytes();
      out.reply_bytes += wire->reply_bytes();
    }
  });
  ASSERT_FALSE(reference.detections.empty());
  ASSERT_FALSE(reference.system_wide.empty());

  // The same domains served from this process: the explorer runs sym on this
  // thread while the server's reactor and two request workers run the
  // domains, so under TSan this also checks that no server thread reaches the
  // lock-free sym tables.
  ExplorationServer::Options server_options;
  server_options.workers = 2;
  ExplorationServer server(server_options);
  server.AddDomain(MakeRealService("upstream"));
  server.AddDomain(MakeRealService("peerlat"));
  ASSERT_TRUE(server.AddEndpoint(UniqueUnixAddress("federation")).ok());
  ASSERT_TRUE(server.Start().ok());
  StatusOr<std::vector<std::unique_ptr<ExplorationService>>> stubs =
      ConnectRemoteDomains(*server.BoundAddress(0), FastOptions());
  ASSERT_TRUE(stubs.ok()) << stubs.status();
  std::vector<const SocketExplorationService*> sockets;
  for (const std::unique_ptr<ExplorationService>& stub : *stubs) {
    sockets.push_back(static_cast<const SocketExplorationService*>(stub.get()));
  }
  FederationOutcome served = Federate(std::move(stubs).value(), [&](FederationOutcome& out) {
    for (const SocketExplorationService* socket : sockets) {
      out.request_bytes += socket->request_bytes();
      out.reply_bytes += socket->reply_bytes();
    }
  });

  EXPECT_EQ(served.detections, reference.detections);
  EXPECT_EQ(served.system_wide, reference.system_wide) << "a served domain changed a verdict";
  EXPECT_EQ(served.stats.batches_sent, reference.stats.batches_sent);
  EXPECT_EQ(served.stats.updates_sent, reference.stats.updates_sent);
  EXPECT_EQ(served.stats.replies_received, reference.stats.replies_received);
  EXPECT_EQ(served.stats.batch_errors, 0u);
  EXPECT_EQ(served.stats.counters, reference.stats.counters);
  // Batch frames have fixed-width fields, so the socket stubs count exactly
  // the bytes the in-process decorator serializes.
  EXPECT_GT(reference.request_bytes, 0u);
  EXPECT_EQ(served.request_bytes, reference.request_bytes);
  EXPECT_EQ(served.reply_bytes, reference.reply_bytes);
}

}  // namespace
}  // namespace dice::transport
