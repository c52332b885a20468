// Client side of the real transport: a dialed connection (socket or shm
// ring), an RPC channel multiplexing many in-flight calls over it, and
// SocketExplorationService — the ExplorationService stub DistributedExplorer
// plugs in without knowing bytes are crossing a process boundary.
//
// Layers:
//  * ClientTransport — one connected byte pipe (frames in, frames out). The
//    fault-injection harness substitutes its own implementation to tear
//    writes and flip bits under the channel;
//  * RpcChannel — correlation ids, the Hello exchange, a pending-reply map
//    (replies may arrive out of call order: StartCall/Await pipeline many
//    calls, and a reply for call B parks until Await(B) asks for it), and
//    reconnect with exponential backoff. Every successful (re)connect bumps
//    `generation`, which is how stubs learn the world may have changed;
//  * SocketExplorationService — the stub. It keeps two epoch spaces: the
//    *public* epoch it hands its caller (monotonic, survives server
//    restarts) and the *server* epoch the wire wants. After a reconnect it
//    re-validates: if the server's advertised epoch no longer matches, it
//    re-issues TakeCheckpoint at the remembered sim-time, so a SIGKILLed
//    domain that warm-restarted from its snapshot rejoins mid-exploration
//    and the caller never observes an epoch going backwards.
//
// Single-threaded by design: DistributedExplorer drives its services from
// one thread; stubs sharing a channel must share that thread too.

#ifndef SRC_TRANSPORT_CLIENT_H_
#define SRC_TRANSPORT_CLIENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/dice/exploration_service.h"
#include "src/transport/address.h"
#include "src/transport/wire.h"
#include "src/util/status.h"

namespace dice::transport {

// One connected byte pipe. Implementations: sockets (FrameStream), shm rings
// (ShmRingTransport), and the test harness's deliberately faulty wrappers.
class ClientTransport {
 public:
  virtual ~ClientTransport() = default;
  [[nodiscard]] virtual Status SendFrame(const Bytes& frame) = 0;
  [[nodiscard]] virtual StatusOr<Bytes> RecvFrame(int timeout_ms) = 0;
  virtual void Close() = 0;
};

// Dials `address` (tcp:/unix: stream or shm: ring) within `timeout_ms`.
[[nodiscard]] StatusOr<std::unique_ptr<ClientTransport>> DialTransport(
    const Address& address, int timeout_ms);

class RpcChannel {
 public:
  using Dialer =
      std::function<StatusOr<std::unique_ptr<ClientTransport>>(const Address&, int)>;

  struct Options {
    int connect_timeout_ms = 5000;
    int call_timeout_ms = 30000;
    // Reconnect: attempts and the first backoff pause (doubled per attempt,
    // capped at 1s). 0 attempts = fail fast on the first transport error.
    int reconnect_attempts = 6;
    int reconnect_backoff_ms = 10;
    Dialer dialer;  // defaults to DialTransport
  };

  explicit RpcChannel(Address address);
  RpcChannel(Address address, Options options);
  ~RpcChannel();

  RpcChannel(const RpcChannel&) = delete;
  RpcChannel& operator=(const RpcChannel&) = delete;

  // Dials and performs the Hello exchange. No-op when already connected.
  [[nodiscard]] Status Connect();

  // Drops the connection and re-Connects with exponential backoff. On
  // success `generation()` has advanced and `hello()` is fresh.
  [[nodiscard]] Status Reconnect();

  void Close();
  bool connected() const { return transport_ != nullptr; }

  // Counts successful connects; a stub that cached epochs at generation G
  // must re-validate when it sees G' != G.
  uint64_t generation() const { return generation_; }

  // The server's announcement from the most recent Hello exchange.
  const HelloReply& hello() const { return hello_; }

  // Pipelined API: StartCall writes the request and returns its correlation
  // id; Await blocks for that specific reply, parking any other replies that
  // arrive first. Call = StartCall + Await.
  [[nodiscard]] StatusOr<uint64_t> StartCall(uint32_t domain_id, RpcOp op,
                                             Bytes payload);
  [[nodiscard]] StatusOr<RpcReply> Await(uint64_t correlation_id);
  [[nodiscard]] StatusOr<RpcReply> Call(uint32_t domain_id, RpcOp op, Bytes payload);

  const Address& address() const { return address_; }

  uint64_t calls_started() const { return calls_started_; }
  uint64_t replies_received() const { return replies_received_; }
  uint64_t reconnects() const { return reconnects_; }
  uint64_t out_of_order_replies() const { return out_of_order_replies_; }

 private:
  [[nodiscard]] Status ConnectInternal();
  // A transport error invalidates the connection and every pending call.
  void Invalidate();

  Address address_;
  Options options_;
  std::unique_ptr<ClientTransport> transport_;
  HelloReply hello_;
  uint64_t generation_ = 0;
  uint64_t next_correlation_ = 1;
  std::map<uint64_t, RpcReply> parked_;

  uint64_t calls_started_ = 0;
  uint64_t replies_received_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t out_of_order_replies_ = 0;
};

// The remote-domain stub. One per domain; stubs for domains on the same
// server share one RpcChannel.
class SocketExplorationService : public ExplorationService {
 public:
  SocketExplorationService(std::shared_ptr<RpcChannel> channel, uint32_t domain_id,
                           std::string domain_name);

  const std::string& domain_name() const override { return domain_name_; }

  // Returns the new *public* epoch, or 0 when the remote call failed (the
  // interface has no error path; DistributedExplorer already treats 0 as
  // "domain unavailable" and degrades).
  uint64_t TakeCheckpoint(net::SimTime now) override;

  [[nodiscard]] StatusOr<ExploratoryBatchReply> ExecuteBatch(
      const ExploratoryBatchRequest& request) override;

  uint64_t public_epoch() const { return public_epoch_; }
  uint64_t server_epoch() const { return server_epoch_; }
  uint64_t revalidations() const { return revalidations_; }

  // Serialized batch bytes this stub sent (every attempt, retries included)
  // and received (successful replies): the DXBQ/DXBP payloads, without the
  // RPC envelope — the same quantities WireExplorationService counts.
  uint64_t request_bytes() const { return request_bytes_; }
  uint64_t reply_bytes() const { return reply_bytes_; }

 private:
  // After a reconnect: confirm the server still has our checkpoint epoch,
  // re-taking the checkpoint at the remembered sim-time if it does not.
  [[nodiscard]] Status RevalidateEpoch();
  [[nodiscard]] StatusOr<uint64_t> CheckpointOnWire(net::SimTime now);

  std::shared_ptr<RpcChannel> channel_;
  uint32_t domain_id_ = 0;
  std::string domain_name_;
  uint64_t public_epoch_ = 0;   // what the caller sees; never goes backwards
  uint64_t server_epoch_ = 0;   // what the wire wants right now
  net::SimTime last_checkpoint_now_ = 0;
  uint64_t seen_generation_ = 0;
  uint64_t revalidations_ = 0;
  uint64_t request_bytes_ = 0;
  uint64_t reply_bytes_ = 0;
};

// Connects to `address` and builds one stub per domain the server announces,
// all sharing one channel. The channel retries per `options` when the server
// is still coming up.
[[nodiscard]] StatusOr<std::vector<std::unique_ptr<ExplorationService>>>
ConnectRemoteDomains(const Address& address, RpcChannel::Options options);
[[nodiscard]] StatusOr<std::vector<std::unique_ptr<ExplorationService>>>
ConnectRemoteDomains(const Address& address);

}  // namespace dice::transport

#endif  // SRC_TRANSPORT_CLIENT_H_
