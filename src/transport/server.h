// ExplorationServer — hosts one or more ExplorationService domains behind
// TCP and Unix-domain socket endpoints, speaking the framed RPC envelope of
// wire.h.
//
// One reactor thread serves every endpoint. It parses each request, runs it
// inline, and queues the reply before it reads the connection's next frame,
// so every connection is answered in request order and the client checks
// each reply's correlation id against its one call in flight. Every request
// names its domain (domain_id), so many domains share one connection; a slow
// domain delays the replies queued behind it.
//
// The epoch a warm-restarted server advertises in its Hello comes from
// AddDomain's initial_epoch (the host restores the domain from its snapshot
// and reports the restored epoch), which is how a SIGKILLed domain rejoins a
// federation without the explorer re-learning state.

#ifndef SRC_TRANSPORT_SERVER_H_
#define SRC_TRANSPORT_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/dice/exploration_service.h"
#include "src/transport/address.h"
#include "src/transport/reactor.h"
#include "src/transport/wire.h"
#include "src/util/status.h"

namespace dice::transport {

class ExplorationServer {
 public:
  struct Options {
    // Must be 0: requests run inline on the reactor thread, and Start()
    // refuses any other value. The field stays only while perfbench still
    // sets it; it goes with the benchmark's next revision.
    size_t workers = 0;
  };

  // Per-domain service counters; latencies are reactor-thread microseconds
  // (wall time — this is operational telemetry, not simulation state).
  struct DomainStats {
    uint64_t requests = 0;
    uint64_t checkpoints = 0;
    uint64_t batches = 0;
    uint64_t errors = 0;
    uint64_t request_bytes = 0;
    uint64_t reply_bytes = 0;
    uint64_t busy_us = 0;      // summed service time
    uint64_t max_busy_us = 0;  // worst single request
  };

  ExplorationServer();
  explicit ExplorationServer(Options options);
  ~ExplorationServer();

  ExplorationServer(const ExplorationServer&) = delete;
  ExplorationServer& operator=(const ExplorationServer&) = delete;

  // Registers a domain before Start; returns its wire id (1-based, in
  // registration order on every endpoint). `initial_epoch` is what Hello
  // advertises until the first TakeCheckpoint lands — nonzero when the host
  // warm-restarted the domain from a snapshot.
  uint32_t AddDomain(std::unique_ptr<ExplorationService> domain,
                     uint64_t initial_epoch = 0);

  // Opens a tcp: or unix: listening endpoint before Start.
  [[nodiscard]] Status AddEndpoint(const Address& address);

  // The resolved address of endpoint `index` (in AddEndpoint order) — the
  // kernel-assigned port of a tcp:...:0 listener becomes visible here.
  [[nodiscard]] StatusOr<Address> BoundAddress(size_t index) const;

  // Starts the reactor thread. Endpoints and domains are frozen after.
  [[nodiscard]] Status Start();

  // Stops the reactor thread and closes every endpoint. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // Safe to call from any thread while the server runs.
  DomainStats domain_stats(uint32_t domain_id) const;
  std::vector<std::string> domain_names() const;

  uint64_t connections_accepted() const;

 private:
  struct Domain {
    std::unique_ptr<ExplorationService> service;
    uint64_t last_epoch = 0;
    mutable std::mutex mu;  // guards stats for domain_stats() on other threads
    DomainStats stats;
  };

  void ReactorMain();
  // Parses one envelope, runs it, and queues its reply on `conn`.
  void HandleFrame(Reactor::ConnId conn, const Bytes& frame);
  RpcReply Execute(const RpcRequest& request);
  Bytes BuildHello();

  Options options_;
  std::vector<std::unique_ptr<Domain>> domains_;  // index = domain_id - 1
  std::vector<Address> bound_addresses_;          // one per endpoint

  Reactor reactor_;
  std::thread reactor_thread_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  bool started_ = false;
};

}  // namespace dice::transport

#endif  // SRC_TRANSPORT_SERVER_H_
