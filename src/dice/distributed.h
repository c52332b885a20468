// Distributed exploration — the paper's §2.4 roadmap, implemented:
//
//   "once we can locally exercise all possible node actions, we can then turn
//    to how to observe their consequences on the system-wide state. ... we
//    could intercept all messages and let them go through isolated
//    communication channels. In addition, we would enable remote nodes to
//    checkpoint their state and process these messages in isolation over
//    their checkpointed states."
//
//   "we would want to control the information shared across domains and
//    ensure that nodes only communicate state information through a narrow
//    interface yet capable to allow us to detect faults."
//
// DistributedExplorer drives the local (provider-side) exploration and, for
// every exploratory input the local clone would have propagated, asks each
// remote domain what *it* would do — letting checkers judge the system-wide
// consequence of a node action (e.g. "this leak would be adopted by the
// neighbor and spread") instead of only the local one.
//
// All remote communication goes through the dice::ExplorationService narrow
// interface (src/dice/exploration_service.h): batched, wire-serializable
// requests; per-prefix NarrowReply verdicts back; no paths, no policies, no
// table contents. The explorer never sees what kind of service it talks to —
// in-process, wire-round-tripped, or (eventually) a real transport.

#ifndef SRC_DICE_DISTRIBUTED_H_
#define SRC_DICE_DISTRIBUTED_H_

#include <memory>
#include <string>
#include <vector>

#include "src/dice/exploration_service.h"
#include "src/dice/explorer.h"

namespace dice {

// A fault whose system-wide consequence was confirmed by remote domains.
struct SystemWideDetection {
  Detection local;                            // the provider-side finding
  std::vector<std::string> adopting_domains;  // remote domains that would adopt
  uint64_t total_spread = 0;                  // sum of remote would_propagate counts
};

// What crossing the federation boundary cost in the last ConfirmRemotely,
// summed over all remote services.
struct RemoteBatchStats {
  uint64_t batches_sent = 0;      // ExecuteBatch calls issued
  uint64_t updates_sent = 0;      // exploratory updates shipped in those batches
  uint64_t replies_received = 0;  // NarrowReplies received back
  uint64_t batch_errors = 0;      // batches a service answered with an error Status
  BatchCounters counters;         // remote-side work counters, summed
};

// Orchestrates local exploration plus remote confirmation.
class DistributedExplorer {
 public:
  explicit DistributedExplorer(ExplorerOptions options = {});

  // Local-side configuration (same as Explorer).
  void AddChecker(std::unique_ptr<Checker> checker);

  // Registers a remote domain behind the narrow interface. Owned.
  void AddRemoteService(std::unique_ptr<ExplorationService> service);

  // Maximum exploratory updates per ExecuteBatch call; 0 (the default) ships
  // every pending update to a domain in one batch. 1 reproduces the old
  // point-to-point call shape, one RPC per update — the equivalence tests
  // replay it against full batches.
  void set_remote_batch_size(size_t size) { remote_batch_size_ = size; }
  size_t remote_batch_size() const { return remote_batch_size_; }

  // Checkpoints the exploring node and every remote domain.
  void TakeCheckpoint(const bgp::Router& router, net::SimTime now);
  void TakeCheckpoint(const bgp::RouterState& state, std::vector<bgp::PeerView> peers,
                      net::SimTime now);

  // Runs the full exploration; batches each of its detections' triggering
  // input to each remote domain to judge system-wide impact.
  size_t ExploreSeed(const bgp::UpdateMessage& seed, bgp::PeerId from);

  // The local explorer, for callers that drive exploration incrementally
  // (StartExploration/Step) — dice_cli uses this to snapshot durable state
  // at run boundaries — then call ConfirmRemotely() themselves.
  Explorer& local() { return local_; }

  // The remote-confirmation half of ExploreSeed: batches the triggering input
  // of each detection in local_report() — the current exploration's only —
  // to each registered remote domain and rebuilds system_wide() and
  // remote_stats(). Idempotent per exploration.
  void ConfirmRemotely();

  const ExplorationReport& local_report() const { return local_.report(); }
  const std::vector<SystemWideDetection>& system_wide() const { return system_wide_; }
  const RemoteBatchStats& remote_stats() const { return remote_stats_; }
  size_t remote_count() const { return remotes_.size(); }

 private:
  Explorer local_;
  std::vector<std::unique_ptr<ExplorationService>> remotes_;
  // Epoch returned by each remote's last TakeCheckpoint, index-parallel to
  // remotes_; every batch to that remote carries it.
  std::vector<uint64_t> remote_epochs_;
  std::vector<SystemWideDetection> system_wide_;
  RemoteBatchStats remote_stats_;
  size_t remote_batch_size_ = 0;
};

}  // namespace dice

#endif  // SRC_DICE_DISTRIBUTED_H_
