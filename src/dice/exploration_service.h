// ExplorationService — the federated exploration API (§2.4), batched.
//
// The paper's narrow interface lets a provider ask a differently-administered
// neighbor domain only coarse per-prefix verdicts about exploratory messages.
// This header turns that idea into an explicit service boundary whose unit of
// work is a *batch*: a versioned, wire-serializable ExploratoryBatchRequest
// (checkpoint epoch + many exploratory UPDATEs) answered by an
// ExploratoryBatchReply (one NarrowReply per update + per-batch counters).
//
// Three layers:
//  * the message structs serialize through src/bgp/wire.{h,cc} encoders into
//    a framed byte format (magic, version, checksum); Parse returns
//    util::Status on anything malformed — truncation, version skew, bit flips
//    — never crashes, because the bytes cross an administrative boundary;
//  * ExplorationService is the abstract narrow interface: checkpoint the
//    remote domain, execute a batch against the checkpointed state;
//  * InProcessExplorationService answers batches over a local Router or
//    RouterState (the old RemoteExplorationPeer, amortized per batch), and
//    WireExplorationService proves the bytes-level path by round-tripping
//    every request and reply through real serialized buffers.

#ifndef SRC_DICE_EXPLORATION_SERVICE_H_
#define SRC_DICE_EXPLORATION_SERVICE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/bgp/router.h"
#include "src/checkpoint/checkpoint.h"

namespace dice {

// What a remote domain is willing to reveal about processing one exploratory
// message on its isolated clone. Deliberately minimal: enough to detect
// faults, nothing about internal policy or table contents (§2.4).
struct NarrowReply {
  bgp::Prefix prefix;
  bool accepted = false;         // clone's import policy accepted the route
  bool adopted_as_best = false;  // clone's decision process selected it
  bool origin_changed = false;   // it displaced a route with another origin
  // How many further messages the remote clone would have emitted (spread
  // potential) — a count only, never the messages themselves.
  uint64_t would_propagate = 0;

  friend bool operator==(const NarrowReply&, const NarrowReply&) = default;
};

// Per-batch execution counters, reported back with the replies. Counts only —
// they reveal how much work the batch cost, not what the state contains.
struct BatchCounters {
  uint64_t clones_materialized = 0;  // updates that forced a state copy
  uint64_t clones_avoided = 0;       // pure-reject updates answered zero-copy
  uint64_t screen_cache_hits = 0;    // import verdicts reused within the batch

  friend bool operator==(const BatchCounters&, const BatchCounters&) = default;
};

// Wire format version carried in every serialized batch message. Bump on any
// layout change; Parse rejects everything but its own version (no
// cross-version compatibility promises — both ends of a federation deploy
// from the same tree).
constexpr uint16_t kExplorationWireVersion = 1;

// Frame magics ("DXBQ" / "DXBP"): a request buffer can never parse as a reply.
constexpr uint32_t kBatchRequestMagic = 0x44584251;
constexpr uint32_t kBatchReplyMagic = 0x44584250;

// Frames `body` as a wire message: magic, version, FNV-1a checksum of the
// body, then the body itself. Exposed so robustness tests can frame
// deliberately malformed bodies that still pass the checksum gate.
Bytes FrameExplorationMessage(uint32_t magic, const Bytes& body,
                              uint16_t version = kExplorationWireVersion);

// Many exploratory inputs against one checkpoint of the remote domain.
struct ExploratoryBatchRequest {
  // The remote checkpoint generation this batch targets, as returned by
  // ExplorationService::TakeCheckpoint. A batch against a stale epoch is
  // rejected: its verdicts would describe state the provider no longer means.
  uint64_t checkpoint_epoch = 0;
  std::vector<bgp::UpdateMessage> updates;

  Bytes Serialize() const;
  [[nodiscard]] static StatusOr<ExploratoryBatchRequest> Parse(const Bytes& bytes);

  friend bool operator==(const ExploratoryBatchRequest&,
                         const ExploratoryBatchRequest&) = default;
};

// One NarrowReply per request update, in request order, plus batch counters.
struct ExploratoryBatchReply {
  uint64_t checkpoint_epoch = 0;
  std::vector<NarrowReply> replies;
  BatchCounters counters;

  Bytes Serialize() const;
  [[nodiscard]] static StatusOr<ExploratoryBatchReply> Parse(const Bytes& bytes);

  friend bool operator==(const ExploratoryBatchReply&,
                         const ExploratoryBatchReply&) = default;
};

// The narrow interface a remote (differently-administered) domain exposes to
// federated exploration. Implementations own their checkpoints and clones;
// nothing but NarrowReplies and counters ever crosses the boundary.
class ExplorationService {
 public:
  virtual ~ExplorationService() = default;

  virtual const std::string& domain_name() const = 0;

  // Checkpoints the remote domain's current live state (invoked when the
  // exploring node checkpoints, so the cross-network exploration base is
  // consistent-ish; BGP tolerates the skew exactly as it tolerates
  // propagation delay). Returns the new checkpoint epoch; subsequent batches
  // must carry it.
  virtual uint64_t TakeCheckpoint(net::SimTime now) = 0;

  // Processes every update in the batch on isolated clones of the current
  // checkpoint and returns one NarrowReply per update, in order. Errors
  // (stale epoch, no checkpoint yet) come back as Status, never crash.
  [[nodiscard]] virtual StatusOr<ExploratoryBatchReply> ExecuteBatch(
      const ExploratoryBatchRequest& request) = 0;
};

// ExplorationService over a router living in this process — the federation
// peer for tests, benches, and single-process deployments. Per batch it
// resolves the arrival session once and memoizes the read-only import screen
// per distinct (attr-set, prefix), so a batch of near-duplicate exploratory
// inputs costs one ClassifyImport pass per distinct combination; pure-reject
// updates are answered from the checkpoint without copying any state.
class InProcessExplorationService : public ExplorationService {
 public:
  // `router` is the remote domain's live router (not owned). `from_peer` is
  // the PeerId under which the exploring node's messages arrive there.
  InProcessExplorationService(std::string domain_name, const bgp::Router* router,
                              bgp::PeerId from_peer);

  // Direct-state variant for benches and tools that assemble RouterStates
  // without a live router: checkpoints snapshot the state given here.
  InProcessExplorationService(std::string domain_name, bgp::RouterState state,
                              std::vector<bgp::PeerView> peers, bgp::PeerId from_peer);

  const std::string& domain_name() const override { return domain_name_; }
  uint64_t TakeCheckpoint(net::SimTime now) override;
  [[nodiscard]] StatusOr<ExploratoryBatchReply> ExecuteBatch(
      const ExploratoryBatchRequest& request) override;

  // States actually copied across all batches so far.
  uint64_t clones_made() const { return checkpoints_.clones_made(); }
  // Exploratory messages answered without copying any state (pure rejects).
  uint64_t clones_avoided() const { return checkpoints_.clones_avoided(); }

 private:
  // Keyed on the interned attrs handle itself (not a raw pointer): the
  // handle holds a reference, which pins the attribute set for the cache's
  // lifetime, so a freed set's address can never be reused by a different
  // set and alias its cached verdict. Ordered by the set's address; the
  // cache is only probed, never iterated.
  using ScreenKey = std::pair<bgp::InternedAttrs, bgp::Prefix>;
  struct ScreenKeyLess {
    bool operator()(const ScreenKey& a, const ScreenKey& b) const {
      const bgp::PathAttributes* x = &a.first.get();
      const bgp::PathAttributes* y = &b.first.get();
      return x != y ? std::less<const bgp::PathAttributes*>()(x, y) : a.second < b.second;
    }
  };
  using ScreenCache = std::map<ScreenKey, bgp::ImportDisposition, ScreenKeyLess>;

  NarrowReply ProcessOne(const bgp::UpdateMessage& update, const bgp::PeerView& from_view,
                         const bgp::NeighborConfig& neighbor, ScreenCache& screen_cache,
                         BatchCounters& counters);

  std::string domain_name_;
  const bgp::Router* router_ = nullptr;  // null when constructed from a state
  bgp::RouterState state_;
  std::vector<bgp::PeerView> state_peers_;
  bgp::PeerId from_peer_;
  checkpoint::CheckpointManager checkpoints_;
};

// Decorator that forces every request and reply through the serialized byte
// form: Serialize -> Parse -> execute on the backend -> Serialize -> Parse.
// What the caller gets back has provably survived the wire format — the
// in-process equivalent of a real RPC transport, with byte counters.
class WireExplorationService : public ExplorationService {
 public:
  explicit WireExplorationService(std::unique_ptr<ExplorationService> backend);

  const std::string& domain_name() const override { return backend_->domain_name(); }
  uint64_t TakeCheckpoint(net::SimTime now) override {
    return backend_->TakeCheckpoint(now);
  }
  [[nodiscard]] StatusOr<ExploratoryBatchReply> ExecuteBatch(
      const ExploratoryBatchRequest& request) override;

  uint64_t rpcs() const { return rpcs_; }
  uint64_t request_bytes() const { return request_bytes_; }
  uint64_t reply_bytes() const { return reply_bytes_; }

 private:
  std::unique_ptr<ExplorationService> backend_;
  uint64_t rpcs_ = 0;
  uint64_t request_bytes_ = 0;
  uint64_t reply_bytes_ = 0;
};

}  // namespace dice

#endif  // SRC_DICE_EXPLORATION_SERVICE_H_
