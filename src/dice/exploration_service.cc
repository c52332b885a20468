#include "src/dice/exploration_service.h"

#include "src/bgp/attr_intern.h"
#include "src/bgp/wire.h"
#include "src/util/frame.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace dice {
namespace {

// NarrowReply flag bits on the wire; any other bit set is a parse error.
constexpr uint8_t kReplyAccepted = 0x01;
constexpr uint8_t kReplyAdopted = 0x02;
constexpr uint8_t kReplyOriginChanged = 0x04;
constexpr uint8_t kReplyKnownFlags =
    kReplyAccepted | kReplyAdopted | kReplyOriginChanged;

// Validates the frame against the exploration wire version and returns a
// reader positioned at the body.
StatusOr<ByteReader> OpenFrame(const Bytes& bytes, uint32_t expected_magic,
                               const char* what) {
  return dice::OpenFrame(bytes, expected_magic, kExplorationWireVersion, what);
}

}  // namespace

Bytes FrameExplorationMessage(uint32_t magic, const Bytes& body, uint16_t version) {
  return FrameMessage(magic, version, body);
}

Bytes ExploratoryBatchRequest::Serialize() const {
  ByteWriter body;
  body.PutU64(checkpoint_epoch);
  body.PutU32(static_cast<uint32_t>(updates.size()));
  for (const bgp::UpdateMessage& update : updates) {
    // Each update rides as a complete BGP UPDATE wire message (RFC 4271
    // framing via src/bgp/wire.cc), length-prefixed so the batch parser can
    // skip to the next one without understanding BGP. The u16 prefix cannot
    // truncate: EncodeUpdate enforces kMaxMessageSize (4096) internally.
    Bytes encoded = bgp::EncodeUpdate(update);
    body.PutU16(static_cast<uint16_t>(encoded.size()));
    body.PutBytes(encoded);
  }
  return FrameExplorationMessage(kBatchRequestMagic, body.bytes());
}

StatusOr<ExploratoryBatchRequest> ExploratoryBatchRequest::Parse(const Bytes& bytes) {
  DICE_ASSIGN_OR_RETURN(ByteReader r,
                        OpenFrame(bytes, kBatchRequestMagic, "batch request"));
  ExploratoryBatchRequest request;
  DICE_ASSIGN_OR_RETURN(request.checkpoint_epoch, r.ReadU64());
  DICE_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  // Each update costs at least a length prefix plus a BGP header; a count
  // that could not possibly fit the remaining bytes is malformed (and must
  // not drive a huge reserve()).
  if (count > r.remaining() / (2 + bgp::kHeaderSize)) {
    return InvalidArgumentError(
        StrFormat("batch request: update count %u exceeds buffer capacity", count));
  }
  request.updates.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    DICE_ASSIGN_OR_RETURN(uint16_t length, r.ReadU16());
    DICE_ASSIGN_OR_RETURN(Bytes encoded, r.ReadBytes(length));
    DICE_ASSIGN_OR_RETURN(bgp::Message message, bgp::Decode(encoded));
    if (bgp::TypeOf(message) != bgp::MessageType::kUpdate) {
      return InvalidArgumentError(
          StrFormat("batch request: entry %u is not an UPDATE message", i));
    }
    request.updates.push_back(std::get<bgp::UpdateMessage>(std::move(message)));
  }
  if (!r.AtEnd()) {
    return InvalidArgumentError(
        StrFormat("batch request: %zu trailing bytes after last update", r.remaining()));
  }
  return request;
}

Bytes ExploratoryBatchReply::Serialize() const {
  ByteWriter body;
  body.PutU64(checkpoint_epoch);
  body.PutU32(static_cast<uint32_t>(replies.size()));
  for (const NarrowReply& reply : replies) {
    bgp::EncodePrefix(body, reply.prefix);
    uint8_t flags = 0;
    if (reply.accepted) {
      flags |= kReplyAccepted;
    }
    if (reply.adopted_as_best) {
      flags |= kReplyAdopted;
    }
    if (reply.origin_changed) {
      flags |= kReplyOriginChanged;
    }
    body.PutU8(flags);
    body.PutU64(reply.would_propagate);
  }
  body.PutU64(counters.clones_materialized);
  body.PutU64(counters.clones_avoided);
  body.PutU64(counters.screen_cache_hits);
  return FrameExplorationMessage(kBatchReplyMagic, body.bytes());
}

StatusOr<ExploratoryBatchReply> ExploratoryBatchReply::Parse(const Bytes& bytes) {
  DICE_ASSIGN_OR_RETURN(ByteReader r, OpenFrame(bytes, kBatchReplyMagic, "batch reply"));
  ExploratoryBatchReply reply;
  DICE_ASSIGN_OR_RETURN(reply.checkpoint_epoch, r.ReadU64());
  DICE_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  // Minimal reply: 1-byte prefix, flags byte, u64 propagate count.
  if (count > r.remaining() / (1 + 1 + 8)) {
    return InvalidArgumentError(
        StrFormat("batch reply: reply count %u exceeds buffer capacity", count));
  }
  reply.replies.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    NarrowReply narrow;
    DICE_ASSIGN_OR_RETURN(narrow.prefix, bgp::DecodePrefix(r));
    DICE_ASSIGN_OR_RETURN(uint8_t flags, r.ReadU8());
    if ((flags & ~kReplyKnownFlags) != 0) {
      return InvalidArgumentError(
          StrFormat("batch reply: entry %u carries unknown flag bits 0x%02x", i, flags));
    }
    narrow.accepted = (flags & kReplyAccepted) != 0;
    narrow.adopted_as_best = (flags & kReplyAdopted) != 0;
    narrow.origin_changed = (flags & kReplyOriginChanged) != 0;
    DICE_ASSIGN_OR_RETURN(narrow.would_propagate, r.ReadU64());
    reply.replies.push_back(narrow);
  }
  DICE_ASSIGN_OR_RETURN(reply.counters.clones_materialized, r.ReadU64());
  DICE_ASSIGN_OR_RETURN(reply.counters.clones_avoided, r.ReadU64());
  DICE_ASSIGN_OR_RETURN(reply.counters.screen_cache_hits, r.ReadU64());
  if (!r.AtEnd()) {
    return InvalidArgumentError(
        StrFormat("batch reply: %zu trailing bytes after counters", r.remaining()));
  }
  return reply;
}

// --- InProcessExplorationService ---------------------------------------------

InProcessExplorationService::InProcessExplorationService(std::string domain_name,
                                                         const bgp::Router* router,
                                                         bgp::PeerId from_peer)
    : domain_name_(std::move(domain_name)), router_(router), from_peer_(from_peer) {}

InProcessExplorationService::InProcessExplorationService(std::string domain_name,
                                                         bgp::RouterState state,
                                                         std::vector<bgp::PeerView> peers,
                                                         bgp::PeerId from_peer)
    : domain_name_(std::move(domain_name)),
      state_(std::move(state)),
      state_peers_(std::move(peers)),
      from_peer_(from_peer) {}

uint64_t InProcessExplorationService::TakeCheckpoint(net::SimTime now) {
  if (router_ != nullptr) {
    checkpoints_.Take(router_->CheckpointState(), router_->PeerViews(), now);
  } else {
    checkpoints_.Take(state_, state_peers_, now);
  }
  // Epochs are 1-based (checkpoints_taken counts completed Take calls), so 0
  // unambiguously means "no checkpoint yet" in a request.
  return checkpoints_.checkpoints_taken();
}

StatusOr<ExploratoryBatchReply> InProcessExplorationService::ExecuteBatch(
    const ExploratoryBatchRequest& request) {
  if (!checkpoints_.HasCheckpoint()) {
    return FailedPreconditionError(domain_name_ + ": batch before any checkpoint");
  }
  if (request.checkpoint_epoch != checkpoints_.checkpoints_taken()) {
    return FailedPreconditionError(StrFormat(
        "%s: batch targets checkpoint epoch %llu but current epoch is %llu",
        domain_name_.c_str(), static_cast<unsigned long long>(request.checkpoint_epoch),
        static_cast<unsigned long long>(checkpoints_.checkpoints_taken())));
  }

  const checkpoint::Checkpoint& cp = checkpoints_.current();

  // Resolved once per batch and shared by every update in it: the session the
  // exploring node's messages arrive on, and its import policy.
  const bgp::PeerView* from_view = nullptr;
  for (const bgp::PeerView& peer : cp.peers) {
    if (peer.id == from_peer_) {
      from_view = &peer;
    }
  }
  bgp::PeerView fallback;
  if (from_view == nullptr) {
    fallback.id = from_peer_;
    fallback.established = true;
    from_view = &fallback;
  }
  const bgp::NeighborConfig* neighbor = cp.state.config->FindNeighbor(from_view->address);
  static const bgp::NeighborConfig kAcceptAll;
  if (neighbor == nullptr) {
    neighbor = &kAcceptAll;
  }

  ExploratoryBatchReply reply;
  reply.checkpoint_epoch = request.checkpoint_epoch;
  reply.replies.reserve(request.updates.size());

  uint64_t materialized_before = checkpoints_.clones_materialized();
  uint64_t avoided_before = checkpoints_.clones_avoided();

  // Import verdicts reused across the batch: exploratory inputs from one
  // negation sweep mostly share attribute sets, so interning the attrs and
  // memoizing the read-only screen per (attr-set, prefix) turns N
  // ClassifyImport passes into one per distinct combination.
  ScreenCache screen_cache;
  for (const bgp::UpdateMessage& update : request.updates) {
    reply.replies.push_back(
        ProcessOne(update, *from_view, *neighbor, screen_cache, reply.counters));
  }

  reply.counters.clones_materialized = checkpoints_.clones_materialized() - materialized_before;
  reply.counters.clones_avoided = checkpoints_.clones_avoided() - avoided_before;
  return reply;
}

NarrowReply InProcessExplorationService::ProcessOne(
    const bgp::UpdateMessage& update, const bgp::PeerView& from_view,
    const bgp::NeighborConfig& neighbor, ScreenCache& screen_cache,
    BatchCounters& counters) {
  NarrowReply reply;
  if (update.nlri.empty()) {
    // No announcement, nothing to judge: a withdrawal-only exploratory
    // message gets the all-default verdict (the per-prefix fields would
    // otherwise be computed against a prefix the update never named).
    return reply;
  }
  reply.prefix = update.nlri[0];

  checkpoint::CloneHandle handle = checkpoints_.CloneLazy();
  const bgp::RouterState& base = handle.read();
  const checkpoint::Checkpoint& cp = checkpoints_.current();

  // Zero-copy screen: the remote clone only needs materializing if the
  // update can actually change state — a withdrawal that removes an existing
  // route from this session, or an announcement the import policy accepts.
  // ClassifyImport is the same logic ImportRoute applies, so the screen
  // cannot drift from the processing path. Accepted updates evaluate the
  // filter a second time inside ProcessUpdate — the deliberate trade: the
  // common case under adversarial seeds (rejects) saves a whole state copy,
  // the minority (accepts) pays one extra O(filter) pass.
  bool mutates = false;
  for (const bgp::Prefix& withdrawn : update.withdrawn) {
    if (const bgp::RibEntry* entry = base.rib.Entry(withdrawn)) {
      for (const bgp::Route& candidate : entry->routes) {
        if (candidate.peer == from_peer_) {
          mutates = true;
          break;
        }
      }
    }
  }
  if (!mutates) {
    bgp::InternedAttrs interned(update.attrs);
    for (const bgp::Prefix& announced : update.nlri) {
      ScreenKey key(interned, announced);
      auto it = screen_cache.find(key);
      bgp::ImportDisposition disposition;
      if (it != screen_cache.end()) {
        ++counters.screen_cache_hits;
        disposition = it->second;
      } else {
        disposition = bgp::ClassifyImport(base, neighbor, announced, update.attrs).disposition;
        screen_cache.emplace(key, disposition);
      }
      if (disposition == bgp::ImportDisposition::kAccepted) {
        mutates = true;
        break;
      }
    }
  }

  const bgp::Route* previous_best = base.rib.BestRoute(reply.prefix);
  bgp::AsNumber previous_origin =
      previous_best != nullptr ? previous_best->attrs->as_path.OriginAs() : 0;
  bool had_previous = previous_best != nullptr;

  if (!mutates) {
    // Pure-reject update: the reply is computable from the checkpoint state
    // itself, and nothing was copied (this run was free). The fields must
    // match what the materialized path below would report after a no-op
    // ProcessUpdate — including a pre-existing candidate from this session.
    reply.accepted = false;
    if (const bgp::RibEntry* entry = base.rib.Entry(reply.prefix)) {
      for (const bgp::Route& candidate : entry->routes) {
        if (candidate.peer == from_peer_) {
          reply.accepted = true;
        }
      }
    }
    const bgp::Route* best = base.rib.BestRoute(reply.prefix);
    reply.adopted_as_best = best != nullptr && best->peer == from_peer_;
    reply.origin_changed = false;  // nothing changed, so no origin change
    reply.would_propagate = 0;     // no Loc-RIB change, nothing to emit
    return reply;
  }

  bgp::RouterState& clone = handle.Mutable();

  // Isolation: the clone's outbound messages are intercepted; only their
  // count crosses the domain boundary.
  uint64_t emitted = 0;
  bgp::UpdateSink sink = [&emitted](bgp::PeerId, const bgp::UpdateMessage&) { ++emitted; };
  bgp::ProcessUpdate(clone, cp.peers, from_view, neighbor, update, sink);

  const bgp::Route* new_best = clone.rib.BestRoute(reply.prefix);
  reply.accepted = false;
  if (const bgp::RibEntry* entry = clone.rib.Entry(reply.prefix)) {
    for (const bgp::Route& candidate : entry->routes) {
      if (candidate.peer == from_peer_) {
        reply.accepted = true;
      }
    }
  }
  reply.adopted_as_best = new_best != nullptr && new_best->peer == from_peer_;
  reply.origin_changed = had_previous && reply.adopted_as_best &&
                         new_best->attrs->as_path.OriginAs() != previous_origin;
  reply.would_propagate = emitted;
  return reply;
}

// --- WireExplorationService ---------------------------------------------------

WireExplorationService::WireExplorationService(std::unique_ptr<ExplorationService> backend)
    : backend_(std::move(backend)) {}

StatusOr<ExploratoryBatchReply> WireExplorationService::ExecuteBatch(
    const ExploratoryBatchRequest& request) {
  // Outbound: the request exists only as bytes past this point.
  Bytes request_wire = request.Serialize();
  ++rpcs_;
  request_bytes_ += request_wire.size();
  DICE_ASSIGN_OR_RETURN(ExploratoryBatchRequest decoded,
                        ExploratoryBatchRequest::Parse(request_wire));
  DICE_ASSIGN_OR_RETURN(ExploratoryBatchReply reply, backend_->ExecuteBatch(decoded));
  // Inbound: the reply the caller sees has round-tripped the wire form too.
  Bytes reply_wire = reply.Serialize();
  reply_bytes_ += reply_wire.size();
  return ExploratoryBatchReply::Parse(reply_wire);
}

}  // namespace dice
