#include "src/persist/router_state_snapshot.h"

#include <utility>
#include <vector>

#include "src/bgp/attr_codec.h"
#include "src/bgp/attr_intern.h"
#include "src/bgp/wire.h"
#include "src/util/frame.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace dice::persist {

namespace {

using ::dice::ByteReader;
using ::dice::ByteSink;
using ::dice::BytesSink;
using ::dice::ByteWriter;
using ::dice::FailedPreconditionError;
using ::dice::FrameWriter;
using ::dice::kFrameHeaderSize;
using ::dice::InvalidArgumentError;
using ::dice::StrFormat;
using ::dice::bgp::AttrTable;
using ::dice::bgp::InternedAttrs;
using ::dice::bgp::Prefix;
using ::dice::bgp::RibEntry;
using ::dice::bgp::Route;
using ::dice::bgp::RouterState;

// The shared attr codec names this format in its error text.
constexpr char kWhat[] = "router state snapshot";

// RibEntry::kNoBest on the wire.
constexpr uint32_t kNoBestWire = 0xFFFFFFFFu;

}  // namespace

uint64_t StateFingerprint(std::string_view config_text, const Bytes& table_source,
                          std::string_view inject_spec) {
  auto data = [](std::string_view s) { return reinterpret_cast<const uint8_t*>(s.data()); };
  const uint8_t newline = '\n';
  uint32_t checksum = dice::BodyChecksum(data(config_text), config_text.size());
  checksum = dice::ExtendChecksum(checksum, &newline, 1);
  checksum = dice::ExtendChecksum(checksum, table_source.data(), table_source.size());
  checksum = dice::ExtendChecksum(checksum, &newline, 1);
  return dice::ExtendChecksum(checksum, data(inject_spec), inject_spec.size());
}

namespace {

// Walk 1: assigns attribute indices over the same deterministic walk the
// writer makes, so references are first-encounter-ordered. Returns the size
// of everything in the body after the attribute table.
size_t IndexAttrs(const RouterState& state, AttrTable& table) {
  // Sequence counter, prefix count, peer count, six processing counters.
  size_t tail_size = 8 + 4 + 4 + 6 * 8;
  state.rib.Walk([&](const Prefix& prefix, const RibEntry& entry) {
    // Prefix, route count, per route peer + peer AS + attr index + sequence,
    // best index.
    tail_size += dice::bgp::EncodedPrefixSize(prefix) + 4 +
                 entry.routes.size() * (4 + 4 + 4 + 8) + 4;
    for (const Route& route : entry.routes) {
      table.IndexOf(route.attrs);
    }
    return true;
  });
  for (const auto& [peer, trie] : state.adj_out) {
    tail_size += 4 + 4;  // peer, entry count
    trie.Walk([&](const Prefix& prefix, const InternedAttrs& attrs) {
      tail_size += dice::bgp::EncodedPrefixSize(prefix) + 4;
      table.IndexOf(attrs);
      return true;
    });
  }
  return tail_size;
}

// Walk 2: writes the frame, draining it after every record, and finishes it.
Status WriteFrame(const RouterState& state, uint64_t config_fingerprint, AttrTable& table,
                  FrameWriter& frame) {
  ByteWriter& body = frame.body();
  body.PutU64(config_fingerprint);
  DICE_RETURN_IF_ERROR(table.Serialize(frame));

  // RIB: sequence counter, then entries in prefix order.
  body.PutU64(state.rib.next_sequence());
  body.PutU32(static_cast<uint32_t>(state.rib.PrefixCount()));
  Status drained;
  state.rib.Walk([&](const Prefix& prefix, const RibEntry& entry) {
    dice::bgp::EncodePrefix(body, prefix);
    body.PutU32(static_cast<uint32_t>(entry.routes.size()));
    for (const Route& route : entry.routes) {
      body.PutU32(route.peer);
      body.PutU32(route.peer_as);
      body.PutU32(table.IndexOf(route.attrs));
      body.PutU64(route.sequence);
    }
    body.PutU32(entry.best == RibEntry::kNoBest ? kNoBestWire
                                                : static_cast<uint32_t>(entry.best));
    drained = frame.Drain();
    return drained.ok();
  });
  DICE_RETURN_IF_ERROR(drained);

  // Adj-RIB-Out, per peer in map (ascending PeerId) order.
  body.PutU32(static_cast<uint32_t>(state.adj_out.size()));
  for (const auto& [peer, trie] : state.adj_out) {
    body.PutU32(peer);
    body.PutU32(static_cast<uint32_t>(trie.size()));
    trie.Walk([&](const Prefix& prefix, const InternedAttrs& attrs) {
      dice::bgp::EncodePrefix(body, prefix);
      body.PutU32(table.IndexOf(attrs));
      drained = frame.Drain();
      return drained.ok();
    });
    DICE_RETURN_IF_ERROR(drained);
  }

  body.PutU64(state.updates_processed);
  body.PutU64(state.routes_announced_in);
  body.PutU64(state.routes_withdrawn_in);
  body.PutU64(state.routes_accepted);
  body.PutU64(state.routes_filtered);
  body.PutU64(state.routes_loop_rejected);
  return frame.Finish();
}

}  // namespace

Status SerializeRouterState(const RouterState& state, uint64_t config_fingerprint,
                            ByteSink& sink) {
  AttrTable table;
  IndexAttrs(state, table);
  FrameWriter frame(sink, kRouterStateSnapshotMagic, kRouterStateSnapshotVersion);
  return WriteFrame(state, config_fingerprint, table, frame);
}

Bytes SerializeRouterState(const RouterState& state, uint64_t config_fingerprint) {
  AttrTable table;
  const size_t tail_size = IndexAttrs(state, table);
  BytesSink sink(kFrameHeaderSize + 8 + table.SerializedSize() + tail_size);
  FrameWriter frame(sink, kRouterStateSnapshotMagic, kRouterStateSnapshotVersion);
  const Status written = WriteFrame(state, config_fingerprint, table, frame);
  DICE_CHECK(written.ok()) << written.ToString();  // memory does not fail
  return sink.Take();
}

StatusOr<RouterState> LoadRouterState(const Bytes& bytes,
                                      std::shared_ptr<const bgp::RouterConfig> config,
                                      uint64_t config_fingerprint) {
  DICE_ASSIGN_OR_RETURN(
      ByteReader r, dice::OpenFrame(bytes, kRouterStateSnapshotMagic,
                                    kRouterStateSnapshotVersion, "router state snapshot"));

  DICE_ASSIGN_OR_RETURN(uint64_t stored_fingerprint, r.ReadU64());
  if (stored_fingerprint != config_fingerprint) {
    return FailedPreconditionError(StrFormat(
        "router state snapshot: config fingerprint mismatch (snapshot %016llx, live "
        "%016llx) — state computed under another policy cannot be reused",
        static_cast<unsigned long long>(stored_fingerprint),
        static_cast<unsigned long long>(config_fingerprint)));
  }

  std::vector<InternedAttrs> attrs;
  DICE_RETURN_IF_ERROR(bgp::LoadAttrTable(r, kWhat, attrs));

  RouterState state;
  state.config = std::move(config);

  DICE_ASSIGN_OR_RETURN(uint64_t next_sequence, r.ReadU64());
  DICE_ASSIGN_OR_RETURN(uint32_t prefix_count, r.ReadU32());
  // A RIB record costs at least a 1-byte prefix, a route count, and a best
  // index.
  if (prefix_count > r.remaining() / (1 + 4 + 4)) {
    return InvalidArgumentError(StrFormat(
        "router state snapshot: prefix count %u exceeds buffer capacity", prefix_count));
  }
  for (uint32_t p = 0; p < prefix_count; ++p) {
    DICE_ASSIGN_OR_RETURN(Prefix prefix, dice::bgp::DecodePrefix(r));
    RibEntry entry;
    DICE_ASSIGN_OR_RETURN(uint32_t route_count, r.ReadU32());
    // peer + peer_as + attr index + sequence.
    if (route_count > r.remaining() / (4 + 4 + 4 + 8)) {
      return InvalidArgumentError(StrFormat(
          "router state snapshot: route count %u exceeds buffer capacity", route_count));
    }
    entry.routes.reserve(route_count);
    for (uint32_t i = 0; i < route_count; ++i) {
      Route route;
      DICE_ASSIGN_OR_RETURN(route.peer, r.ReadU32());
      DICE_ASSIGN_OR_RETURN(route.peer_as, r.ReadU32());
      DICE_RETURN_IF_ERROR(bgp::ReadAttrIndex(r, kWhat, attrs, route.attrs));
      DICE_ASSIGN_OR_RETURN(route.sequence, r.ReadU64());
      if (route.sequence >= next_sequence) {
        return InvalidArgumentError(StrFormat(
            "router state snapshot: route sequence %llu not below counter %llu",
            static_cast<unsigned long long>(route.sequence),
            static_cast<unsigned long long>(next_sequence)));
      }
      entry.routes.push_back(std::move(route));
    }
    DICE_ASSIGN_OR_RETURN(uint32_t best_wire, r.ReadU32());
    if (best_wire == kNoBestWire) {
      entry.best = RibEntry::kNoBest;
    } else if (best_wire < entry.routes.size()) {
      entry.best = best_wire;
    } else {
      return InvalidArgumentError(StrFormat(
          "router state snapshot: best index %u out of range (%zu routes)", best_wire,
          entry.routes.size()));
    }
    state.rib.RestoreEntry(prefix, std::move(entry));
  }
  state.rib.RestoreNextSequence(next_sequence);

  DICE_ASSIGN_OR_RETURN(uint32_t peer_count, r.ReadU32());
  if (peer_count > r.remaining() / (4 + 4)) {
    return InvalidArgumentError(StrFormat(
        "router state snapshot: peer count %u exceeds buffer capacity", peer_count));
  }
  for (uint32_t i = 0; i < peer_count; ++i) {
    DICE_ASSIGN_OR_RETURN(uint32_t peer, r.ReadU32());
    if (state.adj_out.find(peer) != state.adj_out.end()) {
      return InvalidArgumentError(
          StrFormat("router state snapshot: duplicate adj-out peer %u", peer));
    }
    auto& trie = state.adj_out[peer];
    DICE_ASSIGN_OR_RETURN(uint32_t entry_count, r.ReadU32());
    if (entry_count > r.remaining() / (1 + 4)) {
      return InvalidArgumentError(StrFormat(
          "router state snapshot: adj-out entry count %u exceeds buffer capacity",
          entry_count));
    }
    for (uint32_t e = 0; e < entry_count; ++e) {
      DICE_ASSIGN_OR_RETURN(Prefix prefix, dice::bgp::DecodePrefix(r));
      InternedAttrs handle;
      DICE_RETURN_IF_ERROR(bgp::ReadAttrIndex(r, kWhat, attrs, handle));
      trie.Insert(prefix, std::move(handle));
    }
  }

  DICE_ASSIGN_OR_RETURN(state.updates_processed, r.ReadU64());
  DICE_ASSIGN_OR_RETURN(state.routes_announced_in, r.ReadU64());
  DICE_ASSIGN_OR_RETURN(state.routes_withdrawn_in, r.ReadU64());
  DICE_ASSIGN_OR_RETURN(state.routes_accepted, r.ReadU64());
  DICE_ASSIGN_OR_RETURN(state.routes_filtered, r.ReadU64());
  DICE_ASSIGN_OR_RETURN(state.routes_loop_rejected, r.ReadU64());

  if (!r.AtEnd()) {
    return InvalidArgumentError(StrFormat(
        "router state snapshot: %zu trailing bytes after counters", r.remaining()));
  }

  return state;
}

}  // namespace dice::persist
