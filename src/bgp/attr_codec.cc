#include "src/bgp/attr_codec.h"

#include <bit>
#include <cstdint>
#include <utility>

#include "src/util/strings.h"

namespace dice::bgp {

namespace {

// Presence bits for the optional PathAttributes fields.
constexpr uint8_t kHasMed = 0x01;
constexpr uint8_t kHasLocalPref = 0x02;
constexpr uint8_t kHasAggregator = 0x04;
constexpr uint8_t kAtomicAggregate = 0x08;
constexpr uint8_t kKnownPresenceFlags =
    kHasMed | kHasLocalPref | kHasAggregator | kAtomicAggregate;

// The number of bytes EncodeAttrs appends for `a`, field for field.
size_t EncodedAttrsSize(const PathAttributes& a) {
  size_t size = 1 + 4;  // origin, segment count
  for (const AsSegment& seg : a.as_path.segments()) {
    size += 1 + 4 + 4 * seg.asns.size();
  }
  size += 4 + 1;  // next hop, presence bits
  size += a.med.has_value() ? 4 : 0;
  size += a.local_pref.has_value() ? 4 : 0;
  size += a.aggregator.has_value() ? 4 + 4 : 0;
  size += 4 + 4 * a.communities.size();
  size += 4;  // unknown-attribute count
  for (const UnknownAttribute& u : a.unknown) {
    size += 1 + 1 + 2 + u.value.size();
  }
  return size;
}

}  // namespace

void EncodeAttrs(ByteWriter& w, const PathAttributes& a) {
  w.PutU8(static_cast<uint8_t>(a.origin));
  w.PutU32(static_cast<uint32_t>(a.as_path.segments().size()));
  for (const AsSegment& seg : a.as_path.segments()) {
    w.PutU8(static_cast<uint8_t>(seg.type));
    w.PutU32(static_cast<uint32_t>(seg.asns.size()));
    for (AsNumber asn : seg.asns) {
      w.PutU32(asn);
    }
  }
  w.PutU32(a.next_hop.bits());
  uint8_t presence = 0;
  presence |= a.med.has_value() ? kHasMed : 0;
  presence |= a.local_pref.has_value() ? kHasLocalPref : 0;
  presence |= a.aggregator.has_value() ? kHasAggregator : 0;
  presence |= a.atomic_aggregate ? kAtomicAggregate : 0;
  w.PutU8(presence);
  if (a.med.has_value()) {
    w.PutU32(*a.med);
  }
  if (a.local_pref.has_value()) {
    w.PutU32(*a.local_pref);
  }
  if (a.aggregator.has_value()) {
    w.PutU32(a.aggregator->asn);
    w.PutU32(a.aggregator->address.bits());
  }
  w.PutU32(static_cast<uint32_t>(a.communities.size()));
  for (uint32_t c : a.communities) {
    w.PutU32(c);
  }
  w.PutU32(static_cast<uint32_t>(a.unknown.size()));
  for (const UnknownAttribute& u : a.unknown) {
    w.PutU8(u.flags);
    w.PutU8(u.type);
    w.PutU16(static_cast<uint16_t>(u.value.size()));
    w.PutBytes(Bytes(u.value.begin(), u.value.end()));
  }
}

Status DecodeAttrs(ByteReader& r, const char* what, PathAttributes& a) {
  DICE_ASSIGN_OR_RETURN(uint8_t origin_raw, r.ReadU8());
  if (origin_raw > static_cast<uint8_t>(Origin::kIncomplete)) {
    return InvalidArgumentError(StrFormat("%s: bad origin %u", what, origin_raw));
  }
  a.origin = static_cast<Origin>(origin_raw);
  DICE_ASSIGN_OR_RETURN(uint32_t segment_count, r.ReadU32());
  // A segment costs at least a type byte plus an ASN count.
  if (segment_count > r.remaining() / (1 + 4)) {
    return InvalidArgumentError(StrFormat(
        "%s: segment count %u exceeds buffer capacity", what, segment_count));
  }
  std::vector<AsSegment> segments;
  segments.reserve(segment_count);
  for (uint32_t s = 0; s < segment_count; ++s) {
    DICE_ASSIGN_OR_RETURN(uint8_t type_raw, r.ReadU8());
    if (type_raw != static_cast<uint8_t>(AsSegmentType::kAsSet) &&
        type_raw != static_cast<uint8_t>(AsSegmentType::kAsSequence)) {
      return InvalidArgumentError(
          StrFormat("%s: bad AS segment type %u", what, type_raw));
    }
    AsSegment seg;
    seg.type = static_cast<AsSegmentType>(type_raw);
    DICE_ASSIGN_OR_RETURN(uint32_t asn_count, r.ReadU32());
    if (asn_count > r.remaining() / 4) {
      return InvalidArgumentError(
          StrFormat("%s: ASN count %u exceeds buffer capacity", what, asn_count));
    }
    seg.asns.reserve(asn_count);
    for (uint32_t i = 0; i < asn_count; ++i) {
      DICE_ASSIGN_OR_RETURN(AsNumber asn, r.ReadU32());
      seg.asns.push_back(asn);
    }
    segments.push_back(std::move(seg));
  }
  a.as_path = AsPath(std::move(segments));
  DICE_ASSIGN_OR_RETURN(uint32_t next_hop, r.ReadU32());
  a.next_hop = Ipv4Address(next_hop);
  DICE_ASSIGN_OR_RETURN(uint8_t presence, r.ReadU8());
  if ((presence & ~kKnownPresenceFlags) != 0) {
    return InvalidArgumentError(
        StrFormat("%s: unknown presence bits 0x%02x", what, presence));
  }
  if ((presence & kHasMed) != 0) {
    DICE_ASSIGN_OR_RETURN(uint32_t med, r.ReadU32());
    a.med = med;
  }
  if ((presence & kHasLocalPref) != 0) {
    DICE_ASSIGN_OR_RETURN(uint32_t local_pref, r.ReadU32());
    a.local_pref = local_pref;
  }
  a.atomic_aggregate = (presence & kAtomicAggregate) != 0;
  if ((presence & kHasAggregator) != 0) {
    Aggregator agg;
    DICE_ASSIGN_OR_RETURN(agg.asn, r.ReadU32());
    DICE_ASSIGN_OR_RETURN(uint32_t addr, r.ReadU32());
    agg.address = Ipv4Address(addr);
    a.aggregator = agg;
  }
  DICE_ASSIGN_OR_RETURN(uint32_t community_count, r.ReadU32());
  if (community_count > r.remaining() / 4) {
    return InvalidArgumentError(StrFormat(
        "%s: community count %u exceeds buffer capacity", what, community_count));
  }
  a.communities.reserve(community_count);
  for (uint32_t i = 0; i < community_count; ++i) {
    DICE_ASSIGN_OR_RETURN(uint32_t c, r.ReadU32());
    a.communities.push_back(c);
  }
  DICE_ASSIGN_OR_RETURN(uint32_t unknown_count, r.ReadU32());
  // flags + type + length.
  if (unknown_count > r.remaining() / (1 + 1 + 2)) {
    return InvalidArgumentError(StrFormat(
        "%s: unknown-attr count %u exceeds buffer capacity", what, unknown_count));
  }
  a.unknown.reserve(unknown_count);
  for (uint32_t i = 0; i < unknown_count; ++i) {
    UnknownAttribute u;
    DICE_ASSIGN_OR_RETURN(u.flags, r.ReadU8());
    DICE_ASSIGN_OR_RETURN(u.type, r.ReadU8());
    DICE_ASSIGN_OR_RETURN(uint16_t length, r.ReadU16());
    DICE_ASSIGN_OR_RETURN(Bytes value, r.ReadBytes(length));
    u.value.assign(value.begin(), value.end());
    a.unknown.push_back(std::move(u));
  }
  return Status::Ok();
}

size_t AttrTable::Home(const PathAttributes* key) const {
  return static_cast<size_t>((reinterpret_cast<uintptr_t>(key) * 0x9e3779b97f4a7c15ULL) >>
                             shift_);
}

uint32_t AttrTable::IndexOf(const InternedAttrs& attrs) {
  const PathAttributes* key = &attrs.get();
  if (!slots_.empty()) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(key); slots_[i].key != nullptr; i = (i + 1) & mask) {
      if (slots_[i].key == key) {
        return slots_[i].index;
      }
    }
  }
  if ((attrs_.size() + 1) * 4 > slots_.size() * 3) {
    Grow();
  }
  const uint32_t index = static_cast<uint32_t>(attrs_.size());
  Place(Slot{key, index});
  attrs_.push_back(attrs);
  return index;
}

void AttrTable::Place(Slot slot) {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(slot.key);
  while (slots_[i].key != nullptr) {
    i = (i + 1) & mask;
  }
  slots_[i] = slot;
}

void AttrTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
  for (const Slot& slot : old) {
    if (slot.key != nullptr) {
      Place(slot);
    }
  }
}

Status AttrTable::Serialize(FrameWriter& frame) const {
  ByteWriter& w = frame.body();
  w.PutU32(static_cast<uint32_t>(attrs_.size()));
  for (const InternedAttrs& handle : attrs_) {
    // Stored structural hash: a second corruption tripwire beyond the frame
    // checksum, and the key the intern table reloads under.
    w.PutU64(handle.hash());
    EncodeAttrs(w, handle.get());
    DICE_RETURN_IF_ERROR(frame.Drain());
  }
  return Status::Ok();
}

size_t AttrTable::SerializedSize() const {
  size_t size = 4;  // count
  for (const InternedAttrs& handle : attrs_) {
    size += 8 + EncodedAttrsSize(handle.get());  // hash, attrs
  }
  return size;
}

Status LoadAttrTable(ByteReader& r, const char* what, std::vector<InternedAttrs>& out) {
  DICE_ASSIGN_OR_RETURN(uint32_t attr_count, r.ReadU32());
  // An attribute record costs at least hash + origin + four counts/fields.
  if (attr_count > r.remaining() / (8 + 1 + 4 + 4 + 1 + 4)) {
    return InvalidArgumentError(
        StrFormat("%s: attribute count %u exceeds buffer capacity", what, attr_count));
  }
  out.reserve(attr_count);
  for (uint32_t i = 0; i < attr_count; ++i) {
    DICE_ASSIGN_OR_RETURN(uint64_t stored_hash, r.ReadU64());
    PathAttributes a;
    DICE_RETURN_IF_ERROR(DecodeAttrs(r, what, a));
    // Re-interns in this process, hashing the set once. The stored
    // structural hash must match the decoded value's: catches any corruption
    // the frame checksum happened to miss and any decode drift between
    // writer and reader.
    InternedAttrs interned(std::move(a));
    if (interned.hash() != stored_hash) {
      return InvalidArgumentError(StrFormat(
          "%s: attribute %u hash mismatch (stored %016llx, decoded %016llx)", what, i,
          static_cast<unsigned long long>(stored_hash),
          static_cast<unsigned long long>(interned.hash())));
    }
    out.push_back(std::move(interned));
  }
  return Status::Ok();
}

Status ReadAttrIndex(ByteReader& r, const char* what,
                     const std::vector<InternedAttrs>& attrs, InternedAttrs& out) {
  DICE_ASSIGN_OR_RETURN(uint32_t idx, r.ReadU32());
  if (idx >= attrs.size()) {
    return InvalidArgumentError(StrFormat("%s: attribute reference %u out of range (%zu)",
                                          what, idx, attrs.size()));
  }
  out = attrs[idx];
  return Status::Ok();
}

}  // namespace dice::bgp
