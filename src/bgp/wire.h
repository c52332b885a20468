// BGP-4 wire codec (RFC 4271 §4): message <-> bytes.
//
// Notes on fidelity:
//  * the 16-octet marker is required to be all ones (no authentication);
//  * AS numbers are carried as 16-bit values, as in classic BGP-4 (RFC 6793
//    4-octet AS support is not modeled; the workload generator stays within
//    16-bit ASNs);
//  * attribute flag validation follows §5/§6.3: well-known attributes must be
//    transitive and non-partial, mandatory attributes must be present when the
//    UPDATE carries NLRI;
//  * decode errors are reported as Status with the RFC error wording so the
//    A1 ablation can classify why whole-message-symbolic inputs are rejected.

#ifndef SRC_BGP_WIRE_H_
#define SRC_BGP_WIRE_H_

#include "src/bgp/message.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace dice::bgp {

// Fixed header size (marker + length + type) and message size bounds, §4.1.
constexpr size_t kHeaderSize = 19;
constexpr size_t kMaxMessageSize = 4096;

// Encodes any message into its wire form, including the header.
Bytes Encode(const Message& message);
Bytes EncodeOpen(const OpenMessage& open);
Bytes EncodeUpdate(const UpdateMessage& update);
Bytes EncodeNotification(const NotificationMessage& notification);
Bytes EncodeKeepalive();

// Decodes one complete message from `bytes` (which must contain exactly one
// message). Returns a detailed error for any RFC violation.
[[nodiscard]] StatusOr<Message> Decode(const Bytes& bytes);

// Decodes just the NLRI-style prefix list encoding (used by tests).
[[nodiscard]] StatusOr<std::vector<Prefix>> DecodePrefixes(ByteReader& reader, size_t byte_count);

// Decodes one NLRI-style prefix (length octet + minimal address bytes) from
// the reader's current position.
[[nodiscard]] StatusOr<Prefix> DecodePrefix(ByteReader& reader);

// Appends the NLRI encoding of `prefix` (length octet + minimal address bytes).
void EncodePrefix(ByteWriter& writer, const Prefix& prefix);

// The number of bytes EncodePrefix appends for `prefix`.
inline size_t EncodedPrefixSize(const Prefix& prefix) { return 1 + (prefix.length() + 7) / 8; }

}  // namespace dice::bgp

#endif  // SRC_BGP_WIRE_H_
