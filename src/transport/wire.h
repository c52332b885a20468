// The RPC envelope the real transport speaks: one request/reply pair framed
// via util::Frame (magic DXTQ/DXTP, version, checksum) and carried inside the
// stream's length prefix.
//
// The envelope multiplexes many exploration domains over one connection
// (domain_id) and numbers every call (correlation_id): the server answers
// each connection in request order, and the client checks that the one reply
// it reads carries its call's id and op. The payload is opaque to the
// envelope: for kExecuteBatch it is itself a framed
// ExploratoryBatchRequest/-Reply, giving a second independent checksum layer
// under the envelope's.
//
// Errors travel as data: a reply carries the backend's StatusCode + message,
// re-materialized client-side as the same Status the in-process service
// would have returned. Parse rejects malformed bytes (unknown op, truncated
// fields, trailing garbage) with a Status — these bytes cross an
// administrative boundary and are untrusted by definition.

#ifndef SRC_TRANSPORT_WIRE_H_
#define SRC_TRANSPORT_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/status.h"

namespace dice::transport {

using ::dice::Bytes;

// Frame magics ("DXTQ" / "DXTP"): a transport request can never parse as a
// transport reply, nor as a batch message (DXBQ/DXBP).
constexpr uint32_t kRpcRequestMagic = 0x44585451;
constexpr uint32_t kRpcReplyMagic = 0x44585450;
constexpr uint16_t kRpcWireVersion = 1;

enum class RpcOp : uint8_t {
  kHello = 1,           // payload: empty -> HelloReply
  kTakeCheckpoint = 2,  // payload: u64 sim-time ticks -> u64 epoch
  kExecuteBatch = 3,    // payload: framed ExploratoryBatchRequest -> framed reply
};

// `op` values beyond the defined set parse to a Status, not to garbage.
[[nodiscard]] StatusOr<RpcOp> ParseRpcOp(uint8_t raw);

struct RpcRequest {
  uint64_t correlation_id = 0;
  uint32_t domain_id = 0;
  RpcOp op = RpcOp::kHello;
  Bytes payload;

  Bytes Serialize() const;
  [[nodiscard]] static StatusOr<RpcRequest> Parse(const Bytes& bytes);

  friend bool operator==(const RpcRequest&, const RpcRequest&) = default;
};

struct RpcReply {
  uint64_t correlation_id = 0;
  uint32_t domain_id = 0;
  RpcOp op = RpcOp::kHello;
  // The backend's verdict. kOk replies carry a payload; error replies carry
  // the message text and an empty payload.
  StatusCode status_code = StatusCode::kOk;
  std::string error;
  Bytes payload;

  Bytes Serialize() const;
  [[nodiscard]] static StatusOr<RpcReply> Parse(const Bytes& bytes);

  // The backend Status this reply encodes (Ok when status_code is kOk).
  [[nodiscard]] Status ToStatus() const;
  // Builds an error reply mirroring `status` for request `request`.
  static RpcReply FromStatus(const RpcRequest& request, const Status& status);

  friend bool operator==(const RpcReply&, const RpcReply&) = default;
};

// What a server announces on connect: every domain it hosts, by id, with the
// domain's current checkpoint epoch — the client uses the epochs to
// re-validate after a reconnect (a warm-restarted server advertises the
// epoch it restored from its snapshot, not zero).
struct HelloDomain {
  uint32_t id = 0;
  std::string name;
  uint64_t epoch = 0;

  friend bool operator==(const HelloDomain&, const HelloDomain&) = default;
};

struct HelloReply {
  std::vector<HelloDomain> domains;

  Bytes Serialize() const;
  [[nodiscard]] static StatusOr<HelloReply> Parse(const Bytes& bytes);

  friend bool operator==(const HelloReply&, const HelloReply&) = default;
};

}  // namespace dice::transport

#endif  // SRC_TRANSPORT_WIRE_H_
