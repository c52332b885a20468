// Blocking length-framed byte stream over a connected socket — the client
// half of the transport. The server side multiplexes many such streams
// through the nonblocking transport::Reactor; a client drives exactly one
// connection at a time, so plain blocking I/O with explicit timeouts is both
// simpler and sufficient.
//
// Stream framing: every message is `u32 big-endian length | payload`. The
// payload is itself a util::Frame-framed message (magic/version/checksum), so
// stream-level truncation and payload-level corruption are caught by two
// independent layers. SendRaw/CloseWrite expose the raw byte stream for the
// fault-injection harness, which deliberately writes malformed prefixes.

#ifndef SRC_TRANSPORT_STREAM_H_
#define SRC_TRANSPORT_STREAM_H_

#include <cstdint>

#include "src/transport/address.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace dice::transport {

using ::dice::Bytes;

// Frames larger than this are a protocol violation on both ends: the reactor
// closes the connection, the stream refuses the send/receive. Generous —
// a full 4096-update batch serializes well under 1 MiB.
constexpr size_t kMaxFrameBytes = 16u << 20;

// A connected, blocking, length-framed stream. Movable, not copyable; the
// destructor closes the descriptor.
class FrameStream {
 public:
  FrameStream() = default;
  // Adopts a connected descriptor (made blocking).
  explicit FrameStream(int fd);
  ~FrameStream();

  FrameStream(FrameStream&& other) noexcept;
  FrameStream& operator=(FrameStream&& other) noexcept;
  FrameStream(const FrameStream&) = delete;
  FrameStream& operator=(const FrameStream&) = delete;

  // Connects to a tcp: or unix: address.
  [[nodiscard]] static StatusOr<FrameStream> Dial(const Address& address,
                                                  int timeout_ms);

  bool connected() const { return fd_ >= 0; }

  // Writes one length-prefixed frame; loops over partial writes.
  [[nodiscard]] Status SendFrame(const Bytes& payload);

  // Reads one complete frame, waiting at most `timeout_ms` for the whole
  // message. DeadlineExceeded on timeout, FailedPrecondition on clean EOF,
  // InvalidArgument on an oversize length prefix, Internal on socket errors.
  [[nodiscard]] StatusOr<Bytes> RecvFrame(int timeout_ms);

  // Raw byte write, no framing — the fault-injection harness crafts its own
  // (possibly deliberately wrong) length prefixes.
  [[nodiscard]] Status SendRaw(const uint8_t* data, size_t size);

  // Half-close: tells the peer no more bytes are coming (SHUT_WR), while
  // replies can still be read. A torn write ends with this.
  void CloseWrite();
  void Close();

 private:
  [[nodiscard]] Status ReadExact(uint8_t* out, size_t size, int timeout_ms);

  int fd_ = -1;
};

}  // namespace dice::transport

#endif  // SRC_TRANSPORT_STREAM_H_
