// Framed byte container shared by the federated wire format (PR 4) and the
// on-disk snapshot format: u32 magic | u16 version | u32 FNV-1a checksum of
// the body | body. The frame makes every serialized artifact
// self-identifying (magic), refusable (version), and end-to-end checked
// (checksum), so truncation, version skew, and bit flips all surface as a
// Status error from OpenFrame instead of a plausible-but-wrong parse.

#ifndef SRC_UTIL_FRAME_H_
#define SRC_UTIL_FRAME_H_

#include <cstddef>
#include <cstdint>

#include "src/util/bytes.h"
#include "src/util/status.h"

namespace dice {

// Frame layout: u32 magic | u16 version | u32 checksum(body) | body.
constexpr size_t kFrameHeaderSize = 4 + 2 + 4;

// FNV-1a over the body: cheap end-to-end corruption detection, so a flipped
// bit anywhere in a frame surfaces as a Status error instead of a plausible
// but wrong value (or a crash further down the parser).
uint32_t BodyChecksum(const uint8_t* data, size_t size);

// Continues a BodyChecksum over more bytes: the checksum of a concatenation
// is ExtendChecksum(BodyChecksum(first), second), so a checksum over several
// buffers never needs them joined into one.
uint32_t ExtendChecksum(uint32_t checksum, const uint8_t* data, size_t size);

// Builds a frame in one buffer: the header goes in first with a placeholder
// checksum, the caller appends the body through body(), and Finish() patches
// the checksum in place. Constructed with the exact body size, the frame is
// one allocation and its body is never copied.
class FrameWriter {
 public:
  FrameWriter(uint32_t magic, uint16_t version, size_t body_size);

  // Appends land after the header.
  ByteWriter& body() { return writer_; }

  // The complete frame; leaves the writer empty.
  Bytes Finish();

 private:
  ByteWriter writer_;
};

// Frames `body`: magic, version, FNV-1a checksum of the body, the body.
Bytes FrameMessage(uint32_t magic, uint16_t version, const Bytes& body);

// Validates magic, version, and checksum, and returns a reader positioned at
// the body. `what` names the message kind in error text. The reader points
// into the caller's bytes.
[[nodiscard]] StatusOr<ByteReader> OpenFrame(const uint8_t* data, size_t size,
                                             uint32_t expected_magic,
                                             uint16_t expected_version,
                                             const char* what);
[[nodiscard]] inline StatusOr<ByteReader> OpenFrame(const Bytes& bytes,
                                                    uint32_t expected_magic,
                                                    uint16_t expected_version,
                                                    const char* what) {
  return OpenFrame(bytes.data(), bytes.size(), expected_magic, expected_version, what);
}

}  // namespace dice

#endif  // SRC_UTIL_FRAME_H_
