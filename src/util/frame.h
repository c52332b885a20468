// Framed byte container shared by the federated wire format (PR 4) and the
// on-disk snapshot format: u32 magic | u16 version | u32 FNV-1a checksum of
// the body | body. The frame makes every serialized artifact
// self-identifying (magic), refusable (version), and end-to-end checked
// (checksum), so truncation, version skew, and bit flips all surface as a
// Status error from OpenFrame instead of a plausible-but-wrong parse.
//
// Large frames (router-state snapshots, .dtrc corpora) are streamed: a
// FrameWriter buffers one 64 KiB chunk of the frame at a time and hands each
// whole chunk to a ByteSink — a file being written, or memory — so the
// frame never exists whole in the writer. The checksum is extended chunk by
// chunk and written into the header last, with ByteSink::WriteAt.

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

// Where a FrameWriter puts a frame: bytes are appended in order, and WriteAt
// overwrites bytes already appended (the header's checksum, once the body is
// done). persist::WritableFile is the file-backed sink.
class ByteSink {
 public:
  virtual ~ByteSink() = default;
  [[nodiscard]] virtual Status Append(const uint8_t* data, size_t size) = 0;
  [[nodiscard]] virtual Status WriteAt(uint64_t offset, const uint8_t* data, size_t size) = 0;
};

// A ByteSink over one buffer in memory. Constructed with the exact final
// size, the buffer is one allocation that never grows.
class BytesSink final : public ByteSink {
 public:
  explicit BytesSink(size_t reserve = 0) { bytes_.reserve(reserve); }

  [[nodiscard]] Status Append(const uint8_t* data, size_t size) override;
  [[nodiscard]] Status WriteAt(uint64_t offset, const uint8_t* data, size_t size) override;

  // The bytes written; leaves the sink empty.
  Bytes Take() { return std::move(bytes_); }

 private:
  Bytes bytes_;
};

// Streams one frame into a sink. The header goes out first with a
// placeholder checksum; the caller appends the body through body() and calls
// Drain() between records, which hands every whole chunk to the sink and
// extends the checksum over it, so the buffer never holds more than one chunk
// and one record. Finish() writes the rest and then the checksum, in place.
class FrameWriter {
 public:
  // Every Append the sink sees is exactly this long, except the last.
  static constexpr size_t kChunkSize = 64 * 1024;

  FrameWriter(ByteSink& sink, uint32_t magic, uint16_t version);

  // Appends land in the buffer, after what was appended before.
  ByteWriter& body() { return buffer_; }

  // Hands each whole chunk in the buffer to the sink.
  [[nodiscard]] Status Drain();

  // Appends a blob of any size without buffering more than a chunk of it.
  [[nodiscard]] Status Append(const uint8_t* data, size_t size);

  // Writes what is buffered, then the checksum into the header. The frame is
  // complete in the sink once this returns Ok.
  [[nodiscard]] Status Finish();

 private:
  // Hands the first `n` buffered bytes to the sink.
  [[nodiscard]] Status Emit(size_t n);

  ByteSink& sink_;
  ByteWriter buffer_;
  uint64_t emitted_ = 0;  // bytes of the frame already in the sink
  uint32_t checksum_;     // of the body bytes emitted so far
};

// Frames `body`: magic, version, FNV-1a checksum of the body, the body, in
// one allocation of the exact size.
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
