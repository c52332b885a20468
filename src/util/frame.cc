#include "src/util/frame.h"

#include "src/util/strings.h"

namespace dice {

namespace {

constexpr uint32_t kFnvOffsetBasis = 2166136261u;

// Where the checksum sits in the header: after the magic and the version.
constexpr size_t kChecksumOffset = 4 + 2;

}  // namespace

uint32_t BodyChecksum(const uint8_t* data, size_t size) {
  return ExtendChecksum(kFnvOffsetBasis, data, size);
}

uint32_t ExtendChecksum(uint32_t checksum, const uint8_t* data, size_t size) {
  uint32_t h = checksum;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

FrameWriter::FrameWriter(uint32_t magic, uint16_t version, size_t body_size) {
  writer_.Reserve(kFrameHeaderSize + body_size);
  writer_.PutU32(magic);
  writer_.PutU16(version);
  writer_.PutU32(0);  // patched by Finish
}

Bytes FrameWriter::Finish() {
  const Bytes& bytes = writer_.bytes();
  writer_.PatchU32(kChecksumOffset, BodyChecksum(bytes.data() + kFrameHeaderSize,
                                                 bytes.size() - kFrameHeaderSize));
  return writer_.Take();
}

Bytes FrameMessage(uint32_t magic, uint16_t version, const Bytes& body) {
  FrameWriter frame(magic, version, body.size());
  frame.body().PutBytes(body);
  return frame.Finish();
}

StatusOr<ByteReader> OpenFrame(const uint8_t* data, size_t size, uint32_t expected_magic,
                               uint16_t expected_version, const char* what) {
  if (size < kFrameHeaderSize) {
    return InvalidArgumentError(
        StrFormat("%s: buffer shorter than frame header (%zu bytes)", what, size));
  }
  ByteReader r(data, size);
  uint32_t magic = r.ReadU32().value();
  if (magic != expected_magic) {
    return InvalidArgumentError(StrFormat("%s: bad magic 0x%08x", what, magic));
  }
  uint16_t version = r.ReadU16().value();
  if (version != expected_version) {
    return InvalidArgumentError(StrFormat("%s: unsupported wire version %u (want %u)", what,
                                          version, expected_version));
  }
  uint32_t checksum = r.ReadU32().value();
  uint32_t actual = BodyChecksum(data + kFrameHeaderSize, size - kFrameHeaderSize);
  if (checksum != actual) {
    return InvalidArgumentError(
        StrFormat("%s: checksum mismatch (frame 0x%08x, body 0x%08x)", what, checksum, actual));
  }
  return r;
}

}  // namespace dice
