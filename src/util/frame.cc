#include "src/util/frame.h"

#include <algorithm>
#include <cstring>

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

Status BytesSink::Append(const uint8_t* data, size_t size) {
  bytes_.insert(bytes_.end(), data, data + size);
  return Status::Ok();
}

Status BytesSink::WriteAt(uint64_t offset, const uint8_t* data, size_t size) {
  if (offset > bytes_.size() || size > bytes_.size() - offset) {
    return OutOfRangeError(StrFormat("write of %zu bytes at %llu past the end (%zu bytes)",
                                     size, static_cast<unsigned long long>(offset),
                                     bytes_.size()));
  }
  std::memcpy(bytes_.data() + offset, data, size);
  return Status::Ok();
}

FrameWriter::FrameWriter(ByteSink& sink, uint32_t magic, uint16_t version)
    : sink_(sink), checksum_(BodyChecksum(nullptr, 0)) {
  // A chunk plus room for the record that crosses its end.
  buffer_.Reserve(kChunkSize + kChunkSize / 8);
  buffer_.PutU32(magic);
  buffer_.PutU16(version);
  buffer_.PutU32(0);  // written by Finish
}

Status FrameWriter::Emit(size_t n) {
  const uint8_t* data = buffer_.bytes().data();
  // The checksum covers the body only: skip what is left of the header.
  const size_t header = emitted_ < kFrameHeaderSize
                            ? std::min(n, static_cast<size_t>(kFrameHeaderSize - emitted_))
                            : 0;
  checksum_ = ExtendChecksum(checksum_, data + header, n - header);
  DICE_RETURN_IF_ERROR(sink_.Append(data, n));
  emitted_ += n;
  buffer_.Discard(n);
  return Status::Ok();
}

Status FrameWriter::Drain() {
  while (buffer_.size() >= kChunkSize) {
    DICE_RETURN_IF_ERROR(Emit(kChunkSize));
  }
  return Status::Ok();
}

Status FrameWriter::Append(const uint8_t* data, size_t size) {
  while (size > 0) {
    const size_t n = std::min(size, kChunkSize - buffer_.size() % kChunkSize);
    buffer_.PutBytes(data, n);
    DICE_RETURN_IF_ERROR(Drain());
    data += n;
    size -= n;
  }
  return Status::Ok();
}

Status FrameWriter::Finish() {
  DICE_RETURN_IF_ERROR(Drain());
  if (buffer_.size() > 0) {
    DICE_RETURN_IF_ERROR(Emit(buffer_.size()));
  }
  const uint8_t checksum[4] = {
      static_cast<uint8_t>(checksum_ >> 24), static_cast<uint8_t>(checksum_ >> 16),
      static_cast<uint8_t>(checksum_ >> 8), static_cast<uint8_t>(checksum_)};
  return sink_.WriteAt(kChecksumOffset, checksum, sizeof(checksum));
}

Bytes FrameMessage(uint32_t magic, uint16_t version, const Bytes& body) {
  ByteWriter frame;
  frame.Reserve(kFrameHeaderSize + body.size());
  frame.PutU32(magic);
  frame.PutU16(version);
  frame.PutU32(BodyChecksum(body.data(), body.size()));
  frame.PutBytes(body);
  return frame.Take();
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
