// Big-endian byte buffer reader/writer used by the BGP wire codec.
//
// BGP (RFC 4271) is a network-byte-order protocol; ByteWriter/ByteReader give
// bounds-checked primitives for assembling and parsing messages. ByteReader
// reports truncation through Status rather than aborting, because parsing
// operates on untrusted (and, under DiCE exploration, adversarial) input.

#ifndef SRC_UTIL_BYTES_H_
#define SRC_UTIL_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace dice {

using Bytes = std::vector<uint8_t>;

// Appends big-endian integers and raw bytes to a growable buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) {
    buf_.push_back(static_cast<uint8_t>(v >> 8));
    buf_.push_back(static_cast<uint8_t>(v));
  }
  void PutU32(uint32_t v) {
    buf_.push_back(static_cast<uint8_t>(v >> 24));
    buf_.push_back(static_cast<uint8_t>(v >> 16));
    buf_.push_back(static_cast<uint8_t>(v >> 8));
    buf_.push_back(static_cast<uint8_t>(v));
  }
  void PutU64(uint64_t v) {
    PutU32(static_cast<uint32_t>(v >> 32));
    PutU32(static_cast<uint32_t>(v));
  }
  // LEB128-style varint: 7 value bits per byte, high bit = continuation.
  // Small values (delta timestamps, counts, table indices) cost one byte.
  void PutVarU64(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }
  void PutBytes(const uint8_t* data, size_t n) { buf_.insert(buf_.end(), data, data + n); }
  void PutBytes(const Bytes& data) { PutBytes(data.data(), data.size()); }
  void PutString(const std::string& s) {
    PutBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  // Makes room for `n` more bytes in one allocation, so a writer whose final
  // size is known up front never grows by doubling.
  void Reserve(size_t n) { buf_.reserve(buf_.size() + n); }

  // Overwrites 4 bytes at `offset` with `v` (for back-patching checksums).
  void PatchU32(size_t offset, uint32_t v) {
    DICE_CHECK_LE(offset + 4, buf_.size());
    buf_[offset] = static_cast<uint8_t>(v >> 24);
    buf_[offset + 1] = static_cast<uint8_t>(v >> 16);
    buf_[offset + 2] = static_cast<uint8_t>(v >> 8);
    buf_[offset + 3] = static_cast<uint8_t>(v);
  }
  // Overwrites 2 bytes at `offset` with `v` (for back-patching length fields).
  void PatchU16(size_t offset, uint16_t v) {
    DICE_CHECK_LE(offset + 2, buf_.size());
    buf_[offset] = static_cast<uint8_t>(v >> 8);
    buf_[offset + 1] = static_cast<uint8_t>(v);
  }
  void PatchU8(size_t offset, uint8_t v) {
    DICE_CHECK_LT(offset, buf_.size());
    buf_[offset] = v;
  }

  // Drops the first `n` bytes, keeping the capacity (for a writer that hands
  // its front to a sink and keeps filling the rest).
  void Discard(size_t n) {
    DICE_CHECK_LE(n, buf_.size());
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(n));
  }

  size_t size() const { return buf_.size(); }
  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

// Parses big-endian integers and raw bytes from a fixed buffer; all reads are
// bounds-checked and surface truncation as OUT_OF_RANGE.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const Bytes& data) : ByteReader(data.data(), data.size()) {}

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == size_; }

  [[nodiscard]] StatusOr<uint8_t> ReadU8() {
    if (remaining() < 1) {
      return Truncated("u8");
    }
    return data_[pos_++];
  }
  [[nodiscard]] StatusOr<uint16_t> ReadU16() {
    if (remaining() < 2) {
      return Truncated("u16");
    }
    uint16_t v = static_cast<uint16_t>(static_cast<uint16_t>(data_[pos_]) << 8 |
                                       static_cast<uint16_t>(data_[pos_ + 1]));
    pos_ += 2;
    return v;
  }
  [[nodiscard]] StatusOr<uint32_t> ReadU32() {
    if (remaining() < 4) {
      return Truncated("u32");
    }
    uint32_t v = (static_cast<uint32_t>(data_[pos_]) << 24) |
                 (static_cast<uint32_t>(data_[pos_ + 1]) << 16) |
                 (static_cast<uint32_t>(data_[pos_ + 2]) << 8) |
                 static_cast<uint32_t>(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }
  [[nodiscard]] StatusOr<uint64_t> ReadU64() {
    if (remaining() < 8) {
      return Truncated("u64");
    }
    uint64_t hi = ReadU32().value();
    uint64_t lo = ReadU32().value();
    return (hi << 32) | lo;
  }
  // Decodes a PutVarU64 value. Rejects truncation and non-canonical
  // encodings longer than 10 bytes (a 64-bit value never needs more).
  [[nodiscard]] StatusOr<uint64_t> ReadVarU64() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (remaining() < 1) {
        return Truncated("varint");
      }
      uint8_t byte = data_[pos_++];
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        // The final byte of a 10-byte varint has only one usable value bit.
        if (shift == 63 && byte > 1) {
          return OutOfRangeError("varint overflows 64 bits at offset " +
                                 std::to_string(pos_ - 1));
        }
        return v;
      }
    }
    return OutOfRangeError("varint longer than 10 bytes at offset " + std::to_string(pos_));
  }
  [[nodiscard]] StatusOr<Bytes> ReadBytes(size_t n) {
    if (remaining() < n) {
      return Truncated("bytes");
    }
    Bytes out(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return out;
  }
  [[nodiscard]] Status Skip(size_t n) {
    if (remaining() < n) {
      return Truncated("skip");
    }
    pos_ += n;
    return Status::Ok();
  }

 private:
  [[nodiscard]] Status Truncated(const char* what) const {
    return OutOfRangeError(std::string("truncated read of ") + what + " at offset " +
                           std::to_string(pos_) + " (size " + std::to_string(size_) + ")");
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Hex dump of a byte buffer, for diagnostics and golden tests.
std::string HexDump(const Bytes& data);

}  // namespace dice

#endif  // SRC_UTIL_BYTES_H_
