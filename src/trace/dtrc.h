// .dtrc — the compact binary trace format.
//
// The text format (trace.h) is greppable but costs ~40 bytes per route and
// re-parses every attribute per event; corpus-scale work (million-route table
// dumps, long update streams) wants the same trick the router itself uses:
// intern the attribute sets once and let every event reference its set by
// index. A full dump whose million routes share a few thousand distinct paths
// stores each path exactly once.
//
// Layout (one util::frame, magic "DTRC" | u16 version | FNV-1a body checksum):
//
//   body  := attr_table event_count:u64 event*
//   attr_table := count:u32 (hash:u64 attrs)*          (bgp::AttrTable codec)
//   event := attr_index:varint delta_time:varint
//            withdrawn_count:varint prefix*
//            nlri_count:varint prefix*
//
// Timestamps are delta-encoded (varint of at - previous at), so the writer
// rejects out-of-order events; prefixes use the NLRI encoding of
// src/bgp/wire.h. Every attribute record carries its structural hash,
// re-verified on load — the same double tripwire as the PR 7 snapshots.
//
// Versioning: readers refuse any version other than kTraceFormatVersion
// (via util::OpenFrame); adding fields means bumping the version, never
// reinterpreting existing bytes. Truncation, bit flips, version skew, and
// trailing garbage all surface as a Status, never a crash or a silently
// wrong Trace.

#ifndef SRC_TRACE_DTRC_H_
#define SRC_TRACE_DTRC_H_

#include <functional>
#include <string>
#include <vector>

#include "src/bgp/attr_codec.h"
#include "src/trace/trace.h"
#include "src/util/bytes.h"
#include "src/util/frame.h"
#include "src/util/status.h"

namespace dice::trace {

constexpr uint32_t kTraceFormatMagic = 0x44545243;  // "DTRC"
constexpr uint16_t kTraceFormatVersion = 1;

// True if `bytes` starts with the .dtrc frame magic — the sniff dice_cli and
// dice_trace use to accept either format through one --trace flag.
bool LooksLikeBinaryTrace(const Bytes& bytes);

// Streaming writer: Append events in time order, then Finish once.
class TraceWriter {
 public:
  // Rejects events whose timestamp precedes the previous event's (the delta
  // encoding — and every replayer — requires time order).
  [[nodiscard]] Status Append(const TraceEvent& event);

  uint64_t event_count() const { return event_count_; }
  size_t attr_count() const { return table_.size(); }

  // The size of the file Finish writes for the events appended so far.
  size_t SerializedSize() const;

  // Streams the complete framed file into `sink`, one chunk at a time. The
  // writer stays usable (more Appends produce a longer trace on the next
  // Finish).
  [[nodiscard]] Status Finish(ByteSink& sink) const;
  // The same file in memory, in one allocation of its exact size.
  Bytes Finish() const;

 private:
  bgp::AttrTable table_;
  ByteWriter events_;
  uint64_t event_count_ = 0;
  net::SimTime last_at_ = 0;
};

// Streaming reader: Open validates the frame and attribute table, Next
// decodes one event at a time. Any malformation — truncation, a bad
// reference, trailing bytes after the last event — is a Status.
class TraceReader {
 public:
  // Reads the frame at data[0, size) in place; the bytes must outlive the
  // reader.
  [[nodiscard]] static StatusOr<TraceReader> Open(const uint8_t* data, size_t size);

  uint64_t event_count() const { return event_count_; }
  size_t attr_count() const { return attrs_.size(); }
  bool Done() const { return next_ == event_count_; }

  // Decodes the next event; the final event also rejects trailing garbage.
  [[nodiscard]] StatusOr<TraceEvent> Next();

 private:
  TraceReader() : reader_(nullptr, 0) {}

  ByteReader reader_;
  std::vector<bgp::InternedAttrs> attrs_;
  uint64_t event_count_ = 0;
  uint64_t next_ = 0;
  net::SimTime at_ = 0;
};

// Hands every event of a trace file's `content` to `visit`, in order,
// without building a Trace: a .dtrc frame (sniffed by magic) is decoded one
// event at a time straight out of `content`, anything else goes through the
// text parser. `content` is freed before the call returns. A decode error
// stops the stream after the events before it were visited, so a caller that
// builds state from them must discard that state on error.
[[nodiscard]] Status StreamTrace(Bytes content,
                                 const std::function<void(const TraceEvent&)>& visit);

// The identity of a router's table source, which persist::StateFingerprint
// hashes so that a router-state snapshot only reloads under the source that
// produced it:
//   - a .dtrc corpus (`trace_path` names a file that starts with the frame
//     magic): its 10-byte frame header — magic, version and the FNV-1a
//     checksum of the body, which stands for the body. Only the header is
//     read. A body edited under an unchanged header therefore keeps its
//     identity, but every decode verifies the body against the header.
//   - a text trace: all of its bytes.
//   - the synthetic table (`trace_path` empty): its description, the
//     generator's seed and prefix count from `synthetic`.
[[nodiscard]] StatusOr<Bytes> TableSourceIdentity(const std::string& trace_path,
                                                  const TraceGeneratorOptions& synthetic);

// Whole-trace conveniences over the streaming pair.
[[nodiscard]] StatusOr<Bytes> SerializeTraceBinary(const Trace& trace);
[[nodiscard]] StatusOr<Trace> ParseTraceBinary(const Bytes& bytes);

// Loads a trace from raw file content, sniffing the format: .dtrc frames go
// through TraceReader, anything else through the text parser.
[[nodiscard]] StatusOr<Trace> ParseTraceAuto(const std::string& content);

}  // namespace dice::trace

#endif  // SRC_TRACE_DTRC_H_
