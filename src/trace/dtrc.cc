#include "src/trace/dtrc.h"

#include <utility>

#include "src/bgp/wire.h"
#include "src/util/frame.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace dice::trace {

namespace {

constexpr char kWhat[] = "dtrc trace";

bool HasTraceMagic(const uint8_t* data, size_t size) {
  return size >= 4 && ((static_cast<uint32_t>(data[0]) << 24) |
                       (static_cast<uint32_t>(data[1]) << 16) |
                       (static_cast<uint32_t>(data[2]) << 8) |
                       static_cast<uint32_t>(data[3])) == kTraceFormatMagic;
}

StatusOr<Trace> ParseBinary(const uint8_t* data, size_t size) {
  DICE_ASSIGN_OR_RETURN(TraceReader reader, TraceReader::Open(data, size));
  Trace trace;
  trace.events.reserve(reader.event_count());
  while (!reader.Done()) {
    DICE_ASSIGN_OR_RETURN(TraceEvent event, reader.Next());
    trace.events.push_back(std::move(event));
  }
  return trace;
}

}  // namespace

bool LooksLikeBinaryTrace(const Bytes& bytes) {
  return HasTraceMagic(bytes.data(), bytes.size());
}

Status TraceWriter::Append(const TraceEvent& event) {
  if (event.at < last_at_) {
    return InvalidArgumentError(StrFormat(
        "dtrc trace: event %llu time %llu precedes previous event time %llu",
        static_cast<unsigned long long>(event_count_),
        static_cast<unsigned long long>(event.at),
        static_cast<unsigned long long>(last_at_)));
  }
  events_.PutVarU64(table_.IndexOf(bgp::InternedAttrs(event.update.attrs)));
  events_.PutVarU64(event.at - last_at_);
  events_.PutVarU64(event.update.withdrawn.size());
  for (const bgp::Prefix& prefix : event.update.withdrawn) {
    bgp::EncodePrefix(events_, prefix);
  }
  events_.PutVarU64(event.update.nlri.size());
  for (const bgp::Prefix& prefix : event.update.nlri) {
    bgp::EncodePrefix(events_, prefix);
  }
  last_at_ = event.at;
  ++event_count_;
  return Status::Ok();
}

Status TraceWriter::Finish(ByteSink& sink) const {
  FrameWriter frame(sink, kTraceFormatMagic, kTraceFormatVersion);
  DICE_RETURN_IF_ERROR(table_.Serialize(frame));
  frame.body().PutU64(event_count_);
  DICE_RETURN_IF_ERROR(frame.Append(events_.bytes().data(), events_.size()));
  return frame.Finish();
}

size_t TraceWriter::SerializedSize() const {
  return kFrameHeaderSize + table_.SerializedSize() + 8 + events_.size();
}

Bytes TraceWriter::Finish() const {
  BytesSink sink(SerializedSize());
  const Status written = Finish(sink);
  DICE_CHECK(written.ok()) << written.ToString();  // memory does not fail
  return sink.Take();
}

StatusOr<TraceReader> TraceReader::Open(const uint8_t* data, size_t size) {
  TraceReader out;
  DICE_ASSIGN_OR_RETURN(out.reader_,
                        OpenFrame(data, size, kTraceFormatMagic, kTraceFormatVersion, kWhat));
  DICE_RETURN_IF_ERROR(bgp::LoadAttrTable(out.reader_, kWhat, out.attrs_));
  DICE_ASSIGN_OR_RETURN(out.event_count_, out.reader_.ReadU64());
  // An event costs at least an attr index, a delta, and two zero counts.
  if (out.event_count_ > out.reader_.remaining() / 4) {
    return InvalidArgumentError(
        StrFormat("%s: event count %llu exceeds buffer capacity", kWhat,
                  static_cast<unsigned long long>(out.event_count_)));
  }
  if (out.event_count_ == 0 && !out.reader_.AtEnd()) {
    return InvalidArgumentError(StrFormat("%s: %zu trailing bytes after empty event list",
                                          kWhat, out.reader_.remaining()));
  }
  return out;
}

StatusOr<TraceEvent> TraceReader::Next() {
  if (Done()) {
    return FailedPreconditionError(
        StrFormat("%s: Next() past the last event", kWhat));
  }
  TraceEvent event;
  // Varint index, unlike the snapshot format's fixed u32: most traces have
  // few distinct attr sets, so the common index fits one byte.
  DICE_ASSIGN_OR_RETURN(uint64_t attr_idx, reader_.ReadVarU64());
  if (attr_idx >= attrs_.size()) {
    return InvalidArgumentError(
        StrFormat("%s: attribute reference %llu out of range (%zu)", kWhat,
                  static_cast<unsigned long long>(attr_idx), attrs_.size()));
  }
  event.update.attrs = attrs_[attr_idx].get();
  DICE_ASSIGN_OR_RETURN(uint64_t delta, reader_.ReadVarU64());
  at_ += delta;
  event.at = at_;
  DICE_ASSIGN_OR_RETURN(uint64_t withdrawn_count, reader_.ReadVarU64());
  // Each encoded prefix costs at least its length octet.
  if (withdrawn_count > reader_.remaining()) {
    return InvalidArgumentError(
        StrFormat("%s: withdrawn count %llu exceeds buffer capacity", kWhat,
                  static_cast<unsigned long long>(withdrawn_count)));
  }
  event.update.withdrawn.reserve(withdrawn_count);
  for (uint64_t i = 0; i < withdrawn_count; ++i) {
    DICE_ASSIGN_OR_RETURN(bgp::Prefix prefix, bgp::DecodePrefix(reader_));
    event.update.withdrawn.push_back(prefix);
  }
  DICE_ASSIGN_OR_RETURN(uint64_t nlri_count, reader_.ReadVarU64());
  if (nlri_count > reader_.remaining()) {
    return InvalidArgumentError(
        StrFormat("%s: NLRI count %llu exceeds buffer capacity", kWhat,
                  static_cast<unsigned long long>(nlri_count)));
  }
  event.update.nlri.reserve(nlri_count);
  for (uint64_t i = 0; i < nlri_count; ++i) {
    DICE_ASSIGN_OR_RETURN(bgp::Prefix prefix, bgp::DecodePrefix(reader_));
    event.update.nlri.push_back(prefix);
  }
  ++next_;
  if (Done() && !reader_.AtEnd()) {
    return InvalidArgumentError(StrFormat("%s: %zu trailing bytes after last event", kWhat,
                                          reader_.remaining()));
  }
  return event;
}

Status StreamTrace(Bytes content, const std::function<void(const TraceEvent&)>& visit) {
  if (!LooksLikeBinaryTrace(content)) {
    std::string text(content.begin(), content.end());
    Bytes().swap(content);
    DICE_ASSIGN_OR_RETURN(Trace trace, ParseTrace(text));
    for (const TraceEvent& event : trace.events) {
      visit(event);
    }
    return Status::Ok();
  }
  DICE_ASSIGN_OR_RETURN(TraceReader reader, TraceReader::Open(content.data(), content.size()));
  while (!reader.Done()) {
    DICE_ASSIGN_OR_RETURN(TraceEvent event, reader.Next());
    visit(event);
  }
  return Status::Ok();
}

StatusOr<Bytes> SerializeTraceBinary(const Trace& trace) {
  TraceWriter writer;
  for (const TraceEvent& event : trace.events) {
    DICE_RETURN_IF_ERROR(writer.Append(event));
  }
  return writer.Finish();
}

StatusOr<Trace> ParseTraceBinary(const Bytes& bytes) {
  return ParseBinary(bytes.data(), bytes.size());
}

StatusOr<Trace> ParseTraceAuto(const std::string& content) {
  const auto* data = reinterpret_cast<const uint8_t*>(content.data());
  if (HasTraceMagic(data, content.size())) {
    return ParseBinary(data, content.size());
  }
  return ParseTrace(content);
}

}  // namespace dice::trace
