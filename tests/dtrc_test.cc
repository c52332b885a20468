// Tests for the .dtrc binary trace format (src/trace/dtrc.h): exact
// round-trips against the text format, attr-set interning, streaming, and the
// same adversarial discipline as persist_snapshot_test — truncation at every
// length, every single-bit flip, version skew, magic confusion, trailing
// garbage, and bad attribute references must all surface as a Status, never
// a crash or a silently wrong Trace — and, run through dice_cli, never as a
// snapshot of a half-loaded table.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <string>
#include <vector>

#include "src/bgp/attr_codec.h"
#include "src/bgp/attr_intern.h"
#include "src/bgp/wire.h"
#include "src/trace/dtrc.h"
#include "src/trace/trace.h"
#include "src/util/frame.h"

namespace dice::trace {
namespace {

bgp::Prefix P(const char* s) { return *bgp::Prefix::Parse(s); }

TraceGeneratorOptions SmallOptions(uint64_t seed = 1) {
  TraceGeneratorOptions options;
  options.seed = seed;
  options.prefix_count = 400;
  options.as_count = 50;
  options.update_duration = 30 * net::kSecond;
  options.updates_per_second = 2.0;
  return options;
}

Trace CorpusTrace(uint64_t seed = 1) {
  TraceGenerator gen(SmallOptions(seed));
  Trace trace = gen.FullDump();
  Trace updates = gen.UpdateTrace();
  trace.events.insert(trace.events.end(), updates.events.begin(), updates.events.end());
  return trace;
}

TraceEvent RichEvent(net::SimTime at) {
  TraceEvent ev;
  ev.at = at;
  ev.update.attrs.as_path = bgp::AsPath({{bgp::AsSegmentType::kAsSequence, {65000, 9}},
                                         {bgp::AsSegmentType::kAsSet, {11, 12}}});
  ev.update.attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.9");
  ev.update.attrs.origin = bgp::Origin::kIgp;
  ev.update.attrs.med = 50;
  ev.update.attrs.local_pref = 200;
  ev.update.attrs.atomic_aggregate = true;
  ev.update.attrs.aggregator = bgp::Aggregator{9, *bgp::Ipv4Address::Parse("192.0.2.1")};
  ev.update.attrs.communities = {(65000u << 16) | 666u};
  ev.update.attrs.unknown.push_back(bgp::UnknownAttribute{0xc0, 32, {1, 2, 3}});
  ev.update.withdrawn.push_back(P("192.0.2.0/24"));
  ev.update.nlri.push_back(P("198.51.100.0/24"));
  return ev;
}

TEST(DtrcTest, EmptyTraceRoundTrips) {
  auto bytes = SerializeTraceBinary(Trace{});
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto parsed = ParseTraceBinary(*bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->events.empty());
}

TEST(DtrcTest, RichEventRoundTripsExactly) {
  Trace trace;
  trace.events.push_back(RichEvent(7));
  trace.events.push_back(RichEvent(7));    // same time is legal (delta 0)
  trace.events.push_back(RichEvent(123));
  auto bytes = SerializeTraceBinary(trace);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto parsed = ParseTraceBinary(*bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->events.size(), 3u);
  for (size_t i = 0; i < trace.events.size(); ++i) {
    EXPECT_EQ(parsed->events[i], trace.events[i]) << "event " << i;
  }
}

TEST(DtrcTest, GeneratedCorpusRoundTripsExactly) {
  Trace trace = CorpusTrace();
  auto bytes = SerializeTraceBinary(trace);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto parsed = ParseTraceBinary(*bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->events.size(), trace.events.size());
  for (size_t i = 0; i < trace.events.size(); ++i) {
    ASSERT_EQ(parsed->events[i], trace.events[i]) << "event " << i;
  }
}

// Text -> binary -> text fidelity: both serializations describe the same
// events, so a corpus can move between formats without changing a verdict.
TEST(DtrcTest, TextAndBinaryAgreeOnGeneratedCorpus) {
  Trace trace = CorpusTrace(3);
  auto from_text = ParseTrace(SerializeTrace(trace));
  ASSERT_TRUE(from_text.ok()) << from_text.status();
  auto bytes = SerializeTraceBinary(trace);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto from_binary = ParseTraceBinary(*bytes);
  ASSERT_TRUE(from_binary.ok()) << from_binary.status();
  ASSERT_EQ(from_text->events.size(), from_binary->events.size());
  for (size_t i = 0; i < from_text->events.size(); ++i) {
    ASSERT_EQ(from_text->events[i], from_binary->events[i]) << "event " << i;
  }
}

TEST(DtrcTest, InterningStoresEachDistinctAttrSetOnce) {
  // 1000 events sharing one attribute set: the table must hold exactly one
  // entry, and the file must undercut the text rendering by a wide margin.
  TraceWriter writer;
  TraceEvent ev = RichEvent(0);
  Trace trace;
  for (int i = 0; i < 1000; ++i) {
    ev.at = i;
    ASSERT_TRUE(writer.Append(ev).ok());
    trace.events.push_back(ev);
  }
  EXPECT_EQ(writer.attr_count(), 1u);
  EXPECT_EQ(writer.event_count(), 1000u);
  Bytes bytes = writer.Finish();
  // RichEvent sets every optional attribute field, so this also checks the
  // table's size accounting against what it encodes: one exact allocation.
  EXPECT_EQ(bytes.capacity(), bytes.size());
  EXPECT_LT(bytes.size(), SerializeTrace(trace).size() / 3);
  auto parsed = ParseTraceBinary(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->events.size(), 1000u);
  EXPECT_EQ(parsed->events.back(), trace.events.back());
}

TEST(DtrcTest, WriterRejectsOutOfOrderEvents) {
  TraceWriter writer;
  ASSERT_TRUE(writer.Append(RichEvent(100)).ok());
  Status out_of_order = writer.Append(RichEvent(99));
  EXPECT_FALSE(out_of_order.ok());
  EXPECT_EQ(out_of_order.code(), StatusCode::kInvalidArgument);
}

TEST(DtrcTest, ReaderStreamsAndStopsAtEnd) {
  Trace trace = CorpusTrace(9);
  auto bytes = SerializeTraceBinary(trace);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto reader = TraceReader::Open(bytes->data(), bytes->size());
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->event_count(), trace.events.size());
  size_t i = 0;
  while (!reader->Done()) {
    auto event = reader->Next();
    ASSERT_TRUE(event.ok()) << event.status();
    ASSERT_EQ(*event, trace.events[i]) << "event " << i;
    ++i;
  }
  EXPECT_EQ(i, trace.events.size());
  EXPECT_FALSE(reader->Next().ok()) << "Next past the end must be an error";
}

TEST(DtrcTest, AutoSniffPicksTheRightParser) {
  Trace trace = CorpusTrace(2);
  auto bytes = SerializeTraceBinary(trace);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  EXPECT_TRUE(LooksLikeBinaryTrace(*bytes));
  std::string binary_content(bytes->begin(), bytes->end());
  auto from_binary = ParseTraceAuto(binary_content);
  ASSERT_TRUE(from_binary.ok()) << from_binary.status();
  EXPECT_EQ(from_binary->events.size(), trace.events.size());
  auto from_text = ParseTraceAuto(SerializeTrace(trace));
  ASSERT_TRUE(from_text.ok()) << from_text.status();
  EXPECT_EQ(from_text->events.size(), trace.events.size());
}

TEST(DtrcTest, StreamTraceVisitsEveryEventOfEitherFormat) {
  Trace trace = CorpusTrace(4);
  auto binary = SerializeTraceBinary(trace);
  ASSERT_TRUE(binary.ok()) << binary.status();
  const std::string text = SerializeTrace(trace);
  for (Bytes content : {*binary, Bytes(text.begin(), text.end())}) {
    std::vector<TraceEvent> seen;
    Status streamed =
        StreamTrace(std::move(content), [&](const TraceEvent& ev) { seen.push_back(ev); });
    ASSERT_TRUE(streamed.ok()) << streamed;
    EXPECT_EQ(seen, trace.events);
  }
}

// --- adversarial bytes ------------------------------------------------------

// A checksum-valid .dtrc frame: `table`, then whatever `rest` writes.
Bytes DtrcFrame(const bgp::AttrTable& table, const std::function<void(ByteWriter&)>& rest) {
  BytesSink sink;
  FrameWriter frame(sink, kTraceFormatMagic, kTraceFormatVersion);
  EXPECT_TRUE(table.Serialize(frame).ok());
  rest(frame.body());
  EXPECT_TRUE(frame.Finish().ok());
  return sink.Take();
}

// A checksum-valid two-event frame whose second event references attribute
// index 1 while the table holds one entry: only the reader's range check
// catches it, after the first event has been decoded.
Bytes BadSecondEventCorpus() {
  bgp::AttrTable table;
  EXPECT_EQ(table.IndexOf(bgp::InternedAttrs(RichEvent(0).update.attrs)), 0u);
  return DtrcFrame(table, [](ByteWriter& body) {
    body.PutU64(2);     // two events
    body.PutVarU64(0);  // event 0: attr index in range
    body.PutVarU64(1);  // delta time
    body.PutVarU64(0);  // withdrawn count
    body.PutVarU64(1);  // nlri count
    bgp::EncodePrefix(body, P("198.51.100.0/24"));
    body.PutVarU64(1);  // event 1: attr index out of range
    body.PutVarU64(0);
    body.PutVarU64(0);
    body.PutVarU64(0);
  });
}

class DtrcCorruption : public ::testing::Test {
 protected:
  DtrcCorruption() {
    Trace trace;
    trace.events.push_back(RichEvent(1));
    trace.events.push_back(RichEvent(50));
    bytes_ = *SerializeTraceBinary(trace);
  }

  static bool Loads(const Bytes& bytes) { return ParseTraceBinary(bytes).ok(); }

  Bytes bytes_;
};

TEST_F(DtrcCorruption, EveryTruncationIsAnError) {
  for (size_t len = 0; len < bytes_.size(); ++len) {
    Bytes truncated(bytes_.begin(), bytes_.begin() + len);
    EXPECT_FALSE(Loads(truncated)) << "length " << len << " parsed";
  }
}

TEST_F(DtrcCorruption, EverySingleBitFlipIsAnError) {
  for (size_t byte = 0; byte < bytes_.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = bytes_;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_FALSE(Loads(flipped)) << "bit " << bit << " of byte " << byte << " parsed";
    }
  }
}

TEST_F(DtrcCorruption, VersionSkewMagicConfusionAndTrailingGarbage) {
  // A future version must be rejected, not misread.
  Bytes body(bytes_.begin() + kFrameHeaderSize, bytes_.end());
  EXPECT_FALSE(Loads(FrameMessage(kTraceFormatMagic, kTraceFormatVersion + 1, body)));
  // A different magic (here: a snapshot-looking one) must be rejected.
  EXPECT_FALSE(Loads(FrameMessage(kTraceFormatMagic + 1, kTraceFormatVersion, body)));
  // Bytes appended after the frame land inside the checksummed body.
  Bytes trailing = bytes_;
  trailing.push_back(0);
  EXPECT_FALSE(Loads(trailing));
}

TEST_F(DtrcCorruption, OutOfRangeAttrReferenceIsAnError) {
  // Hand-build a frame whose one event references attribute index 1 while
  // the table holds a single entry — a reference the frame checksum cannot
  // catch, only the reader's range check.
  bgp::AttrTable table;
  bgp::PathAttributes attrs = RichEvent(0).update.attrs;
  ASSERT_EQ(table.IndexOf(bgp::InternedAttrs(attrs)), 0u);
  auto parsed = ParseTraceBinary(DtrcFrame(table, [](ByteWriter& body) {
    body.PutU64(1);     // one event
    body.PutVarU64(1);  // attr index out of range
    body.PutVarU64(0);  // delta time
    body.PutVarU64(0);  // withdrawn count
    body.PutVarU64(0);  // nlri count
  }));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DtrcCorruption, StreamStopsAtABadEventAfterVisitingTheOnesBefore) {
  size_t visited = 0;
  Status streamed = StreamTrace(BadSecondEventCorpus(), [&](const TraceEvent&) { ++visited; });
  EXPECT_EQ(streamed.code(), StatusCode::kInvalidArgument) << streamed;
  EXPECT_EQ(visited, 1u);
}

// Runs the built dice_cli with `args` (stderr folded into the output).
struct CliRun {
  int exit_code = -1;
  std::string output;
};
CliRun RunCli(const std::string& args) {
  CliRun run;
  const std::string command = std::string(DICE_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return run;
  }
  char buf[4096];
  for (size_t n; (n = fread(buf, 1, sizeof(buf), pipe)) > 0;) {
    run.output.append(buf, n);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

// dice_cli streams the corpus into the RIB, so the RIB has started filling
// when the bad event surfaces: the run must exit 1 with the reader's error
// and leave no router-state snapshot of the partial table behind.
TEST_F(DtrcCorruption, DiceCliSavesNoStateFromABadCorpus) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "dice_dtrc_bad_corpus";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::filesystem::path corpus = dir / "bad.dtrc";
  const Bytes bytes = BadSecondEventCorpus();
  {
    std::ofstream out(corpus, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }
  const std::filesystem::path state_dir = dir / "state";
  const CliRun run = RunCli("--config=" DICE_TESTDATA_DIR "/provider.conf --trace=" +
                            corpus.string() + " --state_dir=" + state_dir.string());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("trace error: INVALID_ARGUMENT: dtrc trace: attribute reference 1 "
                            "out of range (1)"),
            std::string::npos)
      << run.output;
  if (std::filesystem::exists(state_dir)) {
    for (const auto& entry : std::filesystem::directory_iterator(state_dir)) {
      EXPECT_NE(entry.path().filename().string().rfind("router_state.", 0), 0u)
          << "snapshot left behind: " << entry.path();
    }
  }
  std::filesystem::remove_all(dir);
}

// A warm restart frees the corpus once it is fingerprinted, before it reads
// the snapshot. When no generation loads — here the --inject spec changed, so
// the fingerprint no longer matches — it reads the corpus again and
// cold-starts from what it read: the snapshot it writes must warm-load under
// the same inputs and explore to the same digest.
TEST(DtrcCliTest, ColdFallbackRereadsTheCorpus) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "dice_dtrc_cold_fallback";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::filesystem::path corpus = dir / "corpus.dtrc";
  {
    const Bytes bytes = *SerializeTraceBinary(CorpusTrace());
    std::ofstream out(corpus, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }
  const std::string args = "--config=" DICE_TESTDATA_DIR "/provider.conf --trace=" +
                           corpus.string() + " --state_dir=" + (dir / "state").string() +
                           " --runs=32";
  // The line of `output` that starts with `key`, or "".
  auto line = [](const std::string& output, const std::string& key) {
    const size_t at = output.find(key);
    return at == std::string::npos ? std::string() : output.substr(at, output.find('\n', at) - at);
  };

  const CliRun first = RunCli(args + " --inject=203.0.113.0/24:64500");
  EXPECT_NE(first.output.find("cold start:"), std::string::npos) << first.output;
  const CliRun fallback = RunCli(args + " --inject=198.51.100.0/24:64501");
  EXPECT_NE(fallback.output.find("fingerprint mismatch"), std::string::npos) << fallback.output;
  EXPECT_NE(fallback.output.find("cold start:"), std::string::npos) << fallback.output;
  EXPECT_FALSE(line(first.output, "loaded trace").empty()) << first.output;
  EXPECT_EQ(line(fallback.output, "loaded trace"), line(first.output, "loaded trace"))
      << "the fallback must ingest the whole corpus again";
  EXPECT_NE(fallback.output.find("router state snapshot: generation"), std::string::npos)
      << fallback.output;
  const CliRun warm = RunCli(args + " --inject=198.51.100.0/24:64501");
  EXPECT_NE(warm.output.find("warm restart: router state generation"), std::string::npos)
      << warm.output;
  for (const CliRun* run : {&first, &fallback, &warm}) {
    EXPECT_TRUE(run->exit_code == 0 || run->exit_code == 3) << run->output;
  }
  EXPECT_FALSE(line(fallback.output, "detections_digest=").empty()) << fallback.output;
  EXPECT_EQ(line(warm.output, "detections_digest="), line(fallback.output, "detections_digest="));
  std::filesystem::remove_all(dir);
}

TEST_F(DtrcCorruption, TrailingBytesInsideTheBodyAreAnError) {
  // Valid events followed by garbage inside the (correctly checksummed)
  // frame body: the reader must notice the leftovers after the last event.
  Bytes body(bytes_.begin() + kFrameHeaderSize, bytes_.end());
  body.push_back(0xee);
  EXPECT_FALSE(Loads(FrameMessage(kTraceFormatMagic, kTraceFormatVersion, body)));
}

// The stored-hash tripwire behind the frame checksum: a checksum-valid frame
// whose first attribute record carries its hash off by one must be refused
// by the hash check, and the set it interned on the way must be gone again.
TEST_F(DtrcCorruption, StoredHashOffByOneIsAnErrorAndInternsNothing) {
  bgp::PathAttributes attrs = RichEvent(7).update.attrs;
  attrs.communities.push_back(0xfeed0001);  // a set nothing else holds
  ByteWriter body;
  body.PutU32(1);  // one attribute record
  body.PutU64(bgp::HashAttrs(attrs) + 1);
  bgp::EncodeAttrs(body, attrs);
  body.PutU64(0);  // no events
  const Bytes corpus = FrameMessage(kTraceFormatMagic, kTraceFormatVersion, body.bytes());

  const size_t live_before = bgp::AttrInternTableStats().live_entries;
  auto parsed = ParseTraceBinary(corpus);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("attribute 0 hash mismatch"), std::string::npos)
      << parsed.status();
  EXPECT_EQ(bgp::AttrInternTableStats().live_entries, live_before);
}

TEST_F(DtrcCorruption, EventCountBeyondBufferIsAnError) {
  bgp::AttrTable table;
  bgp::PathAttributes attrs;
  (void)table.IndexOf(bgp::InternedAttrs(attrs));
  auto parsed = ParseTraceBinary(DtrcFrame(table, [](ByteWriter& body) {
    body.PutU64(1u << 30);  // claims a billion events in a tiny buffer
  }));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dice::trace
