// Tests for the durable-state I/O layer (src/persist): the Env seam, the
// atomic write protocol, deterministic fault injection, and the generation
// store with quarantine. The fault matrix kills the write at every mutating
// operation — and, for torn writes, at every byte boundary — then proves a
// fresh "process" still loads a good generation: corruption costs warmth,
// never correctness and never a crash.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "src/persist/env.h"
#include "src/persist/snapshot_store.h"
#include "src/util/frame.h"

namespace dice::persist {
namespace {

// --- in-memory Env ---------------------------------------------------------

// Faithful enough for the store's protocol: files live under created
// directories, an open file writes through to its bytes in the map, renames
// are atomic, ListDir returns sorted basenames, and the clock is a counter
// (deterministic quarantine names).
class MemEnv : public Env {
 public:
  class File : public WritableFile {
   public:
    File(MemEnv& env, std::string path) : env_(env), path_(std::move(path)) {}
    Status Append(const uint8_t* data, size_t size) override {
      Bytes& bytes = env_.files_[path_];
      bytes.insert(bytes.end(), data, data + size);
      return Status::Ok();
    }
    Status WriteAt(uint64_t offset, const uint8_t* data, size_t size) override {
      Bytes& bytes = env_.files_[path_];
      if (offset + size > bytes.size()) {
        return OutOfRangeError("write past the end of " + path_);
      }
      std::copy(data, data + size, bytes.begin() + static_cast<std::ptrdiff_t>(offset));
      return Status::Ok();
    }
    Status Close() override { return Status::Ok(); }

   private:
    MemEnv& env_;
    std::string path_;
  };

  StatusOr<Bytes> ReadFile(const std::string& path) override {
    auto it = files_.find(path);
    if (it == files_.end()) {
      return NotFoundError("no such file: " + path);
    }
    return it->second;
  }

  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(const std::string& path) override {
    if (!ParentExists(path)) {
      return NotFoundError("no such directory for: " + path);
    }
    files_[path].clear();  // create or truncate, as open(O_CREAT | O_TRUNC)
    return std::unique_ptr<WritableFile>(new File(*this, path));
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    auto it = files_.find(from);
    if (it == files_.end()) {
      return NotFoundError("no such file: " + from);
    }
    if (!ParentExists(to)) {
      return NotFoundError("no such directory for: " + to);
    }
    files_[to] = std::move(it->second);
    files_.erase(it);
    return Status::Ok();
  }

  Status DeleteFile(const std::string& path) override {
    if (files_.erase(path) == 0) {
      return NotFoundError("no such file: " + path);
    }
    return Status::Ok();
  }

  StatusOr<std::vector<std::string>> ListDir(const std::string& dir) override {
    if (dirs_.count(dir) == 0) {
      return NotFoundError("no such directory: " + dir);
    }
    std::vector<std::string> names;
    const std::string prefix = dir + "/";
    for (const auto& [path, bytes] : files_) {  // std::map: sorted already
      if (path.size() > prefix.size() && path.compare(0, prefix.size(), prefix) == 0 &&
          path.find('/', prefix.size()) == std::string::npos) {
        names.push_back(path.substr(prefix.size()));
      }
    }
    return names;
  }

  Status CreateDir(const std::string& dir) override {
    dirs_.insert(dir);
    return Status::Ok();
  }

  Status SyncFile(const std::string& path) override {
    if (files_.count(path) == 0) {
      return NotFoundError("no such file: " + path);
    }
    return Status::Ok();
  }

  Status SyncDir(const std::string& dir) override {
    if (dirs_.count(dir) == 0) {
      return NotFoundError("no such directory: " + dir);
    }
    return Status::Ok();
  }

  bool FileExists(const std::string& path) override {
    return files_.count(path) > 0 || dirs_.count(path) > 0;
  }

  uint64_t NowMicros() override { return ++clock_; }

 private:
  bool ParentExists(const std::string& path) const {
    size_t slash = path.find_last_of('/');
    return slash == std::string::npos || dirs_.count(path.substr(0, slash)) > 0;
  }

  std::map<std::string, Bytes> files_;
  std::set<std::string> dirs_;
  uint64_t clock_ = 0;
};

Bytes B(const char* s) {
  const auto* p = reinterpret_cast<const uint8_t*>(s);
  return Bytes(p, p + strlen(s));
}

// A tiny framed payload so parse failures are the real checksum/format
// rejections the production snapshots rely on.
constexpr uint32_t kTestMagic = 0x54534e50;  // "TSNP"

Bytes Framed(const char* payload) { return FrameMessage(kTestMagic, 1, B(payload)); }

// Parses a framed test snapshot; on success appends the payload to `out`.
Status ParseFramed(const Bytes& bytes, std::string* out) {
  StatusOr<ByteReader> r = OpenFrame(bytes, kTestMagic, 1, "test snapshot");
  if (!r.ok()) {
    return r.status();
  }
  out->clear();
  while (!r->AtEnd()) {
    auto byte = r->ReadU8();
    if (!byte.ok()) {
      return byte.status();
    }
    out->push_back(static_cast<char>(*byte));
  }
  return Status::Ok();
}

// --- PosixEnv on a real filesystem ----------------------------------------

TEST(PosixEnvTest, RoundTripsThroughRealFilesystem) {
  PosixEnv env;
  const std::string dir = ::testing::TempDir() + "dice_persist_posix_test";
  ASSERT_TRUE(env.CreateDir(dir).ok());
  ASSERT_TRUE(env.CreateDir(dir).ok()) << "existing directory is success";
  const std::string file = JoinPath(dir, "a.bin");

  EXPECT_EQ(env.ReadFile(file).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(env.FileExists(file));

  ASSERT_TRUE(env.WriteFile(file, B("hello")).ok());
  ASSERT_TRUE(env.SyncFile(file).ok());
  ASSERT_TRUE(env.SyncDir(dir).ok());
  EXPECT_TRUE(env.FileExists(file));
  auto read = env.ReadFile(file);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, B("hello"));

  const std::string renamed = JoinPath(dir, "b.bin");
  ASSERT_TRUE(env.RenameFile(file, renamed).ok());
  EXPECT_FALSE(env.FileExists(file));
  auto names = env.ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"b.bin"}));

  ASSERT_TRUE(env.DeleteFile(renamed).ok());
  EXPECT_FALSE(env.FileExists(renamed));

  // Past the old 64 KiB read chunk, and odd-sized: read back whole, into one
  // allocation sized from the file.
  Bytes big(200003);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 131 + (i >> 9));
  }
  const std::string big_file = JoinPath(dir, "big.bin");
  ASSERT_TRUE(env.WriteFile(big_file, big).ok());
  auto big_read = env.ReadFile(big_file);
  ASSERT_TRUE(big_read.ok()) << big_read.status();
  EXPECT_EQ(*big_read, big);
  EXPECT_EQ(big_read->capacity(), big_read->size()) << "one exact allocation";
  ASSERT_TRUE(env.DeleteFile(big_file).ok());

  const std::string empty_file = JoinPath(dir, "empty.bin");
  ASSERT_TRUE(env.WriteFile(empty_file, Bytes{}).ok());
  auto empty_read = env.ReadFile(empty_file);
  ASSERT_TRUE(empty_read.ok()) << empty_read.status();
  EXPECT_TRUE(empty_read->empty());
  ASSERT_TRUE(env.DeleteFile(empty_file).ok());
}

TEST(PosixEnvTest, AtomicWriteReplacesAndLeavesNoTemp) {
  PosixEnv env;
  const std::string dir = ::testing::TempDir() + "dice_persist_atomic_test";
  ASSERT_TRUE(env.CreateDir(dir).ok());
  const std::string file = JoinPath(dir, "state.bin");

  ASSERT_TRUE(AtomicWriteFile(env, file, B("one")).ok());
  ASSERT_TRUE(AtomicWriteFile(env, file, B("two")).ok());
  auto read = env.ReadFile(file);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, B("two"));
  auto names = env.ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"state.bin"})) << "no temp residue";
}

// --- FaultInjectingEnv -----------------------------------------------------

TEST(FaultInjectingEnvTest, DryRunCountsMutatingOps) {
  MemEnv base;
  ASSERT_TRUE(base.CreateDir("/d").ok());
  FaultInjectingEnv env(base);
  env.Arm(FaultPlan{});  // kNone: count only
  ASSERT_TRUE(AtomicWriteFile(env, "/d/f", B("payload")).ok());
  // write temp, fsync temp, rename, fsync dir.
  EXPECT_EQ(env.mutating_ops(), 4u);
  EXPECT_FALSE(env.fired());
}

TEST(FaultInjectingEnvTest, ShortWriteSurfacesErrorAndKeepsOldFile) {
  MemEnv base;
  ASSERT_TRUE(base.CreateDir("/d").ok());
  ASSERT_TRUE(base.WriteFile("/d/f", B("old")).ok());
  FaultInjectingEnv env(base);
  env.Arm(FaultPlan{FaultKind::kShortWrite, /*trigger_op=*/0, /*boundary=*/2});
  Status s = AtomicWriteFile(env, "/d/f", B("replacement"));
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(env.fired());
  auto read = base.ReadFile("/d/f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, B("old")) << "failed atomic write must not touch the target";
}

TEST(FaultInjectingEnvTest, TornWriteKillsEverySubsequentOp) {
  MemEnv base;
  ASSERT_TRUE(base.CreateDir("/d").ok());
  FaultInjectingEnv env(base);
  env.Arm(FaultPlan{FaultKind::kTornWrite, 0, 3});
  EXPECT_FALSE(AtomicWriteFile(env, "/d/f", B("payload")).ok());
  // The process is "off": everything fails until re-Arm (reboot).
  EXPECT_FALSE(env.WriteFile("/d/g", B("x")).ok());
  EXPECT_FALSE(env.ReadFile("/d/f.tmp").ok());
  env.Arm(FaultPlan{});
  EXPECT_TRUE(env.WriteFile("/d/g", B("x")).ok());
}

TEST(FaultInjectingEnvTest, BitFlipIsSilent) {
  MemEnv base;
  ASSERT_TRUE(base.CreateDir("/d").ok());
  FaultInjectingEnv env(base);
  env.Arm(FaultPlan{FaultKind::kBitFlip, 0, /*bit=*/1});
  ASSERT_TRUE(env.WriteFile("/d/f", B("a")).ok()) << "silent corruption reports success";
  auto read = base.ReadFile("/d/f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ((*read)[0], uint8_t('a') ^ 0x02u);
}

TEST(FaultInjectingEnvTest, NoSpaceIsResourceExhausted) {
  MemEnv base;
  ASSERT_TRUE(base.CreateDir("/d").ok());
  FaultInjectingEnv env(base);
  env.Arm(FaultPlan{FaultKind::kNoSpace, 0, 1});
  Status s = env.WriteFile("/d/f", B("abc"));
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

TEST(FaultInjectingEnvTest, FsyncFailureIsAnError) {
  MemEnv base;
  ASSERT_TRUE(base.CreateDir("/d").ok());
  ASSERT_TRUE(base.WriteFile("/d/f", B("old")).ok());
  FaultInjectingEnv env(base);
  env.Arm(FaultPlan{FaultKind::kFsyncFail, /*trigger_op=*/1, 0});  // the temp fsync
  EXPECT_FALSE(AtomicWriteFile(env, "/d/f", B("replacement")).ok());
  auto read = base.ReadFile("/d/f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, B("old"));
}

// --- SnapshotStore ---------------------------------------------------------

TEST(SnapshotStoreTest, SavesAscendingGenerationsAndPrunes) {
  MemEnv env;
  SnapshotStore store(env, "/state", "cache");
  auto g1 = store.Save(Framed("one"));
  ASSERT_TRUE(g1.ok());
  EXPECT_EQ(*g1, 1u);
  auto g2 = store.Save(Framed("two"));
  ASSERT_TRUE(g2.ok());
  auto g3 = store.Save(Framed("three"));
  ASSERT_TRUE(g3.ok());
  EXPECT_EQ(*g3, 3u);
  auto generations = store.Generations();
  ASSERT_TRUE(generations.ok());
  EXPECT_EQ(*generations, (std::vector<uint64_t>{2, 3})) << "older generations pruned";
}

TEST(SnapshotStoreTest, LoadLatestPrefersNewestGeneration) {
  MemEnv env;
  SnapshotStore store(env, "/state", "cache");
  ASSERT_TRUE(store.Save(Framed("one")).ok());
  ASSERT_TRUE(store.Save(Framed("two")).ok());
  std::string payload;
  auto generation =
      store.LoadLatest([&](const Bytes& b) { return ParseFramed(b, &payload); });
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(*generation, 2u);
  EXPECT_EQ(payload, "two");
  EXPECT_EQ(store.quarantined(), 0u);
}

TEST(SnapshotStoreTest, EmptyStoreIsNotFound) {
  MemEnv env;
  SnapshotStore store(env, "/state", "cache");
  auto generation = store.LoadLatest([](const Bytes&) { return Status::Ok(); });
  EXPECT_EQ(generation.status().code(), StatusCode::kNotFound);
  auto generations = store.Generations();
  ASSERT_TRUE(generations.ok());
  EXPECT_TRUE(generations->empty());
}

TEST(SnapshotStoreTest, CorruptNewestIsQuarantinedAndPreviousLoads) {
  MemEnv env;
  SnapshotStore store(env, "/state", "cache");
  ASSERT_TRUE(store.Save(Framed("good")).ok());
  ASSERT_TRUE(store.Save(Framed("newest")).ok());
  // Flip one bit of generation 2 on "disk".
  auto bytes = env.ReadFile("/state/cache.00000002.snap");
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] ^= 0x10u;
  ASSERT_TRUE(env.WriteFile("/state/cache.00000002.snap", *bytes).ok());

  std::string payload;
  auto generation =
      store.LoadLatest([&](const Bytes& b) { return ParseFramed(b, &payload); });
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(*generation, 1u) << "previous generation shadows the corrupt one";
  EXPECT_EQ(payload, "good");
  EXPECT_EQ(store.quarantined(), 1u);

  // The corrupt file survives under a quarantine name and never shadows a
  // future Save or Load.
  auto names = env.ListDir("/state");
  ASSERT_TRUE(names.ok());
  bool quarantine_present = false;
  for (const std::string& name : *names) {
    quarantine_present |= name.find(".corrupt-") != std::string::npos;
  }
  EXPECT_TRUE(quarantine_present);
  auto generations = store.Generations();
  ASSERT_TRUE(generations.ok());
  EXPECT_EQ(*generations, (std::vector<uint64_t>{1}));
  auto g3 = store.Save(Framed("recovered"));
  ASSERT_TRUE(g3.ok());
  EXPECT_EQ(*g3, 2u);
}

// A parse that fails with FailedPrecondition marks an intact snapshot taken
// under other inputs: the walk goes on to the older generation, and the file
// stays, unquarantined, for when those inputs come back.
TEST(SnapshotStoreTest, FailedPreconditionSkipsTheGenerationAndKeepsIt) {
  MemEnv env;
  SnapshotStore store(env, "/state", "cache");
  ASSERT_TRUE(store.Save(Framed("mine")).ok());
  ASSERT_TRUE(store.Save(Framed("theirs")).ok());

  std::string payload;
  auto generation = store.LoadLatest([&](const Bytes& b) -> Status {
    DICE_RETURN_IF_ERROR(ParseFramed(b, &payload));
    return payload == "mine" ? Status::Ok()
                             : FailedPreconditionError("fingerprint mismatch");
  });
  ASSERT_TRUE(generation.ok()) << generation.status();
  EXPECT_EQ(*generation, 1u);
  EXPECT_EQ(payload, "mine");
  EXPECT_EQ(store.quarantined(), 0u);
  auto names = env.ListDir("/state");
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    EXPECT_EQ(name.find(".corrupt-"), std::string::npos) << name;
  }
  auto generations = store.Generations();
  ASSERT_TRUE(generations.ok());
  EXPECT_EQ(*generations, (std::vector<uint64_t>{1, 2}));
}

TEST(SnapshotStoreTest, IgnoresForeignAndMalformedNames) {
  MemEnv env;
  ASSERT_TRUE(env.CreateDir("/state").ok());
  ASSERT_TRUE(env.WriteFile("/state/cache.00000001.snap.tmp", B("t")).ok());
  ASSERT_TRUE(env.WriteFile("/state/cache.00000001.snap.corrupt-5", B("q")).ok());
  ASSERT_TRUE(env.WriteFile("/state/other.00000009.snap", B("o")).ok());
  ASSERT_TRUE(env.WriteFile("/state/cache.notanumber.snap", B("n")).ok());
  SnapshotStore store(env, "/state", "cache");
  auto generations = store.Generations();
  ASSERT_TRUE(generations.ok());
  EXPECT_TRUE(generations->empty());
}

// --- the crash matrix ------------------------------------------------------

// Every mutating operation of a Save, killed with every fault kind — and
// torn/short writes cut at every byte boundary of the snapshot — then a
// fresh store over the surviving files must load a complete good payload.
TEST(SnapshotStoreCrashMatrix, EveryFaultLeavesALoadableGeneration) {
  const Bytes next = Framed("generation-two-payload");

  // Baseline: one good generation on disk, then a dry run sizes the matrix.
  MemEnv baseline;
  {
    SnapshotStore store(baseline, "/state", "cache");
    ASSERT_TRUE(store.Save(Framed("generation-one")).ok());
  }
  uint64_t total_ops = 0;
  {
    MemEnv env = baseline;
    FaultInjectingEnv faulty(env);
    faulty.Arm(FaultPlan{});
    SnapshotStore store(faulty, "/state", "cache");
    ASSERT_TRUE(store.Save(next).ok());
    total_ops = faulty.mutating_ops();
  }
  ASSERT_GE(total_ops, 4u);

  uint64_t cells = 0;
  for (uint64_t op = 0; op < total_ops; ++op) {
    std::vector<FaultPlan> plans;
    plans.push_back({FaultKind::kFsyncFail, op, 0});
    plans.push_back({FaultKind::kNoSpace, op, next.size() / 2});
    for (size_t boundary = 0; boundary <= next.size(); boundary += 1) {
      plans.push_back({FaultKind::kTornWrite, op, boundary});
    }
    plans.push_back({FaultKind::kShortWrite, op, 0});
    plans.push_back({FaultKind::kShortWrite, op, next.size() / 3});
    for (const FaultPlan& plan : plans) {
      ++cells;
      MemEnv env = baseline;
      {
        FaultInjectingEnv faulty(env);
        faulty.Arm(plan);
        SnapshotStore store(faulty, "/state", "cache");
        // The save may fail — that is the point. It must never crash.
        store.Save(next).status().ok();
      }
      // "Reboot": a fresh store over the base env (the fault is gone, the
      // bytes it left are not). A good generation must still load.
      SnapshotStore recovered(env, "/state", "cache");
      std::string payload;
      auto generation =
          recovered.LoadLatest([&](const Bytes& b) { return ParseFramed(b, &payload); });
      ASSERT_TRUE(generation.ok())
          << "fault kind " << static_cast<int>(plan.kind) << " at op " << plan.trigger_op
          << " boundary " << plan.boundary << ": " << generation.status().ToString();
      EXPECT_TRUE(payload == "generation-one" || payload == "generation-two-payload")
          << "loaded a payload that was never written whole: " << payload;
    }
  }
  // Matrix actually covered the write at every boundary for every op.
  EXPECT_GE(cells, total_ops * (next.size() + 5));
}

// A payload several FrameWriter chunks long, streamed into the generation
// file the way snapshots are written. Each write fault lands at byte offsets
// around every chunk edge, on the checksum bytes the writer fills in last,
// and on the last byte: a cut there fails the save before its rename, and a
// flipped bit there is caught at load, so generation one loads every time.
TEST(SnapshotStoreCrashMatrix, StreamedWriteFaultsAtChunkEdgesLeaveGenerationOne) {
  Bytes payload(3 * FrameWriter::kChunkSize + 1000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7 + (i >> 9));
  }
  const FileProducer produce = [&payload](WritableFile& file) -> Status {
    FrameWriter frame(file, kTestMagic, 1);
    DICE_RETURN_IF_ERROR(frame.Append(payload.data(), payload.size()));
    return frame.Finish();
  };
  const size_t file_size = kFrameHeaderSize + payload.size();

  MemEnv baseline;
  {
    SnapshotStore store(baseline, "/state", "cache");
    ASSERT_TRUE(store.Save(Framed("generation-one")).ok());
  }
  {
    // Unfaulted, the streamed generation is the newest and loads whole.
    MemEnv env = baseline;
    SnapshotStore store(env, "/state", "cache");
    ASSERT_TRUE(store.Save(produce).ok());
    std::string loaded;
    auto generation = store.LoadLatest([&](const Bytes& b) { return ParseFramed(b, &loaded); });
    ASSERT_TRUE(generation.ok()) << generation.status();
    EXPECT_EQ(*generation, 2u);
    EXPECT_EQ(loaded, std::string(payload.begin(), payload.end()));
  }

  std::set<size_t> offsets;  // into the file
  for (size_t edge = 0; edge < file_size + 16; edge += FrameWriter::kChunkSize) {
    for (size_t offset = edge < 16 ? 0 : edge - 16; offset <= edge + 16; ++offset) {
      offsets.insert(offset);
    }
  }
  for (size_t offset = kFrameHeaderSize - 4; offset < kFrameHeaderSize; ++offset) {
    offsets.insert(offset);  // the checksum
  }
  offsets.insert(file_size - 1);
  offsets.insert(file_size);  // every byte written, and the write still fails
  ASSERT_GE(file_size, 3 * FrameWriter::kChunkSize);

  size_t cells = 0;
  for (size_t offset : offsets) {
    std::vector<FaultPlan> plans;
    // Op 0 is the write of the new generation's temp file.
    for (FaultKind kind : {FaultKind::kTornWrite, FaultKind::kShortWrite, FaultKind::kNoSpace}) {
      plans.push_back({kind, 0, offset});
    }
    if (offset < file_size) {
      plans.push_back({FaultKind::kBitFlip, 0, offset * 8 + offset % 8});
    }
    for (const FaultPlan& plan : plans) {
      ++cells;
      const std::string cell = "fault kind " + std::to_string(static_cast<int>(plan.kind)) +
                               " at byte " + std::to_string(offset);
      MemEnv env = baseline;
      {
        FaultInjectingEnv faulty(env);
        faulty.Arm(plan);
        SnapshotStore store(faulty, "/state", "cache");
        const bool saved = store.Save(produce).ok();
        EXPECT_TRUE(faulty.fired()) << cell;
        EXPECT_EQ(saved, plan.kind == FaultKind::kBitFlip) << cell;
      }
      SnapshotStore recovered(env, "/state", "cache");
      std::string loaded;
      auto generation =
          recovered.LoadLatest([&](const Bytes& b) { return ParseFramed(b, &loaded); });
      ASSERT_TRUE(generation.ok()) << cell << ": " << generation.status().ToString();
      EXPECT_EQ(*generation, 1u) << cell;
      EXPECT_EQ(loaded, "generation-one") << cell;
    }
  }
  EXPECT_GE(cells, 4 * 33 * 3u);
}

// Bit flips are silent (the write "succeeds"), so detection falls entirely
// to the frame checksum at load time: every flipped bit must either
// quarantine (falling back to generation one) or — if it hit the temp file
// of an aborted path — leave the good generations alone.
TEST(SnapshotStoreCrashMatrix, EverySilentBitFlipIsCaughtAtLoad) {
  const Bytes next = Framed("bitflip-target");
  MemEnv baseline;
  {
    SnapshotStore store(baseline, "/state", "cache");
    ASSERT_TRUE(store.Save(Framed("generation-one")).ok());
  }
  for (size_t bit = 0; bit < next.size() * 8; ++bit) {
    MemEnv env = baseline;
    {
      FaultInjectingEnv faulty(env);
      // Op 0 is the temp-file write of the new generation.
      faulty.Arm(FaultPlan{FaultKind::kBitFlip, 0, bit});
      SnapshotStore store(faulty, "/state", "cache");
      auto saved = store.Save(next);
      ASSERT_TRUE(saved.ok()) << "bit flips are silent by definition";
    }
    SnapshotStore recovered(env, "/state", "cache");
    std::string payload;
    auto generation =
        recovered.LoadLatest([&](const Bytes& b) { return ParseFramed(b, &payload); });
    ASSERT_TRUE(generation.ok()) << "bit " << bit << ": " << generation.status().ToString();
    EXPECT_TRUE(payload == "generation-one" || payload == "bitflip-target")
        << "bit " << bit << " produced a phantom payload: " << payload;
    if (payload == "generation-one") {
      EXPECT_EQ(recovered.quarantined(), 1u) << "fallback must be due to quarantine";
    }
  }
}

}  // namespace
}  // namespace dice::persist
