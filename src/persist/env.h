// persist::Env — the file-I/O seam under durable exploration state.
//
// Everything the snapshot layer does to a filesystem goes through this
// interface, so tests can substitute FaultInjectingEnv and prove the crash
// story byte-by-byte: short writes, torn writes at every boundary, silent
// bit flips, ENOSPC, and fsync failure all come out of the same code path
// the production PosixEnv exercises.
//
// Writing is streamed. An Env has one write primitive, NewWritableFile: a
// WritableFile takes the file's bytes in order (Append), may overwrite bytes
// it already took (WriteAt: a frame's checksum, known only at the end), and
// is closed once. WriteFile and AtomicWriteFile are built on it and take a
// producer that writes into the open file, so a snapshot is written chunk by
// chunk and never held whole in memory; their Bytes forms wrap a producer
// that appends one buffer.
//
// The durability building block is AtomicWriteFile: write `path + ".tmp"`,
// fsync the temp, rename over `path`, fsync the parent directory. A crash at
// any point leaves either the old file intact or the new file complete —
// never a half-written `path` (the FFS discipline: a rename is the commit
// point, everything before it is invisible).

#ifndef SRC_PERSIST_ENV_H_
#define SRC_PERSIST_ENV_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/frame.h"
#include "src/util/status.h"

namespace dice::persist {

using ::dice::Bytes;
using ::dice::Status;
using ::dice::StatusOr;

// A file open for writing (see the header comment). Nothing written is
// durable before Env::SyncFile; Close releases the file and reports a
// deferred write error. The destructor closes a file left open.
class WritableFile : public ByteSink {
 public:
  [[nodiscard]] virtual Status Close() = 0;
};

// Writes a file's content into the open file; a non-Ok Status aborts the
// write.
using FileProducer = std::function<Status(WritableFile&)>;

class Env {
 public:
  virtual ~Env() = default;

  [[nodiscard]] virtual StatusOr<Bytes> ReadFile(const std::string& path) = 0;
  // Creates/truncates `path` and opens it for writing: the one write
  // primitive every Env implements.
  [[nodiscard]] virtual StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;
  // Creates/truncates `path`, hands it to `produce` and closes it. NOT atomic
  // on its own — use AtomicWriteFile for anything that must survive a crash.
  [[nodiscard]] Status WriteFile(const std::string& path, const FileProducer& produce);
  [[nodiscard]] Status WriteFile(const std::string& path, const Bytes& data);
  [[nodiscard]] virtual Status RenameFile(const std::string& from, const std::string& to) = 0;
  [[nodiscard]] virtual Status DeleteFile(const std::string& path) = 0;
  // Regular-file names in `dir`, sorted (deterministic across platforms).
  [[nodiscard]] virtual StatusOr<std::vector<std::string>> ListDir(const std::string& dir) = 0;
  // Creates `dir` (one level); an existing directory is success.
  [[nodiscard]] virtual Status CreateDir(const std::string& dir) = 0;
  [[nodiscard]] virtual Status SyncFile(const std::string& path) = 0;
  [[nodiscard]] virtual Status SyncDir(const std::string& dir) = 0;
  virtual bool FileExists(const std::string& path) = 0;

  // Wall-clock microseconds — used ONLY to stamp quarantine file names so
  // successive corrupt snapshots never collide; nothing deterministic reads
  // it. Fake envs return a counter.
  virtual uint64_t NowMicros() = 0;
};

// The real filesystem. Stateless; one process-wide instance is fine.
class PosixEnv : public Env {
 public:
  [[nodiscard]] StatusOr<Bytes> ReadFile(const std::string& path) override;
  [[nodiscard]] StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  [[nodiscard]] Status RenameFile(const std::string& from, const std::string& to) override;
  [[nodiscard]] Status DeleteFile(const std::string& path) override;
  [[nodiscard]] StatusOr<std::vector<std::string>> ListDir(const std::string& dir) override;
  [[nodiscard]] Status CreateDir(const std::string& dir) override;
  [[nodiscard]] Status SyncFile(const std::string& path) override;
  [[nodiscard]] Status SyncDir(const std::string& dir) override;
  bool FileExists(const std::string& path) override;
  uint64_t NowMicros() override;
};

// The faults the snapshot layer must survive. Each fires once, at the Nth
// mutating operation after Arm(), under deterministic control — no
// randomness, so a failing matrix cell replays exactly. Writing one file
// (NewWritableFile through Close, however many Appends) is one mutating op;
// renames, deletes, and syncs count one each.
//
// A write fault lands at a byte offset within the whole file, wherever the
// chunks it was written in begin and end: the cut kinds keep the file's
// first `boundary` bytes and fail the Append that crosses that offset (or
// Close, when the file ends before it), and a bit flip corrupts every write
// of its byte — the Append and any later WriteAt over it alike.
enum class FaultKind : uint8_t {
  kNone = 0,
  // The file keeps only its first `boundary` bytes and the write returns an
  // error (a failed write the caller observes and can clean up after).
  kShortWrite,
  // The file keeps only its first `boundary` bytes and the process "loses
  // power": this and every later operation fails. What's on disk is exactly
  // what a kill at that byte boundary leaves.
  kTornWrite,
  // Bit `boundary` of the file (a bit index from its first byte) is flipped
  // and the write reports success — silent media corruption, detectable only
  // by the checksum. A bit past the end of the file never fires.
  kBitFlip,
  // The file keeps a partial prefix and the write returns ResourceExhausted,
  // the way a full disk actually fails mid-write.
  kNoSpace,
  // SyncFile/SyncDir fails; the preceding write's durability is void.
  kFsyncFail,
};

struct FaultPlan {
  FaultKind kind = FaultKind::kNone;
  // 0-based index of the mutating operation the fault fires at.
  uint64_t trigger_op = 0;
  // kShortWrite/kTornWrite/kNoSpace: bytes of the file kept before the cut.
  // kBitFlip: bit index into the file.
  size_t boundary = 0;
};

// Decorator injecting FaultPlan on top of any base Env. Reads are passed
// through untouched (until a torn write "kills the power", after which
// everything fails — a dead process does no I/O).
class FaultInjectingEnv : public Env {
 public:
  explicit FaultInjectingEnv(Env& base) : base_(base) {}

  // Installs `plan` and resets the operation counter. Arm with kNone to
  // count ops without failing (the dry run that sizes a fault matrix).
  void Arm(const FaultPlan& plan);
  // Mutating operations observed since the last Arm().
  uint64_t mutating_ops() const { return ops_; }
  // Whether the armed fault has fired.
  bool fired() const { return fired_; }

  [[nodiscard]] StatusOr<Bytes> ReadFile(const std::string& path) override;
  [[nodiscard]] StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  [[nodiscard]] Status RenameFile(const std::string& from, const std::string& to) override;
  [[nodiscard]] Status DeleteFile(const std::string& path) override;
  [[nodiscard]] StatusOr<std::vector<std::string>> ListDir(const std::string& dir) override;
  [[nodiscard]] Status CreateDir(const std::string& dir) override;
  [[nodiscard]] Status SyncFile(const std::string& path) override;
  [[nodiscard]] Status SyncDir(const std::string& dir) override;
  bool FileExists(const std::string& path) override;
  uint64_t NowMicros() override { return base_.NowMicros(); }

 private:
  class File;  // env.cc: a base file with the plan's write fault applied
  // True iff the current mutating op is the trigger; advances the counter.
  bool AtTrigger();
  [[nodiscard]] Status DeadStatus() const;

  Env& base_;
  FaultPlan plan_;
  uint64_t ops_ = 0;
  bool fired_ = false;
  bool dead_ = false;  // torn write happened: the process is "off"
};

// Durably replaces `path` with what `produce` writes: temp write -> fsync ->
// rename -> fsync parent dir. On any failure the temp file is best-effort
// removed and `path` is untouched.
[[nodiscard]] Status AtomicWriteFile(Env& env, const std::string& path,
                                     const FileProducer& produce);
[[nodiscard]] Status AtomicWriteFile(Env& env, const std::string& path, const Bytes& data);

// "<dir>/<name>" with exactly one separator.
std::string JoinPath(const std::string& dir, const std::string& name);

}  // namespace dice::persist

#endif  // SRC_PERSIST_ENV_H_
