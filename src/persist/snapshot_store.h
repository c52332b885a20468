// SnapshotStore — generation-numbered snapshot files with quarantine.
//
// One store manages one named artifact in one directory, as files
// `<name>.<generation>.snap` (zero-padded, so lexicographic order equals
// numeric order). Save() streams the next generation through AtomicWriteFile
// and prunes everything older than the newest two — a crash during Save can
// therefore never take the previous good generation with it.
//
// LoadLatest() walks generations newest-first and hands each file's bytes to
// the caller's parser. A file that fails to parse (torn tail, flipped bit,
// version skew — anything the framed format rejects) is quarantined: renamed
// to `<file>.corrupt-<micros>` so it survives for inspection but never
// shadows an older good generation or a future Save. If no generation
// parses, LoadLatest returns NotFound — the caller cold-starts. Wrong bytes
// are never returned; corruption costs warmth, never correctness.

#ifndef SRC_PERSIST_SNAPSHOT_STORE_H_
#define SRC_PERSIST_SNAPSHOT_STORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/persist/env.h"

namespace dice::persist {

class SnapshotStore {
 public:
  // Files live at `<dir>/<name>.<NNNNNNNN>.snap`. The directory is created
  // on first Save.
  SnapshotStore(Env& env, std::string dir, std::string name);

  // Writes what `produce` streams into the file as the next generation
  // (atomic replace), then prunes generations older than the newest
  // kKeepGenerations. Returns the generation number written.
  [[nodiscard]] StatusOr<uint64_t> Save(const FileProducer& produce);
  // The same for a snapshot already in memory.
  [[nodiscard]] StatusOr<uint64_t> Save(const Bytes& bytes);

  // Newest-first: reads each generation and calls `parse` on its bytes.
  // Returns the generation whose bytes `parse` accepted. Files whose read or
  // parse fails are quarantined and the walk continues with the previous
  // generation. NotFoundError when no generation exists or parses (cold
  // start); the caller decides what that means.
  [[nodiscard]] StatusOr<uint64_t> LoadLatest(
      const std::function<Status(const Bytes&)>& parse);

  // Generations currently on disk, ascending. Missing directory = empty.
  [[nodiscard]] StatusOr<std::vector<uint64_t>> Generations() const;

  // Snapshots quarantined by LoadLatest over this store's lifetime.
  uint64_t quarantined() const { return quarantined_; }

  // How many generations Save keeps (newest N). At least 2, so the
  // generation being replaced always has a good predecessor.
  static constexpr uint64_t kKeepGenerations = 2;

 private:
  std::string FileFor(uint64_t generation) const;

  Env& env_;
  std::string dir_;
  std::string name_;
  uint64_t quarantined_ = 0;
};

}  // namespace dice::persist

#endif  // SRC_PERSIST_SNAPSHOT_STORE_H_
