#include "src/persist/snapshot_store.h"

#include <algorithm>
#include <cstring>

#include "src/util/logging.h"
#include "src/util/strings.h"

namespace dice::persist {

namespace {

using ::dice::NotFoundError;
using ::dice::ParseUint64;
using ::dice::StrFormat;

constexpr const char* kSuffix = ".snap";

}  // namespace

SnapshotStore::SnapshotStore(Env& env, std::string dir, std::string name)
    : env_(env), dir_(std::move(dir)), name_(std::move(name)) {}

std::string SnapshotStore::FileFor(uint64_t generation) const {
  return JoinPath(dir_, StrFormat("%s.%08llu%s", name_.c_str(),
                                  static_cast<unsigned long long>(generation), kSuffix));
}

StatusOr<std::vector<uint64_t>> SnapshotStore::Generations() const {
  if (!env_.FileExists(dir_)) {
    return std::vector<uint64_t>{};
  }
  DICE_ASSIGN_OR_RETURN(std::vector<std::string> names, env_.ListDir(dir_));
  std::vector<uint64_t> generations;
  const std::string prefix = name_ + ".";
  for (const std::string& file : names) {
    // Exactly `<name>.<digits>.snap`: temp files, quarantined files, and
    // other stores' files all fail one of these tests.
    if (file.size() <= prefix.size() + strlen(kSuffix) ||
        file.compare(0, prefix.size(), prefix) != 0 ||
        file.compare(file.size() - strlen(kSuffix), strlen(kSuffix), kSuffix) != 0) {
      continue;
    }
    std::string middle =
        file.substr(prefix.size(), file.size() - prefix.size() - strlen(kSuffix));
    auto generation = ParseUint64(middle);
    if (!generation.has_value()) {
      continue;
    }
    generations.push_back(*generation);
  }
  std::sort(generations.begin(), generations.end());
  return generations;
}

StatusOr<uint64_t> SnapshotStore::Save(const FileProducer& produce) {
  DICE_RETURN_IF_ERROR(env_.CreateDir(dir_));
  DICE_ASSIGN_OR_RETURN(std::vector<uint64_t> generations, Generations());
  const uint64_t next = generations.empty() ? 1 : generations.back() + 1;
  DICE_RETURN_IF_ERROR(AtomicWriteFile(env_, FileFor(next), produce));
  // Prune: keep the newest kKeepGenerations (including the one just
  // written). Best-effort — a stale extra file only costs disk.
  generations.push_back(next);
  while (generations.size() > kKeepGenerations) {
    uint64_t oldest = generations.front();
    generations.erase(generations.begin());
    Status s = env_.DeleteFile(FileFor(oldest));
    if (!s.ok()) {
      DICE_LOG(kWarning) << "snapshot prune failed for " << FileFor(oldest) << ": "
                     << s.ToString();
    }
  }
  return next;
}

StatusOr<uint64_t> SnapshotStore::Save(const Bytes& bytes) {
  return Save([&bytes](WritableFile& file) { return file.Append(bytes.data(), bytes.size()); });
}

StatusOr<uint64_t> SnapshotStore::LoadLatest(
    const std::function<Status(const Bytes&)>& parse) {
  DICE_ASSIGN_OR_RETURN(std::vector<uint64_t> generations, Generations());
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    const std::string file = FileFor(*it);
    Status verdict = Status::Ok();
    StatusOr<Bytes> bytes = env_.ReadFile(file);
    if (bytes.ok()) {
      verdict = parse(*bytes);
      if (verdict.ok()) {
        return *it;
      }
    } else {
      verdict = bytes.status();
    }
    // Corrupt or unreadable: quarantine (keep the evidence, clear the name)
    // and fall back to the previous generation.
    const std::string quarantine = StrFormat(
        "%s.corrupt-%llu", file.c_str(),
        static_cast<unsigned long long>(env_.NowMicros()));
    DICE_LOG(kWarning) << "quarantining snapshot " << file << " -> " << quarantine << ": "
                   << verdict.ToString();
    Status moved = env_.RenameFile(file, quarantine);
    if (!moved.ok()) {
      DICE_LOG(kWarning) << "quarantine rename failed: " << moved.ToString();
    }
    ++quarantined_;
  }
  return NotFoundError(
      StrFormat("no loadable %s snapshot in %s", name_.c_str(), dir_.c_str()));
}

}  // namespace dice::persist
