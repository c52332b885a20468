#include "src/persist/env.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>

#include "src/util/strings.h"

namespace dice::persist {

namespace {

using ::dice::InternalError;
using ::dice::InvalidArgumentError;
using ::dice::NotFoundError;
using ::dice::ResourceExhaustedError;
using ::dice::StrFormat;

Status ErrnoStatus(const char* op, const std::string& path, int err) {
  std::string message = StrFormat("%s(%s): %s", op, path.c_str(), strerror(err));
  if (err == ENOENT) {
    return NotFoundError(message);
  }
  if (err == ENOSPC || err == EDQUOT) {
    return ResourceExhaustedError(message);
  }
  return InternalError(message);
}

// RAII fd so every early return closes.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
};

}  // namespace

StatusOr<Bytes> PosixEnv::ReadFile(const std::string& path) {
  Fd f;
  f.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (f.fd < 0) {
    return ErrnoStatus("open", path, errno);
  }
  struct stat st {};
  if (::fstat(f.fd, &st) != 0) {
    return ErrnoStatus("fstat", path, errno);
  }
  // One allocation of the size fstat reports, then reads on to EOF: a file
  // that grew since is still read whole (its tail is appended), and one that
  // shrank is cut to what was read.
  Bytes out(st.st_size > 0 ? static_cast<size_t>(st.st_size) : 0);
  size_t filled = 0;
  uint8_t tail[1 << 12];
  for (;;) {
    const bool in_place = filled < out.size();
    uint8_t* dst = in_place ? out.data() + filled : tail;
    const size_t room = in_place ? out.size() - filled : sizeof(tail);
    ssize_t n = ::read(f.fd, dst, room);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoStatus("read", path, errno);
    }
    if (n == 0) {
      break;
    }
    if (!in_place) {
      out.insert(out.end(), tail, tail + n);
    }
    filled += static_cast<size_t>(n);
  }
  out.resize(filled);
  return out;
}

Status PosixEnv::WriteFile(const std::string& path, const Bytes& data) {
  Fd f;
  f.fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (f.fd < 0) {
    return ErrnoStatus("open", path, errno);
  }
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(f.fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoStatus("write", path, errno);
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status PosixEnv::RenameFile(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return ErrnoStatus("rename", from, errno);
  }
  return Status::Ok();
}

Status PosixEnv::DeleteFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0) {
    return ErrnoStatus("unlink", path, errno);
  }
  return Status::Ok();
}

StatusOr<std::vector<std::string>> PosixEnv::ListDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return ErrnoStatus("opendir", dir, errno);
  }
  std::vector<std::string> names;
  for (struct dirent* e = ::readdir(d); e != nullptr; e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name == "." || name == "..") {
      continue;
    }
    names.push_back(std::move(name));
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

Status PosixEnv::CreateDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return ErrnoStatus("mkdir", dir, errno);
  }
  return Status::Ok();
}

Status PosixEnv::SyncFile(const std::string& path) {
  Fd f;
  f.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (f.fd < 0) {
    return ErrnoStatus("open", path, errno);
  }
  if (::fsync(f.fd) != 0) {
    return ErrnoStatus("fsync", path, errno);
  }
  return Status::Ok();
}

Status PosixEnv::SyncDir(const std::string& dir) {
  Fd f;
  f.fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (f.fd < 0) {
    return ErrnoStatus("open", dir, errno);
  }
  if (::fsync(f.fd) != 0) {
    return ErrnoStatus("fsync", dir, errno);
  }
  return Status::Ok();
}

bool PosixEnv::FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

uint64_t PosixEnv::NowMicros() {
  // Wall clock, deliberately: this stamps quarantine file names (which must
  // not collide across restarts) and is never read by anything that affects
  // exploration results. Reviewed dice_lint allowlist entry.
  struct timespec ts;
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000u +
         static_cast<uint64_t>(ts.tv_nsec) / 1000u;
}

void FaultInjectingEnv::Arm(const FaultPlan& plan) {
  plan_ = plan;
  ops_ = 0;
  fired_ = false;
  dead_ = false;
}

bool FaultInjectingEnv::AtTrigger() {
  const uint64_t op = ops_++;
  return plan_.kind != FaultKind::kNone && !fired_ && op == plan_.trigger_op;
}

Status FaultInjectingEnv::DeadStatus() const {
  return InternalError("injected crash: process is dead");
}

StatusOr<Bytes> FaultInjectingEnv::ReadFile(const std::string& path) {
  if (dead_) {
    return DeadStatus();
  }
  return base_.ReadFile(path);
}

Status FaultInjectingEnv::WriteFile(const std::string& path, const Bytes& data) {
  if (dead_) {
    return DeadStatus();
  }
  if (!AtTrigger()) {
    return base_.WriteFile(path, data);
  }
  switch (plan_.kind) {
    case FaultKind::kShortWrite: {
      fired_ = true;
      Bytes prefix(data.begin(), data.begin() + std::min(plan_.boundary, data.size()));
      Status s = base_.WriteFile(path, prefix);
      if (!s.ok()) {
        return s;
      }
      return InternalError(StrFormat("injected short write at byte %zu of %s",
                                     plan_.boundary, path.c_str()));
    }
    case FaultKind::kTornWrite: {
      fired_ = true;
      dead_ = true;
      Bytes prefix(data.begin(), data.begin() + std::min(plan_.boundary, data.size()));
      Status s = base_.WriteFile(path, prefix);
      if (!s.ok()) {
        return s;
      }
      return InternalError(StrFormat("injected torn write at byte %zu of %s",
                                     plan_.boundary, path.c_str()));
    }
    case FaultKind::kBitFlip: {
      fired_ = true;
      Bytes flipped = data;
      if (!flipped.empty()) {
        size_t bit = plan_.boundary % (flipped.size() * 8);
        flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
      return base_.WriteFile(path, flipped);  // reports success: silent corruption
    }
    case FaultKind::kNoSpace: {
      fired_ = true;
      Bytes prefix(data.begin(), data.begin() + std::min(plan_.boundary, data.size()));
      Status s = base_.WriteFile(path, prefix);
      if (!s.ok()) {
        return s;
      }
      return ResourceExhaustedError(
          StrFormat("injected ENOSPC after byte %zu of %s", plan_.boundary, path.c_str()));
    }
    case FaultKind::kNone:
    case FaultKind::kFsyncFail:
      return base_.WriteFile(path, data);
  }
  return base_.WriteFile(path, data);
}

Status FaultInjectingEnv::RenameFile(const std::string& from, const std::string& to) {
  if (dead_) {
    return DeadStatus();
  }
  if (AtTrigger() && plan_.kind == FaultKind::kTornWrite) {
    // A torn rename is just a crash before the commit point.
    fired_ = true;
    dead_ = true;
    return InternalError(StrFormat("injected crash before rename of %s", from.c_str()));
  }
  return base_.RenameFile(from, to);
}

Status FaultInjectingEnv::DeleteFile(const std::string& path) {
  if (dead_) {
    return DeadStatus();
  }
  AtTrigger();  // deletes count as mutating ops but only kTornWrite-via-rename kills
  return base_.DeleteFile(path);
}

StatusOr<std::vector<std::string>> FaultInjectingEnv::ListDir(const std::string& dir) {
  if (dead_) {
    return DeadStatus();
  }
  return base_.ListDir(dir);
}

Status FaultInjectingEnv::CreateDir(const std::string& dir) {
  if (dead_) {
    return DeadStatus();
  }
  return base_.CreateDir(dir);
}

Status FaultInjectingEnv::SyncFile(const std::string& path) {
  if (dead_) {
    return DeadStatus();
  }
  if (AtTrigger() && plan_.kind == FaultKind::kFsyncFail) {
    fired_ = true;
    return InternalError(StrFormat("injected fsync failure on %s", path.c_str()));
  }
  return base_.SyncFile(path);
}

Status FaultInjectingEnv::SyncDir(const std::string& dir) {
  if (dead_) {
    return DeadStatus();
  }
  if (AtTrigger() && plan_.kind == FaultKind::kFsyncFail) {
    fired_ = true;
    return InternalError(StrFormat("injected fsync failure on %s", dir.c_str()));
  }
  return base_.SyncDir(dir);
}

bool FaultInjectingEnv::FileExists(const std::string& path) {
  if (dead_) {
    return false;
  }
  return base_.FileExists(path);
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty()) {
    return name;
  }
  if (dir.back() == '/') {
    return dir + name;
  }
  return dir + "/" + name;
}

Status AtomicWriteFile(Env& env, const std::string& path, const Bytes& data) {
  const std::string tmp = path + ".tmp";
  Status s = env.WriteFile(tmp, data);
  if (!s.ok()) {
    (void)env.DeleteFile(tmp);  // best effort; the partial temp is garbage
    return s;
  }
  s = env.SyncFile(tmp);
  if (!s.ok()) {
    (void)env.DeleteFile(tmp);
    return s;
  }
  // The commit point: after this rename readers see the complete new bytes.
  s = env.RenameFile(tmp, path);
  if (!s.ok()) {
    (void)env.DeleteFile(tmp);
    return s;
  }
  // Make the rename itself durable (directory entry update).
  size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  return env.SyncDir(dir);
}

}  // namespace dice::persist
