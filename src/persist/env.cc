#include "src/persist/env.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

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

namespace {

// write(2)/pwrite(2) through an fd owned by the file.
class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}
  PosixWritableFile(const PosixWritableFile&) = delete;
  PosixWritableFile& operator=(const PosixWritableFile&) = delete;
  ~PosixWritableFile() override {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  Status Append(const uint8_t* data, size_t size) override {
    while (size > 0) {
      ssize_t n = ::write(fd_, data, size);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return ErrnoStatus("write", path_, errno);
      }
      data += n;
      size -= static_cast<size_t>(n);
    }
    return Status::Ok();
  }

  Status WriteAt(uint64_t offset, const uint8_t* data, size_t size) override {
    while (size > 0) {
      ssize_t n = ::pwrite(fd_, data, size, static_cast<off_t>(offset));
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return ErrnoStatus("pwrite", path_, errno);
      }
      data += n;
      size -= static_cast<size_t>(n);
      offset += static_cast<uint64_t>(n);
    }
    return Status::Ok();
  }

  Status Close() override {
    const int fd = std::exchange(fd_, -1);
    if (fd >= 0 && ::close(fd) != 0) {
      return ErrnoStatus("close", path_, errno);
    }
    return Status::Ok();
  }

 private:
  std::string path_;
  int fd_;
};

}  // namespace

StatusOr<std::unique_ptr<WritableFile>> PosixEnv::NewWritableFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return ErrnoStatus("open", path, errno);
  }
  return std::unique_ptr<WritableFile>(new PosixWritableFile(path, fd));
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

// Every file the decorator opens: once the power is off it fails like the
// rest of the env, and the file whose open was the trigger op carries the
// plan's write fault, placed by byte offset within the whole file.
class FaultInjectingEnv::File final : public WritableFile {
 public:
  File(FaultInjectingEnv& env, std::string path, std::unique_ptr<WritableFile> base,
       bool faulty)
      : env_(env), path_(std::move(path)), base_(std::move(base)), faulty_(faulty) {}

  Status Append(const uint8_t* data, size_t size) override {
    if (env_.dead_) {
      return env_.DeadStatus();
    }
    const uint64_t offset = size_;
    size_ += size;
    if (faulty_ && Cuts() && env_.plan_.boundary < offset + size) {
      // The cut falls in this write: keep the bytes before it, then fail.
      const uint64_t boundary = env_.plan_.boundary;
      DICE_RETURN_IF_ERROR(
          base_->Append(data, boundary > offset ? static_cast<size_t>(boundary - offset) : 0));
      return Cut();
    }
    Bytes scratch;
    return base_->Append(Flipped(offset, data, size, scratch), size);
  }

  Status WriteAt(uint64_t offset, const uint8_t* data, size_t size) override {
    if (env_.dead_) {
      return env_.DeadStatus();
    }
    Bytes scratch;
    return base_->WriteAt(offset, Flipped(offset, data, size, scratch), size);
  }

  Status Close() override {
    Status closed = base_->Close();
    if (env_.dead_) {
      return env_.DeadStatus();
    }
    DICE_RETURN_IF_ERROR(closed);
    if (faulty_ && Cuts() && !env_.fired_) {
      return Cut();  // the cut lies at or past the end: the whole file stays
    }
    return Status::Ok();
  }

 private:
  bool Cuts() const {
    const FaultKind kind = env_.plan_.kind;
    return kind == FaultKind::kShortWrite || kind == FaultKind::kTornWrite ||
           kind == FaultKind::kNoSpace;
  }

  // Fires the cut: kTornWrite also turns the power off.
  Status Cut() {
    env_.fired_ = true;
    const size_t boundary = env_.plan_.boundary;
    switch (env_.plan_.kind) {
      case FaultKind::kTornWrite:
        env_.dead_ = true;
        return InternalError(
            StrFormat("injected torn write at byte %zu of %s", boundary, path_.c_str()));
      case FaultKind::kNoSpace:
        return ResourceExhaustedError(
            StrFormat("injected ENOSPC after byte %zu of %s", boundary, path_.c_str()));
      default:
        return InternalError(
            StrFormat("injected short write at byte %zu of %s", boundary, path_.c_str()));
    }
  }

  // The bytes to write for [offset, offset + size): `data` itself, or a copy
  // in `scratch` with the plan's bit flipped when its byte lies in the range.
  const uint8_t* Flipped(uint64_t offset, const uint8_t* data, size_t size, Bytes& scratch) {
    const uint64_t byte = env_.plan_.boundary / 8;
    if (!faulty_ || env_.plan_.kind != FaultKind::kBitFlip || byte < offset ||
        byte - offset >= size) {
      return data;
    }
    env_.fired_ = true;
    scratch.assign(data, data + size);
    scratch[byte - offset] ^= static_cast<uint8_t>(1u << (env_.plan_.boundary % 8));
    return scratch.data();
  }

  FaultInjectingEnv& env_;
  const std::string path_;
  const std::unique_ptr<WritableFile> base_;
  const bool faulty_;  // this file's open was the trigger op
  uint64_t size_ = 0;  // bytes appended so far
};

StatusOr<std::unique_ptr<WritableFile>> FaultInjectingEnv::NewWritableFile(
    const std::string& path) {
  if (dead_) {
    return DeadStatus();
  }
  const bool faulty = AtTrigger();
  DICE_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base, base_.NewWritableFile(path));
  return std::unique_ptr<WritableFile>(new File(*this, path, std::move(base), faulty));
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

Status Env::WriteFile(const std::string& path, const FileProducer& produce) {
  DICE_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file, NewWritableFile(path));
  const Status produced = produce(*file);
  const Status closed = file->Close();
  return produced.ok() ? closed : produced;
}

Status Env::WriteFile(const std::string& path, const Bytes& data) {
  return WriteFile(path, [&data](WritableFile& file) {
    return file.Append(data.data(), data.size());
  });
}

Status AtomicWriteFile(Env& env, const std::string& path, const FileProducer& produce) {
  const std::string tmp = path + ".tmp";
  Status s = env.WriteFile(tmp, produce);
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

Status AtomicWriteFile(Env& env, const std::string& path, const Bytes& data) {
  return AtomicWriteFile(env, path, [&data](WritableFile& file) {
    return file.Append(data.data(), data.size());
  });
}

}  // namespace dice::persist
