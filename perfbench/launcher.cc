#include "perfbench/launcher.h"

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "perfbench/harness.h"

namespace perfbench {

namespace {

// What the helper sends back for one child.
struct Reply {
  int32_t exit_code;
  int32_t error;  // errno of a failed fork or wait4, else 0
  double wall_s;
  int64_t peak_rss_kb;
  int64_t floor_rss_kb;
};

bool WriteAll(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = send(fd, p, size, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = read(fd, p, size);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

// A request is a count, then each string as a length and its bytes: the
// child's argv followed by its output path.
bool SendStrings(int fd, const std::vector<std::string>& strings) {
  std::string frame;
  auto put = [&](uint32_t v) { frame.append(reinterpret_cast<const char*>(&v), sizeof v); };
  put(static_cast<uint32_t>(strings.size()));
  for (const std::string& s : strings) {
    put(static_cast<uint32_t>(s.size()));
    frame += s;
  }
  return WriteAll(fd, frame.data(), frame.size());
}

bool ReceiveStrings(int fd, std::vector<std::string>* strings) {
  uint32_t count = 0;
  if (!ReadAll(fd, &count, sizeof count)) {
    return false;
  }
  strings->assign(count, std::string());
  for (std::string& s : *strings) {
    uint32_t size = 0;
    if (!ReadAll(fd, &size, sizeof size)) {
      return false;
    }
    s.resize(size);
    if (size > 0 && !ReadAll(fd, s.data(), size)) {
      return false;
    }
  }
  return true;
}

// VmRSS of this process in kB.
int64_t SelfRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoll(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

// In the helper: forks, execs and reaps one child.
Reply Spawn(std::vector<std::string>& strings) {
  Reply reply{-1, 0, 0, 0, 0};
  const std::string output_path = strings.back();
  strings.pop_back();
  std::vector<char*> args;
  for (std::string& a : strings) {
    args.push_back(a.data());
  }
  args.push_back(nullptr);
  const pid_t helper = getpid();
  reply.floor_rss_kb = SelfRssKb();
  const int64_t start = NowNs();
  const pid_t pid = fork();
  if (pid < 0) {
    reply.error = errno;
    return reply;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != helper) {
      _exit(127);
    }
    const int fd = open(output_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    execv(args[0], args.data());
    _exit(127);
  }
  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      reply.error = errno;
      return reply;
    }
  }
  reply.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  reply.peak_rss_kb = usage.ru_maxrss;
  reply.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  return reply;
}

// The helper serves requests until the benchmark closes its end. It leaves
// with _exit, so it never flushes stdio buffers it inherited.
[[noreturn]] void HelperLoop(int fd) {
  std::vector<std::string> strings;
  while (ReceiveStrings(fd, &strings) && strings.size() >= 2) {
    const Reply reply = Spawn(strings);
    if (!WriteAll(fd, &reply, sizeof reply)) {
      break;
    }
  }
  _exit(0);
}

}  // namespace

bool Launcher::Start(std::string* error) {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    *error = std::string("socketpair: ") + std::strerror(errno);
    return false;
  }
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // The helper dies with the benchmark, and its child with it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) {
      _exit(1);
    }
    close(fds[0]);
    HelperLoop(fds[1]);
  }
  close(fds[1]);
  pid_ = pid;
  fd_ = fds[0];
  return true;
}

Launcher::~Launcher() {
  if (pid_ > 0) {
    close(fd_);  // the helper reads end of file and exits
    while (waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
}

ChildRun Launcher::Run(const std::vector<std::string>& argv, const std::string& output_path) {
  ChildRun run;
  std::vector<std::string> strings = argv;
  strings.push_back(output_path);
  Reply reply{};
  if (!SendStrings(fd_, strings) || !ReadAll(fd_, &reply, sizeof reply)) {
    run.error = "the launcher helper is gone";
    return run;
  }
  if (reply.error != 0) {
    run.error = std::string("fork or wait4 in the launcher: ") + std::strerror(reply.error);
    return run;
  }
  run.exit_code = reply.exit_code;
  run.wall_s = reply.wall_s;
  run.peak_rss_mb = static_cast<double>(reply.peak_rss_kb) / 1024.0;
  run.floor_rss_mb = static_cast<double>(reply.floor_rss_kb) / 1024.0;
  return run;
}

}  // namespace perfbench
