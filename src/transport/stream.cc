#include "src/transport/stream.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <utility>

#include "src/util/strings.h"

namespace dice::transport {
namespace {

// Monotonic milliseconds, for connect/receive deadlines only — nothing
// deterministic reads transport timing (dice-lint allowlists this file).
int64_t NowMs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

Status ErrnoStatus(const char* what, int err) {
  return InternalError(StrFormat("%s: %s", what, std::strerror(err)));
}

// Builds the sockaddr for `address` and connects with a timeout: nonblocking
// connect, poll for writability, SO_ERROR check, back to blocking.
StatusOr<int> ConnectFd(const Address& address, int timeout_ms) {
  int fd = -1;
  struct sockaddr_storage storage;
  std::memset(&storage, 0, sizeof(storage));
  socklen_t len = 0;
  if (address.kind == Address::Kind::kTcp) {
    auto* sin = reinterpret_cast<struct sockaddr_in*>(&storage);
    sin->sin_family = AF_INET;
    sin->sin_port = htons(address.port);
    if (inet_pton(AF_INET, address.host.c_str(), &sin->sin_addr) != 1) {
      struct addrinfo hints;
      std::memset(&hints, 0, sizeof(hints));
      hints.ai_family = AF_INET;
      hints.ai_socktype = SOCK_STREAM;
      struct addrinfo* result = nullptr;
      if (getaddrinfo(address.host.c_str(), nullptr, &hints, &result) != 0 ||
          result == nullptr) {
        return NotFoundError("cannot resolve host '" + address.host + "'");
      }
      sin->sin_addr = reinterpret_cast<struct sockaddr_in*>(result->ai_addr)->sin_addr;
      freeaddrinfo(result);
    }
    len = sizeof(struct sockaddr_in);
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
  } else {
    auto* sun = reinterpret_cast<struct sockaddr_un*>(&storage);
    sun->sun_family = AF_UNIX;
    std::snprintf(sun->sun_path, sizeof(sun->sun_path), "%s", address.path.c_str());
    len = sizeof(struct sockaddr_un);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  }
  if (fd < 0) {
    return ErrnoStatus("socket", errno);
  }

  int flags = fcntl(fd, F_GETFL, 0);
  (void)fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&storage), len);
  if (rc != 0 && errno != EINPROGRESS) {
    Status status = ErrnoStatus(("connect " + address.ToString()).c_str(), errno);
    ::close(fd);
    return status;
  }
  if (rc != 0) {
    struct pollfd pfd = {fd, POLLOUT, 0};
    rc = ::poll(&pfd, 1, timeout_ms);
    if (rc <= 0) {
      ::close(fd);
      return DeadlineExceededError("connect " + address.ToString() + " timed out");
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    (void)getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
    if (err != 0) {
      ::close(fd);
      return ErrnoStatus(("connect " + address.ToString()).c_str(), err);
    }
  }
  (void)fcntl(fd, F_SETFL, flags);  // back to blocking
  if (address.kind == Address::Kind::kTcp) {
    int one = 1;
    (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

}  // namespace

FrameStream::FrameStream(int fd) : fd_(fd) {
  if (fd_ >= 0) {
    int flags = fcntl(fd_, F_GETFL, 0);
    (void)fcntl(fd_, F_SETFL, flags & ~O_NONBLOCK);
  }
}

FrameStream::~FrameStream() { Close(); }

FrameStream::FrameStream(FrameStream&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

FrameStream& FrameStream::operator=(FrameStream&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

StatusOr<FrameStream> FrameStream::Dial(const Address& address, int timeout_ms) {
  DICE_ASSIGN_OR_RETURN(int fd, ConnectFd(address, timeout_ms));
  return FrameStream(fd);
}

Status FrameStream::SendRaw(const uint8_t* data, size_t size) {
  if (fd_ < 0) {
    return FailedPreconditionError("send on a closed stream");
  }
  size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a peer that vanished mid-write must surface as EPIPE,
    // not kill the process with SIGPIPE.
    ssize_t n = ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoStatus("send", errno);
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status FrameStream::SendFrame(const Bytes& payload) {
  if (payload.size() > kMaxFrameBytes) {
    return InvalidArgumentError(
        StrFormat("frame of %zu bytes exceeds the %zu-byte limit", payload.size(),
                  kMaxFrameBytes));
  }
  uint8_t prefix[4] = {static_cast<uint8_t>(payload.size() >> 24),
                       static_cast<uint8_t>(payload.size() >> 16),
                       static_cast<uint8_t>(payload.size() >> 8),
                       static_cast<uint8_t>(payload.size())};
  DICE_RETURN_IF_ERROR(SendRaw(prefix, sizeof(prefix)));
  return SendRaw(payload.data(), payload.size());
}

Status FrameStream::ReadExact(uint8_t* out, size_t size, int timeout_ms) {
  const int64_t deadline = NowMs() + timeout_ms;
  size_t got = 0;
  while (got < size) {
    int64_t remaining = deadline - NowMs();
    if (remaining <= 0) {
      return DeadlineExceededError("receive timed out");
    }
    struct pollfd pfd = {fd_, POLLIN, 0};
    int rc = ::poll(&pfd, 1, static_cast<int>(remaining));
    if (rc < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoStatus("poll", errno);
    }
    if (rc == 0) {
      return DeadlineExceededError("receive timed out");
    }
    ssize_t n = ::read(fd_, out + got, size - got);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) {
        continue;
      }
      return ErrnoStatus("read", errno);
    }
    if (n == 0) {
      return FailedPreconditionError(
          got == 0 ? "connection closed by peer"
                   : StrFormat("connection closed mid-frame (%zu of %zu bytes)", got, size));
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

StatusOr<Bytes> FrameStream::RecvFrame(int timeout_ms) {
  if (fd_ < 0) {
    return FailedPreconditionError("receive on a closed stream");
  }
  uint8_t prefix[4];
  DICE_RETURN_IF_ERROR(ReadExact(prefix, sizeof(prefix), timeout_ms));
  const size_t length = (static_cast<size_t>(prefix[0]) << 24) |
                        (static_cast<size_t>(prefix[1]) << 16) |
                        (static_cast<size_t>(prefix[2]) << 8) | static_cast<size_t>(prefix[3]);
  if (length > kMaxFrameBytes) {
    return InvalidArgumentError(
        StrFormat("peer announced a %zu-byte frame (limit %zu)", length, kMaxFrameBytes));
  }
  Bytes payload(length);
  if (length > 0) {
    DICE_RETURN_IF_ERROR(ReadExact(payload.data(), length, timeout_ms));
  }
  return payload;
}

void FrameStream::CloseWrite() {
  if (fd_ >= 0) {
    (void)::shutdown(fd_, SHUT_WR);
  }
}

void FrameStream::Close() {
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
}

}  // namespace dice::transport
