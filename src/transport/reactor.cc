#include "src/transport/reactor.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "src/util/strings.h"

namespace dice::transport {
namespace {

Status ErrnoStatus(const char* what, int err) {
  return InternalError(StrFormat("%s: %s", what, std::strerror(err)));
}

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  (void)fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

Reactor::Reactor() : Reactor(Options()) {}

Reactor::Reactor(Options options) : options_(options) {
  int fds[2] = {-1, -1};
  if (::pipe(fds) == 0) {
    SetNonBlocking(fds[0]);
    SetNonBlocking(fds[1]);
    wakeup_read_fd_ = fds[0];
    wakeup_write_fd_ = fds[1];
  }
}

Reactor::~Reactor() {
  for (auto& [id, conn] : conns_) {
    DestroyConn(conn);
  }
  conns_.clear();
  if (wakeup_read_fd_ >= 0) {
    (void)::close(wakeup_read_fd_);
  }
  if (wakeup_write_fd_ >= 0) {
    (void)::close(wakeup_write_fd_);
  }
}

StatusOr<Reactor::ConnId> Reactor::Listen(const Address& address) {
  int fd = -1;
  std::string unlink_path;
  if (address.kind == Address::Kind::kTcp) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return ErrnoStatus("socket", errno);
    }
    int one = 1;
    (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in sin;
    std::memset(&sin, 0, sizeof(sin));
    sin.sin_family = AF_INET;
    sin.sin_port = htons(address.port);
    if (inet_pton(AF_INET, address.host.c_str(), &sin.sin_addr) != 1) {
      ::close(fd);
      return InvalidArgumentError("listen host must be a dotted quad, got '" +
                                  address.host + "'");
    }
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&sin), sizeof(sin)) != 0) {
      Status status = ErrnoStatus(("bind " + address.ToString()).c_str(), errno);
      ::close(fd);
      return status;
    }
  } else {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return ErrnoStatus("socket", errno);
    }
    struct sockaddr_un sun;
    std::memset(&sun, 0, sizeof(sun));
    sun.sun_family = AF_UNIX;
    std::snprintf(sun.sun_path, sizeof(sun.sun_path), "%s", address.path.c_str());
    // A stale socket file from a crashed server would make bind fail forever.
    (void)::unlink(address.path.c_str());
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&sun), sizeof(sun)) != 0) {
      Status status = ErrnoStatus(("bind " + address.ToString()).c_str(), errno);
      ::close(fd);
      return status;
    }
    unlink_path = address.path;
  }
  if (::listen(fd, 64) != 0) {
    Status status = ErrnoStatus("listen", errno);
    ::close(fd);
    if (!unlink_path.empty()) {
      (void)::unlink(unlink_path.c_str());
    }
    return status;
  }
  SetNonBlocking(fd);

  Address bound = address;
  if (address.kind == Address::Kind::kTcp) {
    struct sockaddr_in sin;
    socklen_t len = sizeof(sin);
    if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&sin), &len) == 0) {
      bound.port = ntohs(sin.sin_port);
    }
  }

  const ConnId id = next_id_++;
  Conn& conn = conns_[id];
  conn.fd = fd;
  conn.listener = true;
  conn.bound = bound;
  conn.unlink_on_close = std::move(unlink_path);
  return id;
}

StatusOr<Address> Reactor::ListenerAddress(ConnId listener) const {
  auto it = conns_.find(listener);
  if (it == conns_.end() || !it->second.listener) {
    return NotFoundError(StrFormat("no listener with id %llu",
                                   static_cast<unsigned long long>(listener)));
  }
  return it->second.bound;
}

Status Reactor::Send(ConnId id, const Bytes& frame) {
  auto it = conns_.find(id);
  if (it == conns_.end() || it->second.listener) {
    return NotFoundError(
        StrFormat("no connection with id %llu", static_cast<unsigned long long>(id)));
  }
  if (frame.size() > options_.max_frame_bytes) {
    return InvalidArgumentError(StrFormat("frame of %zu bytes exceeds the %zu-byte limit",
                                          frame.size(), options_.max_frame_bytes));
  }
  Conn& conn = it->second;
  if (conn.write_queue_bytes + frame.size() > options_.max_write_queue_bytes) {
    ++backpressure_rejects_;
    return ResourceExhaustedError(
        StrFormat("connection %llu has %zu bytes queued (cap %zu); peer is not draining",
                  static_cast<unsigned long long>(id), conn.write_queue_bytes,
                  options_.max_write_queue_bytes));
  }
  Bytes wire(4 + frame.size());
  wire[0] = static_cast<uint8_t>(frame.size() >> 24);
  wire[1] = static_cast<uint8_t>(frame.size() >> 16);
  wire[2] = static_cast<uint8_t>(frame.size() >> 8);
  wire[3] = static_cast<uint8_t>(frame.size());
  std::memcpy(wire.data() + 4, frame.data(), frame.size());
  conn.write_queue_bytes += wire.size();
  conn.write_queue.push_back(std::move(wire));
  ++frames_sent_;
  // Opportunistic flush: most frames go out without waiting for POLLOUT.
  Status flushed = FlushWrites(conn);
  if (!flushed.ok()) {
    CloseWith(id, flushed);
  }
  return Status::Ok();
}

void Reactor::Close(ConnId id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) {
    return;
  }
  DestroyConn(it->second);
  conns_.erase(it);
}

void Reactor::Wakeup() {
  if (wakeup_write_fd_ >= 0) {
    uint8_t byte = 1;
    (void)!::write(wakeup_write_fd_, &byte, 1);
  }
}

StatusOr<int> Reactor::Poll(int timeout_ms) {
  std::vector<struct pollfd> pfds;
  std::vector<ConnId> ids;
  pfds.reserve(conns_.size() + 1);
  ids.reserve(conns_.size() + 1);
  if (wakeup_read_fd_ >= 0) {
    pfds.push_back({wakeup_read_fd_, POLLIN, 0});
    ids.push_back(0);
  }
  for (const auto& [id, conn] : conns_) {
    short events = POLLIN;
    if (!conn.listener && !conn.write_queue.empty()) {
      events |= POLLOUT;
    }
    pfds.push_back({conn.fd, events, 0});
    ids.push_back(id);
  }

  int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
  if (rc < 0) {
    if (errno == EINTR) {
      return 0;
    }
    return ErrnoStatus("poll", errno);
  }

  int dispatched = 0;
  for (size_t i = 0; i < pfds.size(); ++i) {
    if (pfds[i].revents == 0) {
      continue;
    }
    if (ids[i] == 0) {
      // Drain the self-pipe; the value is irrelevant, the wakeup already
      // happened by virtue of poll returning.
      uint8_t scratch[64];
      while (::read(wakeup_read_fd_, scratch, sizeof(scratch)) > 0) {
      }
      continue;
    }
    ++dispatched;
    const ConnId id = ids[i];
    auto it = conns_.find(id);
    if (it == conns_.end()) {
      continue;  // closed by an earlier handler this iteration
    }
    if (it->second.listener) {
      AcceptReady(id);
      continue;
    }
    if ((pfds[i].revents & (POLLERR | POLLNVAL)) != 0) {
      CloseWith(id, InternalError(StrFormat("socket error on connection %llu",
                                            static_cast<unsigned long long>(id))));
      continue;
    }
    if ((pfds[i].revents & POLLOUT) != 0) {
      WriteReady(id);
    }
    it = conns_.find(id);
    if (it == conns_.end()) {
      continue;
    }
    if ((pfds[i].revents & (POLLIN | POLLHUP)) != 0) {
      ReadReady(id);
    }
  }
  return dispatched;
}

void Reactor::AcceptReady(ConnId listener_id) {
  auto it = conns_.find(listener_id);
  if (it == conns_.end()) {
    return;
  }
  const int listener_fd = it->second.fd;
  while (true) {
    int fd = ::accept(listener_fd, nullptr, nullptr);
    if (fd < 0) {
      return;  // EAGAIN (drained) or a transient error; poll will re-arm
    }
    SetNonBlocking(fd);
    if (it->second.bound.kind == Address::Kind::kTcp) {
      int one = 1;
      (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    const ConnId id = next_id_++;
    conns_[id].fd = fd;
    ++accepts_;
    if (handlers_.on_accept) {
      handlers_.on_accept(id);
    }
    it = conns_.find(listener_id);  // handler may have closed the listener
    if (it == conns_.end()) {
      return;
    }
  }
}

void Reactor::ReadReady(ConnId id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) {
    return;
  }
  Conn& conn = it->second;
  while (true) {
    uint8_t chunk[16384];
    ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      if (errno == EINTR) {
        continue;
      }
      CloseWith(id, ErrnoStatus("read", errno));
      return;
    }
    if (n == 0) {
      // Whatever is buffered short of a full frame is a torn message; the
      // framing layer treats EOF between frames as the only clean shutdown.
      if (conn.read_buffer.size() - conn.read_consumed > 0) {
        CloseWith(id, FailedPreconditionError(StrFormat(
                          "connection closed mid-frame (%zu buffered bytes)",
                          conn.read_buffer.size() - conn.read_consumed)));
      } else {
        CloseWith(id, Status::Ok());
      }
      return;
    }
    bytes_received_ += static_cast<uint64_t>(n);
    conn.read_buffer.insert(conn.read_buffer.end(), chunk, chunk + n);
    if (!DispatchFrames(id)) {
      return;  // connection closed while dispatching
    }
    it = conns_.find(id);
    if (it == conns_.end()) {
      return;
    }
  }
}

bool Reactor::DispatchFrames(ConnId id) {
  while (true) {
    auto it = conns_.find(id);
    if (it == conns_.end()) {
      return false;
    }
    Conn& conn = it->second;
    const size_t available = conn.read_buffer.size() - conn.read_consumed;
    if (available < 4) {
      break;
    }
    const uint8_t* p = conn.read_buffer.data() + conn.read_consumed;
    const size_t length = (static_cast<size_t>(p[0]) << 24) |
                          (static_cast<size_t>(p[1]) << 16) |
                          (static_cast<size_t>(p[2]) << 8) | static_cast<size_t>(p[3]);
    if (length > options_.max_frame_bytes) {
      ++malformed_closes_;
      CloseWith(id, InvalidArgumentError(StrFormat(
                        "peer announced a %zu-byte frame (limit %zu)", length,
                        options_.max_frame_bytes)));
      return false;
    }
    if (available < 4 + length) {
      break;
    }
    Bytes frame(p + 4, p + 4 + length);
    conn.read_consumed += 4 + length;
    ++frames_received_;
    if (handlers_.on_frame) {
      handlers_.on_frame(id, std::move(frame));
    }
  }
  // Compact once the parsed prefix dominates the buffer.
  auto it = conns_.find(id);
  if (it != conns_.end()) {
    Conn& conn = it->second;
    if (conn.read_consumed > 0 && conn.read_consumed * 2 >= conn.read_buffer.size()) {
      conn.read_buffer.erase(conn.read_buffer.begin(),
                             conn.read_buffer.begin() +
                                 static_cast<ptrdiff_t>(conn.read_consumed));
      conn.read_consumed = 0;
    }
  }
  return true;
}

void Reactor::WriteReady(ConnId id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) {
    return;
  }
  Status status = FlushWrites(it->second);
  if (!status.ok()) {
    CloseWith(id, status);
  }
}

Status Reactor::FlushWrites(Conn& conn) {
  while (!conn.write_queue.empty()) {
    const Bytes& front = conn.write_queue.front();
    const size_t remaining = front.size() - conn.write_offset;
    ssize_t n =
        ::send(conn.fd, front.data() + conn.write_offset, remaining, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        ++partial_writes_;
        return Status::Ok();  // POLLOUT re-armed by the next Poll
      }
      if (errno == EINTR) {
        continue;
      }
      return ErrnoStatus("send", errno);
    }
    bytes_sent_ += static_cast<uint64_t>(n);
    conn.write_offset += static_cast<size_t>(n);
    conn.write_queue_bytes -= static_cast<size_t>(n);
    if (conn.write_offset == front.size()) {
      conn.write_queue.pop_front();
      conn.write_offset = 0;
    } else {
      ++partial_writes_;
    }
  }
  return Status::Ok();
}

void Reactor::CloseWith(ConnId id, const Status& why) {
  auto it = conns_.find(id);
  if (it == conns_.end()) {
    return;
  }
  DestroyConn(it->second);
  conns_.erase(it);
  if (handlers_.on_close) {
    handlers_.on_close(id, why);
  }
}

void Reactor::DestroyConn(Conn& conn) {
  if (conn.fd >= 0) {
    (void)::close(conn.fd);
    conn.fd = -1;
  }
  if (!conn.unlink_on_close.empty()) {
    (void)::unlink(conn.unlink_on_close.c_str());
  }
}

}  // namespace dice::transport
