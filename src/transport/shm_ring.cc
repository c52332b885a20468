#include "src/transport/shm_ring.h"

#include <fcntl.h>
#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <new>

#include "src/transport/stream.h"
#include "src/util/strings.h"

namespace dice::transport {
namespace {

constexpr uint32_t kShmMagic = 0x4458534D;  // "DXSM"
constexpr uint32_t kShmVersion = 1;

int64_t NowMs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

// futex(2): wait while *word == expected, with a relative timeout; wake all
// waiters after a state change. The words live in process-shared memory, so
// plain FUTEX_WAIT/WAKE (no _PRIVATE) is required.
void FutexWait(std::atomic<uint32_t>* word, uint32_t expected, int timeout_ms) {
  struct timespec ts;
  ts.tv_sec = timeout_ms / 1000;
  ts.tv_nsec = static_cast<long>(timeout_ms % 1000) * 1000000;
  (void)syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAIT, expected, &ts,
                nullptr, 0);
}

void FutexWakeAll(std::atomic<uint32_t>* word) {
  (void)syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAKE, INT32_MAX,
                nullptr, nullptr, 0);
}

}  // namespace

// One direction of the pipe: a byte ring with monotonically increasing
// head/tail counters (positions are counter % capacity, so `head - tail`
// is always the exact number of unread bytes) plus the two futex words.
struct ShmRingSide {
  std::atomic<uint64_t> head;       // written by the producer (release)
  std::atomic<uint64_t> tail;       // written by the consumer (release)
  std::atomic<uint32_t> data_seq;   // bumped+woken by the producer
  std::atomic<uint32_t> space_seq;  // bumped+woken by the consumer
  uint8_t data[kShmRingCapacity];
};

struct ShmLayout {
  std::atomic<uint32_t> magic;  // stored last (release), checked first (acquire)
  uint32_t version;
  uint64_t capacity;
  std::atomic<uint32_t> shutdown;
  ShmRingSide rings[2];  // [0] client->server, [1] server->client
};

namespace {

constexpr size_t kRegionBytes = sizeof(ShmLayout);

void RingCopyIn(ShmRingSide& ring, uint64_t at, const uint8_t* src, size_t n) {
  const size_t offset = static_cast<size_t>(at % kShmRingCapacity);
  const size_t first = std::min(n, kShmRingCapacity - offset);
  std::memcpy(ring.data + offset, src, first);
  std::memcpy(ring.data, src + first, n - first);
}

void RingCopyOut(const ShmRingSide& ring, uint64_t at, uint8_t* dst, size_t n) {
  const size_t offset = static_cast<size_t>(at % kShmRingCapacity);
  const size_t first = std::min(n, kShmRingCapacity - offset);
  std::memcpy(dst, ring.data + offset, first);
  std::memcpy(dst + first, ring.data, n - first);
}

}  // namespace

ShmRingTransport::ShmRingTransport(Role role, std::string shm_name, ShmLayout* layout)
    : role_(role), shm_name_(std::move(shm_name)), layout_(layout) {}

ShmRingTransport::~ShmRingTransport() {
  if (layout_ != nullptr) {
    // Only the server tears the pipe down: a client that merely disconnects
    // (to reconnect later) must not poison the endpoint for its successor.
    if (role_ == Role::kServer) {
      Shutdown();
    }
    (void)munmap(layout_, kRegionBytes);
    layout_ = nullptr;
  }
  if (role_ == Role::kServer && !shm_name_.empty()) {
    (void)shm_unlink(shm_name_.c_str());
  }
}

StatusOr<std::unique_ptr<ShmRingTransport>> ShmRingTransport::Create(
    const Address& address) {
  if (address.kind != Address::Kind::kShm) {
    return InvalidArgumentError("shm transport needs an shm:/name address, got " +
                                address.ToString());
  }
  // A region left over from a SIGKILLed server would hand the client stale
  // counters; recreate from scratch.
  (void)shm_unlink(address.path.c_str());
  int fd = shm_open(address.path.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) {
    return InternalError(StrFormat("shm_open(%s): %s", address.path.c_str(),
                                   std::strerror(errno)));
  }
  if (ftruncate(fd, static_cast<off_t>(kRegionBytes)) != 0) {
    Status status = InternalError(StrFormat("ftruncate(%s): %s", address.path.c_str(),
                                            std::strerror(errno)));
    ::close(fd);
    (void)shm_unlink(address.path.c_str());
    return status;
  }
  void* mapped = mmap(nullptr, kRegionBytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (mapped == MAP_FAILED) {
    (void)shm_unlink(address.path.c_str());
    return InternalError(StrFormat("mmap(%s): %s", address.path.c_str(),
                                   std::strerror(errno)));
  }
  auto* layout = new (mapped) ShmLayout;
  layout->capacity = kShmRingCapacity;
  layout->version = kShmVersion;
  for (ShmRingSide& ring : layout->rings) {
    ring.head.store(0, std::memory_order_relaxed);
    ring.tail.store(0, std::memory_order_relaxed);
    ring.data_seq.store(0, std::memory_order_relaxed);
    ring.space_seq.store(0, std::memory_order_relaxed);
  }
  layout->shutdown.store(0, std::memory_order_relaxed);
  // The magic goes last: a client that maps mid-initialization sees
  // magic==0 and keeps retrying instead of reading half-built counters.
  layout->magic.store(kShmMagic, std::memory_order_release);
  return std::unique_ptr<ShmRingTransport>(
      new ShmRingTransport(Role::kServer, address.path, layout));
}

StatusOr<std::unique_ptr<ShmRingTransport>> ShmRingTransport::Open(
    const Address& address, int timeout_ms) {
  if (address.kind != Address::Kind::kShm) {
    return InvalidArgumentError("shm transport needs an shm:/name address, got " +
                                address.ToString());
  }
  const int64_t deadline = NowMs() + timeout_ms;
  while (true) {
    int fd = shm_open(address.path.c_str(), O_RDWR, 0600);
    if (fd >= 0) {
      struct stat st;
      if (fstat(fd, &st) == 0 && static_cast<size_t>(st.st_size) >= kRegionBytes) {
        void* mapped =
            mmap(nullptr, kRegionBytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
        ::close(fd);
        if (mapped == MAP_FAILED) {
          return InternalError(StrFormat("mmap(%s): %s", address.path.c_str(),
                                         std::strerror(errno)));
        }
        auto* layout = static_cast<ShmLayout*>(mapped);
        if (layout->magic.load(std::memory_order_acquire) == kShmMagic &&
            layout->version == kShmVersion &&
            layout->capacity == kShmRingCapacity &&
            layout->shutdown.load(std::memory_order_acquire) == 0) {
          return std::unique_ptr<ShmRingTransport>(
              new ShmRingTransport(Role::kClient, address.path, layout));
        }
        (void)munmap(mapped, kRegionBytes);  // not ready yet (or stale); retry
      } else {
        ::close(fd);
      }
    }
    if (NowMs() >= deadline) {
      return DeadlineExceededError("shm region " + address.ToString() +
                                   " did not appear within the timeout");
    }
    struct timespec pause = {0, 2 * 1000 * 1000};  // 2 ms
    (void)nanosleep(&pause, nullptr);
  }
}

Status ShmRingTransport::SendFrame(const Bytes& payload, int timeout_ms) {
  if (layout_ == nullptr) {
    return FailedPreconditionError("send on a closed shm transport");
  }
  if (payload.size() > kMaxFrameBytes || payload.size() + 4 > kShmRingCapacity) {
    return InvalidArgumentError(
        StrFormat("frame of %zu bytes exceeds the shm ring capacity", payload.size()));
  }
  ShmRingSide& ring = layout_->rings[role_ == Role::kClient ? 0 : 1];
  const size_t need = 4 + payload.size();
  const int64_t deadline = NowMs() + timeout_ms;
  while (true) {
    if (layout_->shutdown.load(std::memory_order_acquire) != 0) {
      return FailedPreconditionError("shm transport closed by peer");
    }
    const uint64_t head = ring.head.load(std::memory_order_relaxed);
    const uint64_t tail = ring.tail.load(std::memory_order_acquire);
    if (kShmRingCapacity - static_cast<size_t>(head - tail) >= need) {
      uint8_t prefix[4] = {static_cast<uint8_t>(payload.size() >> 24),
                           static_cast<uint8_t>(payload.size() >> 16),
                           static_cast<uint8_t>(payload.size() >> 8),
                           static_cast<uint8_t>(payload.size())};
      RingCopyIn(ring, head, prefix, sizeof(prefix));
      if (!payload.empty()) {
        RingCopyIn(ring, head + 4, payload.data(), payload.size());
      }
      ring.head.store(head + need, std::memory_order_release);
      ring.data_seq.fetch_add(1, std::memory_order_release);
      FutexWakeAll(&ring.data_seq);
      ++frames_sent_;
      bytes_sent_ += need;
      return Status::Ok();
    }
    const int64_t remaining = deadline - NowMs();
    if (remaining <= 0) {
      return DeadlineExceededError(
          StrFormat("shm ring full for %d ms; peer is not draining", timeout_ms));
    }
    const uint32_t seen = ring.space_seq.load(std::memory_order_acquire);
    // Re-check after loading the seq so a drain between the check and the
    // wait cannot be missed (the consumer bumps space_seq before waking).
    if (ring.tail.load(std::memory_order_acquire) == tail) {
      FutexWait(&ring.space_seq, seen, static_cast<int>(std::min<int64_t>(remaining, 50)));
    }
  }
}

StatusOr<Bytes> ShmRingTransport::RecvFrame(int timeout_ms) {
  if (layout_ == nullptr) {
    return FailedPreconditionError("receive on a closed shm transport");
  }
  ShmRingSide& ring = layout_->rings[role_ == Role::kClient ? 1 : 0];
  const int64_t deadline = NowMs() + timeout_ms;
  while (true) {
    const uint64_t tail = ring.tail.load(std::memory_order_relaxed);
    const uint64_t head = ring.head.load(std::memory_order_acquire);
    const size_t available = static_cast<size_t>(head - tail);
    if (available >= 4) {
      uint8_t prefix[4];
      RingCopyOut(ring, tail, prefix, sizeof(prefix));
      const size_t length = (static_cast<size_t>(prefix[0]) << 24) |
                            (static_cast<size_t>(prefix[1]) << 16) |
                            (static_cast<size_t>(prefix[2]) << 8) |
                            static_cast<size_t>(prefix[3]);
      if (length + 4 > kShmRingCapacity) {
        return InvalidArgumentError(StrFormat(
            "shm ring carries a corrupt %zu-byte length word", length));
      }
      if (available >= 4 + length) {
        Bytes payload(length);
        if (length > 0) {
          RingCopyOut(ring, tail + 4, payload.data(), length);
        }
        ring.tail.store(tail + 4 + length, std::memory_order_release);
        ring.space_seq.fetch_add(1, std::memory_order_release);
        FutexWakeAll(&ring.space_seq);
        ++frames_received_;
        bytes_received_ += 4 + length;
        return payload;
      }
    }
    if (layout_->shutdown.load(std::memory_order_acquire) != 0) {
      return FailedPreconditionError("shm transport closed by peer");
    }
    const int64_t remaining = deadline - NowMs();
    if (remaining <= 0) {
      return DeadlineExceededError("shm receive timed out");
    }
    const uint32_t seen = ring.data_seq.load(std::memory_order_acquire);
    if (ring.head.load(std::memory_order_acquire) == head) {
      FutexWait(&ring.data_seq, seen, static_cast<int>(std::min<int64_t>(remaining, 50)));
    }
  }
}

void ShmRingTransport::Shutdown() {
  if (layout_ == nullptr) {
    return;
  }
  layout_->shutdown.store(1, std::memory_order_release);
  for (ShmRingSide& ring : layout_->rings) {
    ring.data_seq.fetch_add(1, std::memory_order_release);
    ring.space_seq.fetch_add(1, std::memory_order_release);
    FutexWakeAll(&ring.data_seq);
    FutexWakeAll(&ring.space_seq);
  }
}

bool ShmRingTransport::shut_down() const {
  return layout_ == nullptr || layout_->shutdown.load(std::memory_order_acquire) != 0;
}

}  // namespace dice::transport
