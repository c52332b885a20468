// transport::Reactor — a nonblocking, poll(2)-based event loop multiplexing
// listeners and length-framed stream connections (TCP and Unix-domain).
//
// One thread drives Poll(); handlers fire on that thread. The reactor owns
// the descriptors and the per-connection buffers:
//
//  * reads are drained into a per-connection buffer and surfaced to
//    on_frame only as *complete* length-prefixed frames — partial reads,
//    frames split across arbitrary byte boundaries, and many frames per
//    read all normalize to one callback per message;
//  * writes queue per connection and flush as the socket accepts them
//    (POLLOUT is subscribed only while bytes are pending); a sender that
//    outruns the peer hits the write-queue cap and gets ResourceExhausted
//    back from Send — backpressure as a Status, not an unbounded buffer;
//  * peer disconnects, oversize frames, and socket errors all end in
//    on_close with a Status saying why (Ok = clean EOF), never a crash.
//
// Wakeup() is the only thread-safe entry point: ExplorationServer::Stop
// calls it from its own thread (via a self-pipe) to break the reactor
// thread's poll, so the stop is prompt.

#ifndef SRC_TRANSPORT_REACTOR_H_
#define SRC_TRANSPORT_REACTOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "src/transport/address.h"
#include "src/transport/stream.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace dice::transport {

class Reactor {
 public:
  using ConnId = uint64_t;

  struct Options {
    size_t max_frame_bytes = kMaxFrameBytes;
    // Pending outbound bytes per connection before Send reports
    // ResourceExhausted (backpressure; the caller decides whether to retry).
    size_t max_write_queue_bytes = 64u << 20;
  };

  struct Handlers {
    // A listener accepted `conn`.
    std::function<void(ConnId conn)> on_accept;
    // One complete frame (the payload, length prefix stripped) arrived.
    std::function<void(ConnId conn, Bytes frame)> on_frame;
    // `conn` is gone: clean EOF (Ok), oversize frame (InvalidArgument), or a
    // socket error (Internal). The id is already invalid when this fires.
    std::function<void(ConnId conn, const Status& why)> on_close;
  };

  Reactor();
  explicit Reactor(Options options);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  void set_handlers(Handlers handlers) { handlers_ = std::move(handlers); }

  // Starts listening on a tcp: or unix: address. Returns the listener's id.
  [[nodiscard]] StatusOr<ConnId> Listen(const Address& address);

  // The listener's resolved address (port filled in after tcp:...:0).
  [[nodiscard]] StatusOr<Address> ListenerAddress(ConnId listener) const;

  // Queues one length-prefixed frame on `conn` and flushes opportunistically.
  [[nodiscard]] Status Send(ConnId conn, const Bytes& frame);

  // Closes `conn` now; on_close does NOT fire (the caller initiated it).
  void Close(ConnId conn);

  // One poll iteration: waits up to `timeout_ms` (-1 = forever) for events,
  // dispatches handlers, flushes writable queues. Returns the number of
  // descriptors with events (0 on timeout or wakeup).
  [[nodiscard]] StatusOr<int> Poll(int timeout_ms);

  // Thread-safe: makes a concurrent (or the next) Poll return promptly.
  void Wakeup();

  size_t connection_count() const { return conns_.size(); }

  // Lifetime counters.
  uint64_t accepts() const { return accepts_; }
  uint64_t frames_received() const { return frames_received_; }
  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t partial_writes() const { return partial_writes_; }
  uint64_t backpressure_rejects() const { return backpressure_rejects_; }
  uint64_t malformed_closes() const { return malformed_closes_; }

 private:
  struct Conn {
    int fd = -1;
    bool listener = false;
    Address bound;        // listeners: resolved bind address
    std::string unlink_on_close;  // unix listeners: socket file to remove
    Bytes read_buffer;
    size_t read_consumed = 0;  // parsed prefix of read_buffer
    std::deque<Bytes> write_queue;  // [0] may be partially written
    size_t write_offset = 0;        // into write_queue.front()
    size_t write_queue_bytes = 0;
  };

  void AcceptReady(ConnId id);
  void ReadReady(ConnId id);
  void WriteReady(ConnId id);
  // Extracts complete frames from the read buffer; returns false when the
  // connection was closed (oversize frame).
  bool DispatchFrames(ConnId id);
  [[nodiscard]] Status FlushWrites(Conn& conn);
  void CloseWith(ConnId id, const Status& why);
  void DestroyConn(Conn& conn);

  Options options_;
  Handlers handlers_;
  std::map<ConnId, Conn> conns_;
  ConnId next_id_ = 1;
  int wakeup_read_fd_ = -1;
  int wakeup_write_fd_ = -1;

  uint64_t accepts_ = 0;
  uint64_t frames_received_ = 0;
  uint64_t frames_sent_ = 0;
  uint64_t bytes_received_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t partial_writes_ = 0;
  uint64_t backpressure_rejects_ = 0;
  uint64_t malformed_closes_ = 0;
};

}  // namespace dice::transport

#endif  // SRC_TRANSPORT_REACTOR_H_
