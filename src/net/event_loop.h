// Deterministic discrete-event scheduler.
//
// All distributed-system time in this repo is simulated: events execute in
// (time, insertion-order) order, so a run is a pure function of its inputs and
// seeds. This replaces the paper's testbed of real BIRD processes on virtual
// interfaces with a reproducible substrate that exhibits the same message
// interleavings.

#ifndef SRC_NET_EVENT_LOOP_H_
#define SRC_NET_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "src/util/logging.h"

namespace dice::net {

// Simulated time in microseconds since the start of the run.
using SimTime = uint64_t;

// Simulator node identity (protocol endpoints registered with a Network).
using NodeId = uint32_t;

constexpr SimTime kMicrosecond = 1;
constexpr SimTime kMillisecond = 1000;
constexpr SimTime kSecond = 1000 * 1000;

class EventLoop {
 public:
  using Callback = std::function<void()>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` at absolute simulated time `when` (>= now()).
  void At(SimTime when, Callback fn) {
    DICE_CHECK_GE(when, now_);
    queue_.push(Event{when, next_seq_++, std::move(fn)});
  }

  // Schedules `fn` after a simulated delay.
  void After(SimTime delay, Callback fn) { At(now_ + delay, std::move(fn)); }

  // Runs until the queue drains or Stop() is called. Returns events executed.
  size_t Run() {
    stopped_ = false;
    size_t executed = 0;
    while (!queue_.empty() && !stopped_) {
      Step();
      ++executed;
    }
    return executed;
  }

  // Runs events with time <= `deadline`; advances now() to `deadline` even if
  // the queue drains earlier. Returns events executed.
  size_t RunUntil(SimTime deadline) {
    stopped_ = false;
    size_t executed = 0;
    while (!queue_.empty() && !stopped_ && queue_.top().when <= deadline) {
      Step();
      ++executed;
    }
    if (!stopped_ && now_ < deadline) {
      now_ = deadline;
    }
    return executed;
  }

  size_t RunFor(SimTime duration) { return RunUntil(now_ + duration); }

  // Executes exactly one event if any is pending. Returns whether one ran.
  bool Step() {
    if (queue_.empty()) {
      return false;
    }
    // Move the event out before popping: a copy here would deep-copy the
    // std::function and whatever payload it captured (e.g. a full UPDATE's
    // Bytes) on every dispatch. The moved-from top keeps its (when, seq)
    // ordering key — moving the callback does not disturb the heap — so the
    // pop that follows stays well-defined.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    DICE_CHECK_GE(ev.when, now_);
    now_ = ev.when;
    ev.fn();
    return true;
  }

  void Stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  bool empty() const { return queue_.empty(); }
  size_t pending() const { return queue_.size(); }

  // Timestamp of the earliest pending event; nullopt when the queue is
  // drained.
  std::optional<SimTime> NextEventTime() const {
    if (queue_.empty()) {
      return std::nullopt;
    }
    return queue_.top().when;
  }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;  // tie-breaker: FIFO among same-time events
    Callback fn;

    bool operator>(const Event& other) const {
      if (when != other.when) {
        return when > other.when;
      }
      return seq > other.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  bool stopped_ = false;
};

}  // namespace dice::net

#endif  // SRC_NET_EVENT_LOOP_H_
