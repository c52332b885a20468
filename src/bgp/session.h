// Per-peer BGP finite state machine (RFC 4271 §8, simplified to the events a
// simulated reliable transport produces).
//
// States: Idle -> Connect -> OpenSent -> OpenConfirm -> Established.
// The TCP handshake collapses to "link up"; everything else — OPEN exchange,
// keepalive/hold timers, NOTIFICATION handling, session teardown and route
// flush — follows the RFC's event table.

#ifndef SRC_BGP_SESSION_H_
#define SRC_BGP_SESSION_H_

#include <cstdint>
#include <string>

#include "src/bgp/message.h"
#include "src/net/event_loop.h"

namespace dice::bgp {

enum class SessionState : uint8_t {
  kIdle,
  kConnect,
  kOpenSent,
  kOpenConfirm,
  kEstablished,
};

const char* SessionStateName(SessionState state);

// The FSM's outward actions are callbacks supplied by the Router.
struct SessionCallbacks {
  std::function<void(const Message&)> send;              // transmit to the peer
  std::function<void()> on_established;                  // announce Adj-RIB-Out
  std::function<void()> on_down;                         // flush peer routes
  std::function<void(const UpdateMessage&)> on_update;   // process an UPDATE
};

class Session {
 public:
  // `loop` schedules the hold/keepalive timers: the event loop of the
  // network the router's node is registered with (Network::loop).
  Session(net::EventLoop* loop, AsNumber local_as, Ipv4Address local_id, AsNumber expected_peer_as,
          uint16_t hold_time_seconds, SessionCallbacks callbacks)
      : loop_(loop),
        local_as_(local_as),
        local_id_(local_id),
        expected_peer_as_(expected_peer_as),
        configured_hold_time_(hold_time_seconds),
        callbacks_(std::move(callbacks)) {}

  SessionState state() const { return state_; }
  bool established() const { return state_ == SessionState::kEstablished; }

  // Administrative start: begins the handshake if the transport is up.
  void Start();
  // Administrative or operational stop; optionally emits a CEASE notification.
  void Stop(bool send_notification);

  // Transport events from the simulator.
  void OnLinkUp();
  void OnLinkDown();

  // A decoded message arrived from the peer.
  void OnMessage(const Message& message);

  // Statistics.
  uint64_t updates_received() const { return updates_received_; }
  uint64_t keepalives_received() const { return keepalives_received_; }
  uint64_t notifications_received() const { return notifications_received_; }
  uint64_t session_drops() const { return session_drops_; }

 private:
  void SendOpen();
  void EnterEstablished();
  // Tears the session down to Idle; `notify` sends a NOTIFICATION first.
  void Drop(NotificationCode code, uint8_t subcode, bool notify);
  void ArmHoldTimer();
  void ArmKeepaliveTimer();

  net::EventLoop* loop_;
  AsNumber local_as_;
  Ipv4Address local_id_;
  AsNumber expected_peer_as_;
  uint16_t configured_hold_time_;
  SessionCallbacks callbacks_;

  SessionState state_ = SessionState::kIdle;
  bool link_up_ = false;
  bool started_ = false;
  uint16_t negotiated_hold_time_ = 0;  // min(ours, peer's); 0 disables timers
  // Generation counters invalidate timers scheduled before a state change.
  uint64_t hold_generation_ = 0;
  uint64_t keepalive_generation_ = 0;

  uint64_t updates_received_ = 0;
  uint64_t keepalives_received_ = 0;
  uint64_t notifications_received_ = 0;
  uint64_t session_drops_ = 0;
};

}  // namespace dice::bgp

#endif  // SRC_BGP_SESSION_H_
