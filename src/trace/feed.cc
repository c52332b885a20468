#include "src/trace/feed.h"

#include "src/util/logging.h"

namespace dice::trace {

void BgpFeedNode::SendUpdate(const bgp::UpdateMessage& update) {
  if (!established_) {
    DICE_LOG(kWarning) << name() << ": dropping trace UPDATE, session not established";
    return;
  }
  ++updates_sent_;
  Send(bgp::Message(update));
}

void BgpFeedNode::OnMessage(net::NodeId from, const Bytes& bytes) {
  if (from != peer_) {
    return;
  }
  StatusOr<bgp::Message> message = bgp::Decode(bytes);
  if (!message.ok()) {
    DICE_LOG(kWarning) << name() << ": decode error: " << message.status().ToString();
    return;
  }
  if (std::holds_alternative<bgp::OpenMessage>(*message)) {
    // Peer's OPEN: make sure ours is out, then confirm with a KEEPALIVE
    // (RFC 4271 FSM: OpenSent -> OpenConfirm).
    if (!sent_open_) {
      bgp::OpenMessage open;
      open.my_as = local_as_;
      open.bgp_id = local_id_;
      Send(bgp::Message(open));
      sent_open_ = true;
    }
    Send(bgp::Message(bgp::KeepaliveMessage{}));
    return;
  }
  if (std::holds_alternative<bgp::KeepaliveMessage>(*message)) {
    if (sent_open_ && !established_) {
      established_ = true;
    }
    // Echo a keepalive so the peer's hold timer stays fresh across quiet
    // stretches of the trace (the feed keeps no timers of its own).
    Send(bgp::Message(bgp::KeepaliveMessage{}));
    return;
  }
  if (const auto* update = std::get_if<bgp::UpdateMessage>(&*message)) {
    ++updates_received_;
    if (observer_) {
      observer_(*update);
    }
    return;
  }
  if (std::holds_alternative<bgp::NotificationMessage>(*message)) {
    established_ = false;
    sent_open_ = false;
  }
}

void BgpFeedNode::OnLinkUp(net::NodeId peer) {
  if (peer_ == 0) {
    peer_ = peer;
  }
  if (peer == peer_ && !sent_open_) {
    bgp::OpenMessage open;
    open.my_as = local_as_;
    open.bgp_id = local_id_;
    Send(bgp::Message(open));
    sent_open_ = true;
  }
}

void BgpFeedNode::OnLinkDown(net::NodeId peer) {
  if (peer == peer_) {
    established_ = false;
    sent_open_ = false;
  }
}

void BgpFeedNode::Send(const bgp::Message& message) {
  network_->Send(id(), peer_, bgp::Encode(message));
}

void ScheduleTrace(net::EventLoop* loop, BgpFeedNode* feed, const Trace& trace,
                   net::SimTime start) {
  for (const TraceEvent& ev : trace.events) {
    loop->At(start + ev.at, [feed, update = ev.update] { feed->SendUpdate(update); });
  }
}

void ScheduleTrace(net::Network* network, BgpFeedNode* feed, const Trace& trace,
                   net::SimTime start) {
  ScheduleTrace(network->loop(), feed, trace, start);
}

}  // namespace dice::trace
