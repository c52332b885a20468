// BgpFeedNode: a lightweight BGP speaker that impersonates "the rest of the
// Internet" (Fig. 2). It completes the session handshake and injects trace
// UPDATEs, but keeps no RIB — so replaying the paper-scale table does not
// require a second full router in memory. Inbound UPDATEs from the router
// under test are counted and discarded.
//
// TraceReplayer schedules a Trace's events onto the feed at their timestamps.

#ifndef SRC_TRACE_FEED_H_
#define SRC_TRACE_FEED_H_

#include <functional>

#include "src/bgp/message.h"
#include "src/bgp/wire.h"
#include "src/net/network.h"
#include "src/trace/trace.h"

namespace dice::trace {

class BgpFeedNode : public net::Node {
 public:
  BgpFeedNode(net::NodeId id, std::string name, bgp::AsNumber local_as, bgp::Ipv4Address local_id,
              net::Network* network)
      : net::Node(id, std::move(name)),
        local_as_(local_as),
        local_id_(local_id),
        network_(network) {}

  // The router node this feed peers with.
  void SetPeer(net::NodeId peer) { peer_ = peer; }

  bool established() const { return established_; }
  uint64_t updates_received() const { return updates_received_; }
  uint64_t updates_sent() const { return updates_sent_; }

  // Sends one UPDATE to the peer (no-op warning if the session is not up yet).
  void SendUpdate(const bgp::UpdateMessage& update);

  // Optional hook observing UPDATEs the peer sends us (used by checkers and
  // by tests asserting what the router exported).
  using UpdateObserver = std::function<void(const bgp::UpdateMessage&)>;
  void set_update_observer(UpdateObserver observer) { observer_ = std::move(observer); }

  // net::Node:
  void OnMessage(net::NodeId from, const Bytes& bytes) override;
  void OnLinkUp(net::NodeId peer) override;
  void OnLinkDown(net::NodeId peer) override;

 private:
  void Send(const bgp::Message& message);

  bgp::AsNumber local_as_;
  bgp::Ipv4Address local_id_;
  net::Network* network_;
  net::NodeId peer_ = 0;
  bool sent_open_ = false;
  bool established_ = false;
  uint64_t updates_received_ = 0;
  uint64_t updates_sent_ = 0;
  UpdateObserver observer_;
};

// Schedules every event of `trace` onto `feed` (times relative to `start`).
void ScheduleTrace(net::EventLoop* loop, BgpFeedNode* feed, const Trace& trace,
                   net::SimTime start);

// Same, on the network's event loop.
void ScheduleTrace(net::Network* network, BgpFeedNode* feed, const Trace& trace,
                   net::SimTime start);

}  // namespace dice::trace

#endif  // SRC_TRACE_FEED_H_
