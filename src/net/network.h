// In-process network: nodes, reliable ordered channels, and interception.
//
// A Network owns Nodes (protocol endpoints) and duplex Links between them.
// Each direction of a Link is a Channel delivering byte messages in order
// after a propagation delay — the reliability/ordering contract BGP gets from
// TCP. Channels support two isolation mechanisms used by DiCE:
//
//  * a Tap diverts every message sent on the channel to an observer instead of
//    the receiver (used to keep exploration clones from touching the live
//    system), and
//  * a Drop filter can discard messages (failure injection in tests).

#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/net/event_loop.h"
#include "src/util/bytes.h"
#include "src/util/logging.h"

namespace dice::net {

class Network;

// A protocol endpoint attached to the network. Subclasses implement message
// handling; the Network invokes OnMessage when a channel delivers.
class Node {
 public:
  Node(NodeId id, std::string name) : id_(id), name_(std::move(name)) {}
  virtual ~Node() = default;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

  // Called when `bytes` arrives from `from`. Delivery order per (from, this)
  // pair matches send order.
  virtual void OnMessage(NodeId from, const Bytes& bytes) = 0;

  // Called when a link to `peer` is established / torn down.
  virtual void OnLinkUp(NodeId peer) { (void)peer; }
  virtual void OnLinkDown(NodeId peer) { (void)peer; }

 private:
  NodeId id_;
  std::string name_;
};

// Observer that receives messages diverted from a tapped channel.
class MessageTap {
 public:
  virtual ~MessageTap() = default;
  virtual void OnTappedMessage(NodeId from, NodeId to, const Bytes& bytes) = 0;
};

// Records tapped messages; the standard tap used by DiCE's isolation layer
// and by tests asserting that exploration never reaches the live network.
class RecordingTap : public MessageTap {
 public:
  struct Entry {
    NodeId from;
    NodeId to;
    Bytes bytes;
  };

  void OnTappedMessage(NodeId from, NodeId to, const Bytes& bytes) override {
    entries_.push_back(Entry{from, to, bytes});
  }

  const std::vector<Entry>& entries() const { return entries_; }
  size_t count() const { return entries_.size(); }
  void Clear() { entries_.clear(); }

 private:
  std::vector<Entry> entries_;
};

// One direction of a link: from -> to, FIFO, fixed propagation delay.
// Delivery is scheduled on the owning Network's event loop.
class Channel {
 public:
  Channel(Network* network, NodeId from, NodeId to, SimTime delay)
      : network_(network), from_(from), to_(to), delay_(delay) {}

  NodeId from() const { return from_; }
  NodeId to() const { return to_; }
  SimTime delay() const { return delay_; }

  void set_tap(MessageTap* tap) { tap_ = tap; }
  MessageTap* tap() const { return tap_; }

  // Drop filter: return true to discard the message (failure injection).
  using DropFilter = std::function<bool(const Bytes&)>;
  void set_drop_filter(DropFilter filter) { drop_filter_ = std::move(filter); }

  void set_up(bool up) { up_ = up; }
  bool up() const { return up_; }

  // Sends `bytes`; `deliver` is invoked at the receiver after the delay unless
  // the channel is tapped, down, or the drop filter discards the message.
  // Defined below Network (delivery uses its loop).
  void Send(const Bytes& bytes, std::function<void(NodeId, const Bytes&)> deliver);

  uint64_t sent_count() const { return sent_count_; }
  uint64_t delivered_count() const { return delivered_count_; }
  uint64_t dropped_count() const { return dropped_count_; }

 private:
  Network* network_;
  NodeId from_;
  NodeId to_;
  SimTime delay_;
  MessageTap* tap_ = nullptr;
  DropFilter drop_filter_;
  bool up_ = true;
  uint64_t sent_count_ = 0;
  uint64_t delivered_count_ = 0;
  uint64_t dropped_count_ = 0;
};

// Owns nodes and channels; the top-level simulation object.
class Network {
 public:
  explicit Network(EventLoop* loop) : loop_(loop) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // The event loop that runs every node's callbacks, timers, and deliveries.
  EventLoop* loop() const { return loop_; }

  // Registers `node`; the Network does not take ownership (routers typically
  // live in test/bench scope). Node ids must be unique.
  void AddNode(Node* node) {
    DICE_CHECK(nodes_.find(node->id()) == nodes_.end())
        << "duplicate node id " << node->id();
    nodes_[node->id()] = node;
  }

  Node* GetNode(NodeId id) const {
    auto it = nodes_.find(id);
    return it == nodes_.end() ? nullptr : it->second;
  }

  // Creates a duplex link between `a` and `b` with symmetric delay and
  // notifies both endpoints that the link is up.
  void Connect(NodeId a, NodeId b, SimTime delay) {
    DICE_CHECK(GetNode(a) != nullptr) << "unknown node " << a;
    DICE_CHECK(GetNode(b) != nullptr) << "unknown node " << b;
    channels_[{a, b}] = std::make_unique<Channel>(this, a, b, delay);
    channels_[{b, a}] = std::make_unique<Channel>(this, b, a, delay);
    GetNode(a)->OnLinkUp(b);
    GetNode(b)->OnLinkUp(a);
  }

  // Tears down both directions of the a<->b link and notifies the endpoints.
  void Disconnect(NodeId a, NodeId b) {
    auto ab = channels_.find({a, b});
    auto ba = channels_.find({b, a});
    if (ab != channels_.end()) {
      ab->second->set_up(false);
    }
    if (ba != channels_.end()) {
      ba->second->set_up(false);
    }
    if (Node* na = GetNode(a)) {
      na->OnLinkDown(b);
    }
    if (Node* nb = GetNode(b)) {
      nb->OnLinkDown(a);
    }
  }

  Channel* GetChannel(NodeId from, NodeId to) const {
    auto it = channels_.find({from, to});
    return it == channels_.end() ? nullptr : it->second.get();
  }

  // Sends `bytes` from `from` to `to` over the existing channel. Returns false
  // if no channel exists.
  bool Send(NodeId from, NodeId to, const Bytes& bytes) {
    Channel* ch = GetChannel(from, to);
    if (ch == nullptr) {
      return false;
    }
    ch->Send(bytes, [this, to](NodeId src, const Bytes& b) {
      Node* node = GetNode(to);
      if (node != nullptr) {
        node->OnMessage(src, b);
      }
    });
    return true;
  }

  size_t node_count() const { return nodes_.size(); }

 private:
  EventLoop* loop_;
  std::map<NodeId, Node*> nodes_;
  std::map<std::pair<NodeId, NodeId>, std::unique_ptr<Channel>> channels_;
};

inline void Channel::Send(const Bytes& bytes,
                          std::function<void(NodeId, const Bytes&)> deliver) {
  ++sent_count_;
  if (tap_ != nullptr) {
    tap_->OnTappedMessage(from_, to_, bytes);
    return;
  }
  if (!up_) {
    ++dropped_count_;
    return;
  }
  if (drop_filter_ && drop_filter_(bytes)) {
    ++dropped_count_;
    return;
  }
  ++delivered_count_;
  NodeId from = from_;
  network_->loop()->After(
      delay_, [from, bytes, deliver = std::move(deliver)]() { deliver(from, bytes); });
}

}  // namespace dice::net

#endif  // SRC_NET_NETWORK_H_
