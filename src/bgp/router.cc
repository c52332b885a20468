#include "src/bgp/router.h"

#include "src/bgp/wire.h"
#include "src/util/logging.h"

namespace dice::bgp {

Router::Router(net::NodeId id, RouterConfig config, net::Network* network)
    : net::Node(id, config.name), network_(network) {
  state_.config = std::make_shared<const RouterConfig>(std::move(config));
}

void Router::RegisterPeerNode(Ipv4Address neighbor_address, net::NodeId node) {
  const NeighborConfig* neighbor = state_.config->FindNeighbor(neighbor_address);
  DICE_CHECK(neighbor != nullptr) << name() << ": no configured neighbor at "
                                  << neighbor_address.ToString();
  addr_to_node_[neighbor_address.bits()] = node;

  Peer peer;
  peer.node = node;
  peer.neighbor = neighbor;
  SessionCallbacks callbacks;
  callbacks.send = [this, node](const Message& message) { SendMessage(node, message); };
  callbacks.on_established = [this, node] {
    if (Peer* p = FindPeerByNode(node)) {
      HandleEstablished(*p);
    }
  };
  callbacks.on_down = [this, node] {
    if (Peer* p = FindPeerByNode(node)) {
      HandlePeerLost(*p);
    }
  };
  callbacks.on_update = [this, node](const UpdateMessage& update) {
    if (Peer* p = FindPeerByNode(node)) {
      HandleUpdate(*p, update);
    }
  };
  peer.session = std::make_unique<Session>(network_->loop(), state_.config->local_as,
                                           state_.config->router_id, neighbor->remote_as,
                                           /*hold_time_seconds=*/90, std::move(callbacks));
  peers_[node] = std::move(peer);
}

void Router::Start() {
  for (auto& [node, peer] : peers_) {
    peer.session->Start();
  }
  // Networks are placed in the RIB immediately; they are advertised to each
  // peer as its session establishes.
  auto views = PeerViews();
  OriginateNetworks(state_, views, address(),
                    [this](PeerId to, const UpdateMessage& update) {
                      SendMessage(static_cast<net::NodeId>(to), Message(update));
                    });
}

void Router::OnMessage(net::NodeId from, const Bytes& bytes) {
  Peer* peer = FindPeerByNode(from);
  if (peer == nullptr) {
    return;  // not a configured peer; ignore
  }
  StatusOr<Message> message = Decode(bytes);
  if (!message.ok()) {
    ++decode_errors_;
    DICE_LOG(kWarning) << name() << ": decode error from " << from << ": "
                       << message.status().ToString();
    return;
  }
  if (std::holds_alternative<UpdateMessage>(*message)) {
    ++updates_received_;
  }
  peer->session->OnMessage(*message);
}

void Router::OnLinkUp(net::NodeId peer_node) {
  if (Peer* peer = FindPeerByNode(peer_node)) {
    peer->session->OnLinkUp();
  }
}

void Router::OnLinkDown(net::NodeId peer_node) {
  if (Peer* peer = FindPeerByNode(peer_node)) {
    peer->session->OnLinkDown();
  }
}

SessionState Router::PeerSessionState(net::NodeId peer) const {
  const Peer* p = FindPeerByNode(peer);
  return p == nullptr ? SessionState::kIdle : p->session->state();
}

bool Router::Established(net::NodeId peer) const {
  return PeerSessionState(peer) == SessionState::kEstablished;
}

std::vector<PeerView> Router::PeerViews() const {
  std::vector<PeerView> views;
  views.reserve(peers_.size());
  for (const auto& [node, peer] : peers_) {
    views.push_back(ViewOf(peer));
  }
  return views;
}

Router::Peer* Router::FindPeerByNode(net::NodeId node) {
  auto it = peers_.find(node);
  return it == peers_.end() ? nullptr : &it->second;
}

const Router::Peer* Router::FindPeerByNode(net::NodeId node) const {
  auto it = peers_.find(node);
  return it == peers_.end() ? nullptr : &it->second;
}

PeerView Router::ViewOf(const Peer& peer) const {
  PeerView view;
  view.id = peer.node;
  view.remote_as = peer.neighbor->remote_as;
  view.address = peer.neighbor->address;
  view.established = peer.session->established();
  return view;
}

void Router::SendMessage(net::NodeId to, const Message& message) {
  if (std::holds_alternative<UpdateMessage>(message)) {
    ++updates_sent_;
  }
  network_->Send(id(), to, Encode(message));
}

void Router::HandleUpdate(Peer& peer, const UpdateMessage& update) {
  last_updates_[peer.node] = update;
  if (update_observer_) {
    update_observer_(peer.node, update);
  }
  auto views = PeerViews();
  ProcessUpdate(state_, views, ViewOf(peer), *peer.neighbor, update,
                [this](PeerId to, const UpdateMessage& out) {
                  SendMessage(static_cast<net::NodeId>(to), Message(out));
                });
}

void Router::HandleEstablished(Peer& peer) {
  DICE_LOG(kDebug) << name() << ": session with node " << peer.node << " established";
  AnnounceAllTo(state_, ViewOf(peer), *peer.neighbor, address(),
                [this](PeerId to, const UpdateMessage& out) {
                  SendMessage(static_cast<net::NodeId>(to), Message(out));
                });
}

void Router::HandlePeerLost(Peer& peer) {
  DICE_LOG(kDebug) << name() << ": session with node " << peer.node << " lost";
  auto views = PeerViews();
  HandlePeerDown(state_, views, peer.node, address(),
                 [this](PeerId to, const UpdateMessage& out) {
                   SendMessage(static_cast<net::NodeId>(to), Message(out));
                 });
}

}  // namespace dice::bgp
