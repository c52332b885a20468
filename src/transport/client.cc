#include "src/transport/client.h"

#include <time.h>

#include <algorithm>
#include <utility>

#include "src/transport/stream.h"
#include "src/util/bytes.h"
#include "src/util/strings.h"

namespace dice::transport {
namespace {

// Reconnect backoff pauses only — nothing deterministic reads the clock.
void SleepMs(int ms) {
  struct timespec ts;
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000;
  (void)nanosleep(&ts, nullptr);
}

class SocketClientTransport : public ClientTransport {
 public:
  explicit SocketClientTransport(FrameStream stream) : stream_(std::move(stream)) {}

  Status SendFrame(const Bytes& frame) override { return stream_.SendFrame(frame); }
  StatusOr<Bytes> RecvFrame(int timeout_ms) override {
    return stream_.RecvFrame(timeout_ms);
  }
  void Close() override { stream_.Close(); }

 private:
  FrameStream stream_;
};

}  // namespace

StatusOr<std::unique_ptr<ClientTransport>> DialTransport(const Address& address,
                                                         int timeout_ms) {
  DICE_ASSIGN_OR_RETURN(FrameStream stream, FrameStream::Dial(address, timeout_ms));
  return std::unique_ptr<ClientTransport>(
      std::make_unique<SocketClientTransport>(std::move(stream)));
}

RpcChannel::RpcChannel(Address address) : RpcChannel(std::move(address), Options()) {}

RpcChannel::RpcChannel(Address address, Options options)
    : address_(std::move(address)), options_(std::move(options)) {
  if (!options_.dialer) {
    options_.dialer = [](const Address& addr, int timeout_ms) {
      return DialTransport(addr, timeout_ms);
    };
  }
}

RpcChannel::~RpcChannel() { Close(); }

Status RpcChannel::Connect() {
  if (connected()) {
    return Status::Ok();
  }
  return ConnectInternal();
}

Status RpcChannel::ConnectInternal() {
  DICE_ASSIGN_OR_RETURN(transport_,
                        options_.dialer(address_, options_.connect_timeout_ms));
  Status handshake = Handshake();
  if (!handshake.ok()) {
    // A refused or garbled Hello leaves no usable connection: the next
    // Connect must dial again, not call on an unhandshaken stream.
    Invalidate();
    return handshake;
  }
  ++generation_;
  return Status::Ok();
}

Status RpcChannel::Handshake() {
  RpcRequest request;
  request.correlation_id = next_correlation_++;
  request.op = RpcOp::kHello;
  DICE_ASSIGN_OR_RETURN(RpcReply reply, Exchange(request, options_.connect_timeout_ms));
  DICE_RETURN_IF_ERROR(reply.ToStatus());
  DICE_ASSIGN_OR_RETURN(hello_, HelloReply::Parse(reply.payload));
  return Status::Ok();
}

StatusOr<RpcReply> RpcChannel::Exchange(const RpcRequest& request, int timeout_ms) {
  DICE_RETURN_IF_ERROR(transport_->SendFrame(request.Serialize()));
  DICE_ASSIGN_OR_RETURN(Bytes raw, transport_->RecvFrame(timeout_ms));
  DICE_ASSIGN_OR_RETURN(RpcReply reply, RpcReply::Parse(raw));
  if (reply.correlation_id != request.correlation_id || reply.op != request.op) {
    // The server answers a connection in request order, so this reply belongs
    // to no call in flight: the stream position is as untrustworthy as after
    // a failed checksum.
    return InvalidArgumentError(StrFormat(
        "reply (correlation id %llu, op %u) does not answer call %llu (op %u)",
        static_cast<unsigned long long>(reply.correlation_id),
        static_cast<unsigned>(reply.op),
        static_cast<unsigned long long>(request.correlation_id),
        static_cast<unsigned>(request.op)));
  }
  return reply;
}

Status RpcChannel::Reconnect() {
  Invalidate();
  int backoff_ms = options_.reconnect_backoff_ms;
  Status last = InternalError("reconnect never attempted");
  for (int attempt = 0; attempt <= options_.reconnect_attempts; ++attempt) {
    if (attempt > 0) {
      SleepMs(backoff_ms);
      backoff_ms = std::min(backoff_ms * 2, 1000);
    }
    last = ConnectInternal();
    if (last.ok()) {
      ++reconnects_;
      return Status::Ok();
    }
  }
  return Status(last.code(),
                StrFormat("reconnect to %s failed after %d attempts: %s",
                          address_.ToString().c_str(), options_.reconnect_attempts + 1,
                          last.message().c_str()));
}

void RpcChannel::Close() {
  if (transport_ != nullptr) {
    transport_->Close();
  }
  Invalidate();
}

void RpcChannel::Invalidate() { transport_.reset(); }

StatusOr<RpcReply> RpcChannel::Call(uint32_t domain_id, RpcOp op, Bytes payload) {
  DICE_RETURN_IF_ERROR(Connect());
  RpcRequest request;
  request.correlation_id = next_correlation_++;
  request.domain_id = domain_id;
  request.op = op;
  request.payload = std::move(payload);
  StatusOr<RpcReply> reply = Exchange(request, options_.call_timeout_ms);
  if (!reply.ok()) {
    Invalidate();
  }
  return reply;
}

SocketExplorationService::SocketExplorationService(std::shared_ptr<RpcChannel> channel,
                                                   uint32_t domain_id,
                                                   std::string domain_name)
    : channel_(std::move(channel)),
      domain_id_(domain_id),
      domain_name_(std::move(domain_name)),
      seen_generation_(channel_->generation()) {}

StatusOr<uint64_t> SocketExplorationService::CheckpointOnWire(net::SimTime now) {
  ByteWriter writer;
  writer.PutU64(now);
  StatusOr<RpcReply> reply =
      channel_->Call(domain_id_, RpcOp::kTakeCheckpoint, writer.bytes());
  if (!reply.ok()) {
    // Transport-level failure: one reconnect cycle, then one retry.
    DICE_RETURN_IF_ERROR(channel_->Reconnect());
    reply = channel_->Call(domain_id_, RpcOp::kTakeCheckpoint, writer.bytes());
    if (!reply.ok()) {
      return reply.status();
    }
  }
  DICE_RETURN_IF_ERROR(reply.value().ToStatus());
  ByteReader reader(reply.value().payload);
  DICE_ASSIGN_OR_RETURN(uint64_t epoch, reader.ReadU64());
  if (!reader.AtEnd()) {
    return InvalidArgumentError("checkpoint reply carries trailing bytes");
  }
  if (epoch == 0) {
    return InternalError(domain_name_ + ": server reported checkpoint epoch 0");
  }
  return epoch;
}

uint64_t SocketExplorationService::TakeCheckpoint(net::SimTime now) {
  StatusOr<uint64_t> epoch = CheckpointOnWire(now);
  if (!epoch.ok()) {
    // The interface has no error path; 0 means "no checkpoint", which the
    // explorer already treats as a degraded (skippable) domain.
    return 0;
  }
  server_epoch_ = epoch.value();
  last_checkpoint_now_ = now;
  seen_generation_ = channel_->generation();
  ++public_epoch_;
  return public_epoch_;
}

Status SocketExplorationService::RevalidateEpoch() {
  // After a reconnect the server may be a warm-restarted process. Its Hello
  // tells us which epoch it is at; when that still matches what we believe,
  // nothing was lost. Otherwise re-take the checkpoint at the remembered
  // sim-time so the wire epoch describes the same state snapshot.
  const HelloDomain* found = nullptr;
  for (const HelloDomain& domain : channel_->hello().domains) {
    if (domain.id == domain_id_) {
      found = &domain;
      break;
    }
  }
  if (found == nullptr || found->name != domain_name_) {
    return NotFoundError(StrFormat(
        "domain '%s' (id %u) is no longer served at %s", domain_name_.c_str(),
        static_cast<unsigned>(domain_id_), channel_->address().ToString().c_str()));
  }
  if (found->epoch != server_epoch_ || server_epoch_ == 0) {
    DICE_ASSIGN_OR_RETURN(server_epoch_, CheckpointOnWire(last_checkpoint_now_));
    ++revalidations_;
  }
  seen_generation_ = channel_->generation();
  return Status::Ok();
}

StatusOr<ExploratoryBatchReply> SocketExplorationService::ExecuteBatch(
    const ExploratoryBatchRequest& request) {
  if (public_epoch_ == 0) {
    return FailedPreconditionError(domain_name_ +
                                   ": batch received before any checkpoint was taken");
  }
  if (request.checkpoint_epoch != public_epoch_) {
    // Enforced locally against the *public* epoch space: a restarted server's
    // low epoch numbers must never alias a stale caller epoch into a match.
    return FailedPreconditionError(StrFormat(
        "%s: batch targets checkpoint epoch %llu but current epoch is %llu",
        domain_name_.c_str(),
        static_cast<unsigned long long>(request.checkpoint_epoch),
        static_cast<unsigned long long>(public_epoch_)));
  }
  DICE_RETURN_IF_ERROR(channel_->Connect());
  if (channel_->generation() != seen_generation_) {
    DICE_RETURN_IF_ERROR(RevalidateEpoch());
  }
  ExploratoryBatchRequest wire = request;
  auto call = [&]() {
    wire.checkpoint_epoch = server_epoch_;
    Bytes payload = wire.Serialize();
    request_bytes_ += payload.size();
    return channel_->Call(domain_id_, RpcOp::kExecuteBatch, std::move(payload));
  };
  StatusOr<RpcReply> reply = call();
  if (!reply.ok()) {
    // Transport died mid-call (maybe mid-batch). Reconnect, re-validate the
    // epoch against the (possibly restarted) server, and retry once; the
    // batch is idempotent — it only reads checkpoint clones.
    DICE_RETURN_IF_ERROR(channel_->Reconnect());
    DICE_RETURN_IF_ERROR(RevalidateEpoch());
    reply = call();
    if (!reply.ok()) {
      return reply.status();
    }
  }
  DICE_RETURN_IF_ERROR(reply.value().ToStatus());
  reply_bytes_ += reply.value().payload.size();
  DICE_ASSIGN_OR_RETURN(ExploratoryBatchReply parsed,
                        ExploratoryBatchReply::Parse(reply.value().payload));
  // The caller thinks in public epochs; translate back before handing over.
  parsed.checkpoint_epoch = public_epoch_;
  return parsed;
}

StatusOr<std::vector<std::unique_ptr<ExplorationService>>> ConnectRemoteDomains(
    const Address& address) {
  return ConnectRemoteDomains(address, RpcChannel::Options());
}

StatusOr<std::vector<std::unique_ptr<ExplorationService>>> ConnectRemoteDomains(
    const Address& address, RpcChannel::Options options) {
  auto channel = std::make_shared<RpcChannel>(address, std::move(options));
  Status connected = channel->Connect();
  if (!connected.ok()) {
    // The server may still be coming up; give it the backoff schedule.
    DICE_RETURN_IF_ERROR(channel->Reconnect());
  }
  if (channel->hello().domains.empty()) {
    return FailedPreconditionError("server at " + address.ToString() +
                                   " announces no domains");
  }
  std::vector<std::unique_ptr<ExplorationService>> stubs;
  stubs.reserve(channel->hello().domains.size());
  for (const HelloDomain& domain : channel->hello().domains) {
    stubs.push_back(std::make_unique<SocketExplorationService>(channel, domain.id,
                                                               domain.name));
  }
  return stubs;
}

}  // namespace dice::transport
