#include "src/transport/server.h"

#include <time.h>

#include <algorithm>
#include <utility>

#include "src/util/bytes.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace dice::transport {
namespace {

// Service-time telemetry only — nothing deterministic reads these stamps.
int64_t NowUs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

constexpr int kReactorPollMs = 50;

}  // namespace

ExplorationServer::ExplorationServer() : ExplorationServer(Options()) {}

ExplorationServer::ExplorationServer(Options options) : options_(options) {}

ExplorationServer::~ExplorationServer() { Stop(); }

uint32_t ExplorationServer::AddDomain(std::unique_ptr<ExplorationService> domain,
                                      uint64_t initial_epoch) {
  auto entry = std::make_unique<Domain>();
  entry->service = std::move(domain);
  entry->last_epoch = initial_epoch;
  domains_.push_back(std::move(entry));
  return static_cast<uint32_t>(domains_.size());
}

Status ExplorationServer::AddEndpoint(const Address& address) {
  if (started_) {
    return FailedPreconditionError("endpoints are frozen once the server started");
  }
  DICE_ASSIGN_OR_RETURN(Reactor::ConnId listener, reactor_.Listen(address));
  DICE_ASSIGN_OR_RETURN(Address bound, reactor_.ListenerAddress(listener));
  bound_addresses_.push_back(bound);
  return Status::Ok();
}

StatusOr<Address> ExplorationServer::BoundAddress(size_t index) const {
  if (index >= bound_addresses_.size()) {
    return NotFoundError(StrFormat("no endpoint with index %zu", index));
  }
  return bound_addresses_[index];
}

Status ExplorationServer::Start() {
  if (started_) {
    return FailedPreconditionError("server already started");
  }
  if (options_.workers != 0) {
    return InvalidArgumentError(
        StrFormat("requests run on the reactor thread; workers must be 0, not %zu",
                  options_.workers));
  }
  if (domains_.empty()) {
    return FailedPreconditionError("server hosts no domains");
  }
  if (bound_addresses_.empty()) {
    return FailedPreconditionError("server has no endpoints");
  }
  started_ = true;
  stopping_.store(false, std::memory_order_release);
  Reactor::Handlers handlers;
  handlers.on_frame = [this](Reactor::ConnId conn, Bytes frame) {
    HandleFrame(conn, frame);
  };
  // Accepts and closes need no bookkeeping: the envelope names the domain,
  // and each reply is queued before the connection's next frame is read.
  reactor_.set_handlers(std::move(handlers));
  reactor_thread_ = std::thread([this] { ReactorMain(); });
  running_.store(true, std::memory_order_release);
  return Status::Ok();
}

void ExplorationServer::Stop() {
  if (!started_) {
    return;
  }
  stopping_.store(true, std::memory_order_release);
  if (reactor_thread_.joinable()) {
    reactor_.Wakeup();
    reactor_thread_.join();
  }
  running_.store(false, std::memory_order_release);
}

ExplorationServer::DomainStats ExplorationServer::domain_stats(
    uint32_t domain_id) const {
  if (domain_id == 0 || domain_id > domains_.size()) {
    return DomainStats{};
  }
  const Domain& domain = *domains_[domain_id - 1];
  std::lock_guard<std::mutex> lock(domain.mu);
  return domain.stats;
}

std::vector<std::string> ExplorationServer::domain_names() const {
  std::vector<std::string> names;
  names.reserve(domains_.size());
  for (const auto& domain : domains_) {
    names.push_back(domain->service->domain_name());
  }
  return names;
}

uint64_t ExplorationServer::connections_accepted() const { return reactor_.accepts(); }

void ExplorationServer::ReactorMain() {
  while (!stopping_.load(std::memory_order_acquire)) {
    StatusOr<int> polled = reactor_.Poll(kReactorPollMs);
    if (!polled.ok()) {
      DICE_LOG(kError) << "transport reactor: " << polled.status().ToString();
      break;
    }
  }
}

void ExplorationServer::HandleFrame(Reactor::ConnId conn, const Bytes& frame) {
  StatusOr<RpcRequest> request = RpcRequest::Parse(frame);
  if (!request.ok()) {
    // An envelope that fails magic/version/checksum is not trustworthy
    // enough to answer (its correlation id may be garbage): drop the
    // connection, exactly like a torn stream.
    DICE_LOG(kWarning) << "transport server: dropping connection after bad envelope: "
                      << request.status().ToString();
    reactor_.Close(conn);
    return;
  }
  Status sent = reactor_.Send(conn, Execute(request.value()).Serialize());
  if (!sent.ok()) {
    // The client waits for exactly this reply; without it the connection
    // is useless, and closing it fails the call at once.
    DICE_LOG(kWarning) << "transport server: dropping connection after unsendable reply: "
                      << sent.ToString();
    reactor_.Close(conn);
  }
}

RpcReply ExplorationServer::Execute(const RpcRequest& request) {
  if (request.op == RpcOp::kHello) {
    RpcReply reply;
    reply.correlation_id = request.correlation_id;
    reply.domain_id = request.domain_id;
    reply.op = request.op;
    reply.payload = BuildHello();
    return reply;
  }
  if (request.domain_id == 0 || request.domain_id > domains_.size()) {
    return RpcReply::FromStatus(
        request, NotFoundError(StrFormat("no domain with id %u",
                                         static_cast<unsigned>(request.domain_id))));
  }
  Domain& domain = *domains_[request.domain_id - 1];
  const int64_t start_us = NowUs();
  RpcReply reply;
  reply.correlation_id = request.correlation_id;
  reply.domain_id = request.domain_id;
  reply.op = request.op;

  std::lock_guard<std::mutex> lock(domain.mu);
  switch (request.op) {
    case RpcOp::kTakeCheckpoint: {
      ByteReader reader(request.payload);
      StatusOr<uint64_t> now = reader.ReadU64();
      if (!now.ok() || !reader.AtEnd()) {
        reply = RpcReply::FromStatus(
            request, InvalidArgumentError("checkpoint payload must be exactly a u64"));
        break;
      }
      const uint64_t epoch = domain.service->TakeCheckpoint(now.value());
      domain.last_epoch = epoch;
      ByteWriter writer;
      writer.PutU64(epoch);
      reply.payload = writer.Take();
      ++domain.stats.checkpoints;
      break;
    }
    case RpcOp::kExecuteBatch: {
      StatusOr<ExploratoryBatchRequest> batch =
          ExploratoryBatchRequest::Parse(request.payload);
      if (!batch.ok()) {
        reply = RpcReply::FromStatus(request, batch.status());
        break;
      }
      StatusOr<ExploratoryBatchReply> result =
          domain.service->ExecuteBatch(batch.value());
      if (!result.ok()) {
        reply = RpcReply::FromStatus(request, result.status());
        break;
      }
      reply.payload = result.value().Serialize();
      ++domain.stats.batches;
      break;
    }
    case RpcOp::kHello:
      break;  // unreachable: handled above
  }
  const uint64_t elapsed_us = static_cast<uint64_t>(NowUs() - start_us);
  ++domain.stats.requests;
  if (reply.status_code != StatusCode::kOk) {
    ++domain.stats.errors;
  }
  domain.stats.request_bytes += request.payload.size();
  domain.stats.reply_bytes += reply.payload.size();
  domain.stats.busy_us += elapsed_us;
  domain.stats.max_busy_us = std::max(domain.stats.max_busy_us, elapsed_us);
  return reply;
}

Bytes ExplorationServer::BuildHello() {
  HelloReply hello;
  hello.domains.reserve(domains_.size());
  for (size_t i = 0; i < domains_.size(); ++i) {
    HelloDomain entry;
    entry.id = static_cast<uint32_t>(i + 1);
    entry.name = domains_[i]->service->domain_name();
    entry.epoch = domains_[i]->last_epoch;
    hello.domains.push_back(std::move(entry));
  }
  return hello.Serialize();
}

}  // namespace dice::transport
