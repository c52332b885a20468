// Shared helpers for the transport test suites: a scriptable fake
// ExplorationService (controllable epochs, recordable checkpoint times) and
// small builders for batches and addresses.

#ifndef TESTS_TRANSPORT_TEST_UTIL_H_
#define TESTS_TRANSPORT_TEST_UTIL_H_

#include <unistd.h>

#include <mutex>
#include <string>
#include <utility>

#include "src/dice/exploration_service.h"
#include "src/transport/address.h"
#include "src/util/strings.h"

namespace dice::transport {

// Deterministic, dependency-free ExplorationService: TakeCheckpoint bumps an
// epoch and records `now`; ExecuteBatch validates the epoch like the real
// service and answers one synthetic NarrowReply per update whose fields
// encode what the server saw (so the client can assert end-to-end content).
class FakeService : public ExplorationService {
 public:
  explicit FakeService(std::string name, uint64_t start_epoch = 0)
      : name_(std::move(name)), epoch_(start_epoch) {}

  const std::string& domain_name() const override { return name_; }

  uint64_t TakeCheckpoint(net::SimTime now) override {
    std::lock_guard<std::mutex> lock(mu_);
    last_checkpoint_now_ = now;
    return ++epoch_;
  }

  StatusOr<ExploratoryBatchReply> ExecuteBatch(
      const ExploratoryBatchRequest& request) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (epoch_ == 0) {
      return FailedPreconditionError(name_ + ": no checkpoint taken yet");
    }
    if (request.checkpoint_epoch != epoch_) {
      return FailedPreconditionError(StrFormat(
          "%s: batch targets checkpoint epoch %llu but current epoch is %llu",
          name_.c_str(), static_cast<unsigned long long>(request.checkpoint_epoch),
          static_cast<unsigned long long>(epoch_)));
    }
    ExploratoryBatchReply reply;
    reply.checkpoint_epoch = request.checkpoint_epoch;
    for (const bgp::UpdateMessage& update : request.updates) {
      NarrowReply narrow;
      if (!update.nlri.empty()) {
        narrow.prefix = update.nlri.front();
        narrow.accepted = true;
        narrow.adopted_as_best = true;
      } else if (!update.withdrawn.empty()) {
        narrow.prefix = update.withdrawn.front();
      }
      narrow.would_propagate = epoch_;  // lets tests see which epoch answered
      reply.replies.push_back(narrow);
    }
    reply.counters.clones_materialized = reply.replies.size();
    ++batches_;
    return reply;
  }

  uint64_t epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return epoch_;
  }
  net::SimTime last_checkpoint_now() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_checkpoint_now_;
  }
  uint64_t batches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batches_;
  }


 private:
  std::string name_;
  mutable std::mutex mu_;
  uint64_t epoch_ = 0;
  net::SimTime last_checkpoint_now_ = 0;
  uint64_t batches_ = 0;
};

inline bgp::UpdateMessage TestAnnounce(const char* prefix) {
  bgp::UpdateMessage update;
  update.attrs.origin = bgp::Origin::kIgp;
  update.attrs.as_path = bgp::AsPath::Sequence({3, 1, 100});
  update.attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.3");
  update.nlri.push_back(*bgp::Prefix::Parse(prefix));
  return update;
}

inline ExploratoryBatchRequest TestBatch(uint64_t epoch,
                                         std::initializer_list<const char*> prefixes) {
  ExploratoryBatchRequest request;
  request.checkpoint_epoch = epoch;
  for (const char* prefix : prefixes) {
    request.updates.push_back(TestAnnounce(prefix));
  }
  return request;
}

// Process-unique addresses so parallel ctest invocations never collide.
inline Address UniqueUnixAddress(const char* tag) {
  static int counter = 0;
  return *Address::Parse(StrFormat("unix:/tmp/dice_%s_%d_%d.sock", tag,
                                   static_cast<int>(::getpid()), counter++));
}

inline Address LoopbackAddress() { return *Address::Parse("tcp:127.0.0.1:0"); }

}  // namespace dice::transport

#endif  // TESTS_TRANSPORT_TEST_UTIL_H_
