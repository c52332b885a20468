#include "src/dice/distributed.h"

#include <algorithm>
#include <optional>

#include "src/util/logging.h"

namespace dice {

DistributedExplorer::DistributedExplorer(ExplorerOptions options) : local_(std::move(options)) {}

void DistributedExplorer::AddChecker(std::unique_ptr<Checker> checker) {
  local_.AddChecker(std::move(checker));
}

void DistributedExplorer::AddRemoteService(std::unique_ptr<ExplorationService> service) {
  remotes_.push_back(std::move(service));
  remote_epochs_.push_back(0);
}

void DistributedExplorer::TakeCheckpoint(const bgp::Router& router, net::SimTime now) {
  TakeCheckpoint(router.CheckpointState(), router.PeerViews(), now);
}

void DistributedExplorer::TakeCheckpoint(const bgp::RouterState& state,
                                         std::vector<bgp::PeerView> peers, net::SimTime now) {
  local_.TakeCheckpoint(state, std::move(peers), now);
  for (size_t i = 0; i < remotes_.size(); ++i) {
    remote_epochs_[i] = remotes_[i]->TakeCheckpoint(now);
  }
}

size_t DistributedExplorer::ExploreSeed(const bgp::UpdateMessage& seed, bgp::PeerId from) {
  size_t runs = local_.ExploreSeed(seed, from);
  ConfirmRemotely();
  return runs;
}

void DistributedExplorer::ConfirmRemotely() {
  system_wide_.clear();
  remote_stats_ = RemoteBatchStats{};
  const std::vector<Detection>& detections = local_.report().detections;
  if (detections.empty() || remotes_.empty()) {
    return;
  }

  // For every local detection, extend the horizon across the network: would
  // the remote domains adopt the offending route? Their clones process the
  // exact route the provider's clone would have exported. All detections for
  // one domain ride in as few batches as remote_batch_size allows, so the
  // domain amortizes checkpoint screening and attr lookups across the batch.
  const size_t chunk = remote_batch_size_ == 0 ? detections.size() : remote_batch_size_;

  // verdicts[remote][detection]: nullopt when the remote's batch failed.
  std::vector<std::vector<std::optional<NarrowReply>>> verdicts(
      remotes_.size(),
      std::vector<std::optional<NarrowReply>>(detections.size(), std::nullopt));
  for (size_t ri = 0; ri < remotes_.size(); ++ri) {
    ExplorationService& remote = *remotes_[ri];
    for (size_t begin = 0; begin < detections.size(); begin += chunk) {
      size_t end = std::min(begin + chunk, detections.size());
      ExploratoryBatchRequest batch;
      batch.checkpoint_epoch = remote_epochs_[ri];
      batch.updates.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        batch.updates.push_back(detections[i].input);
      }
      ++remote_stats_.batches_sent;
      remote_stats_.updates_sent += batch.updates.size();
      StatusOr<ExploratoryBatchReply> reply = remote.ExecuteBatch(batch);
      if (!reply.ok()) {
        // A failing domain degrades to "unconfirmed there", never to a crash
        // of the provider-side exploration.
        ++remote_stats_.batch_errors;
        DICE_LOG(kWarning) << remote.domain_name()
                           << ": batch failed: " << reply.status().ToString();
        continue;
      }
      if (reply->replies.size() != batch.updates.size()) {
        ++remote_stats_.batch_errors;
        DICE_LOG(kWarning) << remote.domain_name() << ": batch returned "
                           << reply->replies.size() << " replies for "
                           << batch.updates.size() << " updates";
        continue;
      }
      remote_stats_.replies_received += reply->replies.size();
      remote_stats_.counters.clones_materialized += reply->counters.clones_materialized;
      remote_stats_.counters.clones_avoided += reply->counters.clones_avoided;
      remote_stats_.counters.screen_cache_hits += reply->counters.screen_cache_hits;
      for (size_t i = 0; i < reply->replies.size(); ++i) {
        verdicts[ri][begin + i] = reply->replies[i];
      }
    }
  }

  for (size_t di = 0; di < detections.size(); ++di) {
    SystemWideDetection sw;
    sw.local = detections[di];
    for (size_t ri = 0; ri < remotes_.size(); ++ri) {
      const std::optional<NarrowReply>& reply = verdicts[ri][di];
      if (reply.has_value() && reply->adopted_as_best) {
        sw.adopting_domains.push_back(remotes_[ri]->domain_name());
        sw.total_spread += reply->would_propagate;
      }
    }
    if (!sw.adopting_domains.empty()) {
      system_wide_.push_back(std::move(sw));
    }
  }
}

}  // namespace dice
