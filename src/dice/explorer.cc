#include "src/dice/explorer.h"

#include <algorithm>

#include "src/util/strings.h"

namespace dice {

std::string ExplorationReport::Summary() const {
  std::string out = StrFormat(
      "runs=%llu unique_paths=%llu branches=%llu accepted=%llu rejected=%llu "
      "intercepted=%llu clones=%llu detections=%zu",
      static_cast<unsigned long long>(concolic.runs),
      static_cast<unsigned long long>(concolic.unique_paths),
      static_cast<unsigned long long>(concolic.branches_covered),
      static_cast<unsigned long long>(runs_accepted),
      static_cast<unsigned long long>(runs_rejected),
      static_cast<unsigned long long>(intercepted.size()),
      static_cast<unsigned long long>(clones_made), detections.size());
  out += StrFormat(" clones_avoided=%llu clones_materialized=%llu",
                   static_cast<unsigned long long>(clones_avoided),
                   static_cast<unsigned long long>(clones_materialized));
  out += StrFormat(" cache_hits=%llu cache_misses=%llu sliced_atoms=%llu",
                   static_cast<unsigned long long>(solver.cache_hits),
                   static_cast<unsigned long long>(solver.cache_misses),
                   static_cast<unsigned long long>(solver.atoms_sliced));
  if (solver.cache_preloaded_hits > 0) {
    out += StrFormat(" preloaded_hits=%llu",
                     static_cast<unsigned long long>(solver.cache_preloaded_hits));
  }
  if (first_detection_run.has_value()) {
    out += StrFormat(" first_detection_run=%llu",
                     static_cast<unsigned long long>(*first_detection_run));
  }
  return out;
}

Explorer::Explorer(ExplorerOptions options)
    : options_(std::move(options)), solver_(options_.concolic.solver) {}

void Explorer::AddChecker(std::unique_ptr<Checker> checker) {
  checkers_.push_back(std::move(checker));
}

void Explorer::TakeCheckpoint(const bgp::Router& router, net::SimTime now) {
  TakeCheckpoint(router.CheckpointState(), router.PeerViews(), now);
}

void Explorer::TakeCheckpoint(const bgp::RouterState& state, std::vector<bgp::PeerView> peers,
                              net::SimTime now) {
  checkpoints_.Take(state, std::move(peers), now);
  for (auto& checker : checkers_) {
    checker->OnCheckpoint(checkpoints_.current().state);
  }
}

sym::Program Explorer::MakeProgram(bgp::UpdateMessage seed, bgp::PeerId from) {
  // Each invocation is one exploration run: fresh clone, isolated sink, the
  // instrumented processing path, then the checkers.
  return [this, seed = std::move(seed), from](sym::Engine& engine) {
    checkpoint::CloneHandle handle = checkpoints_.CloneLazy();
    if (!options_.lazy_clones) {
      handle.Mutable();  // eager baseline: pay the copy up front, as before
    }
    const uint64_t run_index = report_.clones_made++;  // one clone per run

    const checkpoint::Checkpoint& cp = checkpoints_.current();
    const bgp::PeerView* from_view = nullptr;
    for (const bgp::PeerView& peer : cp.peers) {
      if (peer.id == from) {
        from_view = &peer;
      }
    }
    bgp::PeerView fallback;
    if (from_view == nullptr) {
      fallback.id = from;
      fallback.established = true;
      from_view = &fallback;
    }

    bgp::UpdateSink sink = [this](bgp::PeerId to, const bgp::UpdateMessage& update) {
      report_.intercepted.push_back(InterceptedMessage{to, update});
    };

    ExplorationOutcome outcome = ExploreUpdateOnClone(engine, handle, cp.peers, *from_view, seed,
                                                      options_.spec, sink);
    if (outcome.installed) {
      ++report_.runs_accepted;
    } else {
      ++report_.runs_rejected;
    }
    if (handle.materialized()) {
      ++report_.clones_materialized;
    } else {
      ++report_.clones_avoided;
    }

    if (options_.measure_memory) {
      checkpoint::MemoryStats stats = checkpoints_.CloneSharing(handle.read());
      double fraction = stats.UniquePageFraction();
      report_.memory.runs_measured += 1;
      report_.memory.unique_page_fraction_sum += fraction;
      report_.memory.unique_page_fraction_max =
          std::max(report_.memory.unique_page_fraction_max, fraction);
      report_.memory.unique_pages_sum += stats.unique_pages;
      report_.memory.unique_pages_max =
          std::max(report_.memory.unique_pages_max, stats.unique_pages);
      // Engine-side memory for this run's recorded constraints (the analogue
      // of the Oasis bookkeeping the exploring children carry).
      uint64_t constraint_bytes = 0;
      for (const sym::BranchRecord& b : engine.path()) {
        constraint_bytes += b.predicate->NodeCount() * sizeof(sym::Expr);
      }
      report_.memory.constraint_bytes_sum += constraint_bytes;
      report_.memory.constraint_bytes_max =
          std::max(report_.memory.constraint_bytes_max, constraint_bytes);
    }

    RunInfo info;
    info.run_index = run_index;
    info.outcome = &outcome;
    info.clone_after = &handle.read();
    info.from = from_view;
    info.peers = &cp.peers;
    size_t before = report_.detections.size();
    for (auto& checker : checkers_) {
      checker->OnRun(info, &report_.detections);
    }
    if (report_.detections.size() > before && !report_.first_detection_run.has_value()) {
      report_.first_detection_run = run_index;
    }
  };
}

void Explorer::StartExploration(const bgp::UpdateMessage& seed, bgp::PeerId from) {
  report_ = ExplorationReport{};
  driver_ = std::make_unique<sym::ConcolicDriver>(options_.concolic, &solver_);
  driver_->StartIncremental(MakeProgram(seed, from));
  report_.concolic = driver_->stats();
  report_.solver = driver_->solver_stats();
}

bool Explorer::Step() {
  if (driver_ == nullptr) {
    return false;
  }
  bool more = driver_->StepIncremental();
  report_.concolic = driver_->stats();
  report_.solver = driver_->solver_stats();
  return more;
}

size_t Explorer::ExploreSeed(const bgp::UpdateMessage& seed, bgp::PeerId from) {
  StartExploration(seed, from);
  while (Step()) {
  }
  return report_.concolic.runs;
}

}  // namespace dice
