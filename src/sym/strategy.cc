#include "src/sym/strategy.h"

#include <algorithm>

namespace dice::sym {
namespace {

NegationCandidate MakeCandidate(std::shared_ptr<const Path> path, size_t index,
                                std::shared_ptr<const Assignment> assignment) {
  NegationCandidate c;
  c.path = std::move(path);
  c.parent_assignment = std::move(assignment);
  c.depth = index;
  c.bound = index + 1;
  return c;
}

// Invokes fn(i) for every flip index of `path` whose flip hash is new to
// `attempted`. Flip hashes share the path's rolling prefix hash, so a whole
// batch costs O(L) instead of the O(L^2) of HashDecisionsWithFlip per index
// (the values are identical).
template <typename Fn>
void ForEachNewFlip(const Path& path, std::set<uint64_t>& attempted, Fn fn) {
  uint64_t prefix_hash = 0x2545f4914f6cdd1dULL;
  for (size_t i = 0; i < path.size(); ++i) {
    uint64_t flip_hash = HashCombine(prefix_hash, path[i].site * 2 + (path[i].taken ? 0 : 1));
    prefix_hash = HashCombine(prefix_hash, path[i].site * 2 + (path[i].taken ? 1 : 0));
    if (attempted.insert(flip_hash).second) {
      fn(i);
    }
  }
}

// Copies of the path/assignment shared by its candidates, made only if some
// candidate actually materializes — re-explored paths (warm steady state)
// usually dedupe every flip and should copy nothing.
class SharedParent {
 public:
  SharedParent(const Path& path, const Assignment& assignment)
      : path_(path), assignment_(assignment) {}

  NegationCandidate Candidate(size_t index) {
    if (shared_path_ == nullptr) {
      shared_path_ = std::make_shared<const Path>(path_);
      shared_assignment_ = std::make_shared<const Assignment>(assignment_);
    }
    return MakeCandidate(shared_path_, index, shared_assignment_);
  }

 private:
  const Path& path_;
  const Assignment& assignment_;
  std::shared_ptr<const Path> shared_path_;
  std::shared_ptr<const Assignment> shared_assignment_;
};

}  // namespace

uint64_t HashDecisions(const Path& path) {
  uint64_t h = 0x2545f4914f6cdd1dULL;
  for (const BranchRecord& b : path) {
    h = HashCombine(h, b.site * 2 + (b.taken ? 1 : 0));
  }
  return h;
}

uint64_t HashDecisionsWithFlip(const Path& path, size_t flip_index) {
  uint64_t h = 0x2545f4914f6cdd1dULL;
  for (size_t i = 0; i <= flip_index && i < path.size(); ++i) {
    bool taken = path[i].taken;
    if (i == flip_index) {
      taken = !taken;
    }
    h = HashCombine(h, path[i].site * 2 + (taken ? 1 : 0));
  }
  return h;
}

// --- GenerationalStrategy ---------------------------------------------------

void GenerationalStrategy::AddPath(const Path& path, const Assignment& assignment, size_t bound) {
  // No strategy applies the generational bound: every index whose flip hash
  // is new gets offered. attempted_ holds flip hashes only, not the decision
  // prefixes of executed paths, so a child may flip back the branch whose
  // flip created it, re-derive its parent's input and re-run a known path
  // (concolic_demo: 11 runs for 6 unique paths). A known waste, recorded as
  // a FOUND line on this file in CHANGES.md.
  (void)bound;
  for (const BranchRecord& b : path) {
    if (covered_.insert({b.site, b.taken}).second) {
      // A newly covered pair stales every queued candidate targeting it.
      auto it = fresh_by_target_.find({b.site, b.taken});
      if (it != fresh_by_target_.end()) {
        for (uint64_t order : it->second) {
          fresh_.erase(order);
        }
        fresh_by_target_.erase(it);
      }
    }
  }
  SharedParent parent(path, assignment);
  ForEachNewFlip(path, attempted_, [&](size_t i) {
    uint64_t order = next_order_++;
    queue_.emplace(order, parent.Candidate(i));
    SiteOutcome target{path[i].site, !path[i].taken};
    if (covered_.count(target) == 0) {
      fresh_.insert(order);
      fresh_by_target_[target].insert(order);
    }
  });
}

std::optional<NegationCandidate> GenerationalStrategy::Next() {
  if (queue_.empty()) {
    return std::nullopt;
  }
  // Prefer candidates that flip a (site, outcome) pair never covered; among
  // those, FIFO (smallest insertion order). Nothing fresh: plain FIFO.
  auto it = fresh_.empty() ? queue_.begin() : queue_.find(*fresh_.begin());
  uint64_t order = it->first;
  NegationCandidate out = std::move(it->second);
  queue_.erase(it);
  if (fresh_.erase(order) != 0) {
    SiteOutcome target{out.negated().site, !out.negated().taken};
    auto by_target = fresh_by_target_.find(target);
    if (by_target != fresh_by_target_.end()) {
      by_target->second.erase(order);
      if (by_target->second.empty()) {
        fresh_by_target_.erase(by_target);
      }
    }
  }
  return out;
}

// --- DfsStrategy -------------------------------------------------------------

void DfsStrategy::AddPath(const Path& path, const Assignment& assignment, size_t bound) {
  (void)bound;  // unapplied, see GenerationalStrategy::AddPath
  // Push shallow-to-deep so the deepest pops first.
  SharedParent parent(path, assignment);
  ForEachNewFlip(path, attempted_,
                 [&](size_t i) { stack_.push_back(parent.Candidate(i)); });
}

std::optional<NegationCandidate> DfsStrategy::Next() {
  if (stack_.empty()) {
    return std::nullopt;
  }
  NegationCandidate out = std::move(stack_.back());
  stack_.pop_back();
  return out;
}

// --- BfsStrategy -------------------------------------------------------------

void BfsStrategy::AddPath(const Path& path, const Assignment& assignment, size_t bound) {
  (void)bound;  // unapplied, see GenerationalStrategy::AddPath
  SharedParent parent(path, assignment);
  ForEachNewFlip(path, attempted_,
                 [&](size_t i) { queue_.push_back(parent.Candidate(i)); });
}

std::optional<NegationCandidate> BfsStrategy::Next() {
  if (queue_.empty()) {
    return std::nullopt;
  }
  NegationCandidate out = std::move(queue_.front());
  queue_.pop_front();
  return out;
}

// --- RandomStrategy ----------------------------------------------------------

void RandomStrategy::AddPath(const Path& path, const Assignment& assignment, size_t bound) {
  (void)bound;  // unapplied, see GenerationalStrategy::AddPath
  SharedParent parent(path, assignment);
  ForEachNewFlip(path, attempted_,
                 [&](size_t i) { pool_.push_back(parent.Candidate(i)); });
}

std::optional<NegationCandidate> RandomStrategy::Next() {
  if (pool_.empty()) {
    return std::nullopt;
  }
  size_t i = rng_.NextBelow(pool_.size());
  std::swap(pool_[i], pool_.back());
  NegationCandidate out = std::move(pool_.back());
  pool_.pop_back();
  return out;
}

std::unique_ptr<SearchStrategy> MakeStrategy(const std::string& name, uint64_t seed) {
  if (name == "dfs") {
    return std::make_unique<DfsStrategy>();
  }
  if (name == "bfs") {
    return std::make_unique<BfsStrategy>();
  }
  if (name == "random") {
    return std::make_unique<RandomStrategy>(seed);
  }
  return std::make_unique<GenerationalStrategy>();
}

}  // namespace dice::sym
