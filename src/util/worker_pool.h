// A fixed-size worker pool with a simple task queue and a draining
// destructor.
//
// The transport server's request workers run on it: each decoded request is
// one submitted closure. The pool imposes no ordering — the submitter
// serializes what must be serialized — and owns no task state beyond the
// queue.
//
// Threads are started once in the constructor; the destructor lets them run
// every task submitted so far, then joins them. Submit after destruction
// begins is a programming error (checked). Tasks must not throw (the tree
// builds without exceptions in mind; a throwing task would terminate).

#ifndef SRC_UTIL_WORKER_POOL_H_
#define SRC_UTIL_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dice::util {

class WorkerPool {
 public:
  // Starts `workers` threads (at least 1).
  explicit WorkerPool(size_t workers);

  // Runs every outstanding task, then stops and joins every thread.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Enqueues `task` for execution on some worker thread.
  void Submit(std::function<void()> task);

  size_t size() const { return threads_.size(); }

 private:
  void WorkerMain();

  std::mutex mu_;
  std::condition_variable work_ready_;  // signalled on Submit / stop
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace dice::util

#endif  // SRC_UTIL_WORKER_POOL_H_
