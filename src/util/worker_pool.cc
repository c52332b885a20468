#include "src/util/worker_pool.h"

#include "src/util/logging.h"

namespace dice::util {

WorkerPool::WorkerPool(size_t workers) {
  if (workers == 0) {
    workers = 1;
  }
  threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerMain(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  // Workers exit only once the queue is empty, so every task submitted
  // before destruction runs.
  for (std::thread& t : threads_) {
    t.join();
  }
}

void WorkerPool::Submit(std::function<void()> task) {
  DICE_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    DICE_CHECK(!stopping_) << "Submit on a stopping WorkerPool";
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
}

void WorkerPool::WorkerMain() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      return;  // stopping_ set and nothing left to do
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

}  // namespace dice::util
