#ifndef HYPERTUNE_COMMON_THREAD_POOL_H_
#define HYPERTUNE_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"

namespace hypertune {

/// A fixed-size thread pool with a FIFO task queue.
///
/// No library component uses it yet; thread_pool_test is its only caller.
/// Tasks are void() callables; result plumbing is the caller's
/// responsibility (e.g. via shared state + WaitIdle()).
class ThreadPool {
 public:
  /// Spawns `num_threads` worker threads (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution. Thread-safe.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Blocks until the queue is empty and all workers are idle.
  void WaitIdle() EXCLUDES(mu_);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop() EXCLUDES(mu_);

  Mutex mu_{LockRank::kThreadPool, "thread_pool.queue"};
  CondVar task_available_;
  CondVar all_idle_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  std::vector<std::thread> threads_;  // written in ctor only, then immutable
  size_t active_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
};

}  // namespace hypertune

#endif  // HYPERTUNE_COMMON_THREAD_POOL_H_
