#ifndef HYPERTUNE_COMMON_THREAD_POOL_H_
#define HYPERTUNE_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"

namespace hypertune {

/// A fork-join pool with one operation, ParallelFor.
///
/// RandomForest::Fit grows its trees on the process-wide instance
/// (Shared()); each tree owns its random stream and its output slot, so a
/// forest is bit-identical for any number of helpers.
///
/// The calling thread works too: it claims items exactly as a helper does,
/// and when none are left it waits only for items a helper has claimed and
/// not yet finished, never for a helper that has not woken up. A pool with
/// zero helpers starts no thread and runs every loop inline. So does a call
/// that finds the pool busy, from a second thread or from inside a body:
/// one loop owns the helpers at a time, and nesting cannot deadlock.
class ThreadPool {
 public:
  /// body(slot, i): `slot` in [0, num_slots()) is unique among one call's
  /// bodies running at one time (0 is the calling thread), so it can index
  /// that call's per-slot scratch.
  using Body = std::function<void(size_t slot, size_t i)>;

  /// Starts `num_helpers` helper threads (none for zero).
  explicit ThreadPool(size_t num_helpers);

  /// Joins the helpers. No ParallelFor may be running.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, created on the first call with one helper per
  /// CPU of the process's affinity mask beyond the caller's own.
  static ThreadPool& Shared();

  /// Helpers plus the calling thread.
  size_t num_slots() const { return num_helpers_ + 1; }

  /// Runs body(slot, i) once for every i in [0, n). Returns only after
  /// every claimed item has finished, so bodies may reference the caller's
  /// stack. If a body throws, no further items are claimed and the first
  /// exception is rethrown here after the join.
  void ParallelFor(size_t n, const Body& body) EXCLUDES(mu_);

 private:
  void HelperLoop(size_t slot) EXCLUDES(mu_);

  /// Stops the helpers and joins them.
  void JoinHelpers() EXCLUDES(mu_);

  /// Records the first exception of the current loop and ends its claims.
  void Fail(std::exception_ptr error) REQUIRES(mu_);

  const size_t num_helpers_;
  Mutex mu_{LockRank::kThreadPool, "thread_pool.queue"};
  CondVar work_available_;
  CondVar helpers_done_;
  /// The loop that owns the helpers, or null when the pool is idle.
  const Body* body_ GUARDED_BY(mu_) = nullptr;
  size_t size_ GUARDED_BY(mu_) = 0;
  /// Next unclaimed item of the loop.
  size_t next_ GUARDED_BY(mu_) = 0;
  /// Items helpers have claimed and not yet finished.
  size_t in_flight_ GUARDED_BY(mu_) = 0;
  std::exception_ptr error_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> helpers_ GUARDED_BY(mu_);
};

}  // namespace hypertune

#endif  // HYPERTUNE_COMMON_THREAD_POOL_H_
