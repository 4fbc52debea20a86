#include "src/common/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <utility>

namespace hypertune {
namespace {

/// CPUs the process may run on: its affinity mask, which taskset and
/// cpusets narrow (std::thread::hardware_concurrency() ignores both). One
/// where the mask cannot be read.
size_t AffinityCpuCount() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
#endif
  return 1;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_helpers) : num_helpers_(num_helpers) {
  try {
    MutexLock lock(mu_);
    helpers_.reserve(num_helpers);
    for (size_t slot = 1; slot <= num_helpers; ++slot) {
      helpers_.emplace_back([this, slot] { HelperLoop(slot); });
    }
  } catch (...) {
    // No destructor runs after a throwing constructor.
    JoinHelpers();
    throw;
  }
}

ThreadPool::~ThreadPool() { JoinHelpers(); }

void ThreadPool::JoinHelpers() {
  std::vector<std::thread> helpers;
  {
    MutexLock lock(mu_);
    shutdown_ = true;
    helpers.swap(helpers_);
  }
  work_available_.NotifyAll();
  for (std::thread& helper : helpers) helper.join();
}

ThreadPool& ThreadPool::Shared() {
  // Never destroyed, so no static destructor can join the helpers while
  // another thread is still inside a loop at exit.
  static ThreadPool* const pool = new ThreadPool(AffinityCpuCount() - 1);
  return *pool;
}

void ThreadPool::ParallelFor(size_t n, const Body& body) {
  bool owner = false;
  if (num_helpers_ > 0 && n > 1) {
    MutexLock lock(mu_);
    if (body_ == nullptr) {
      body_ = &body;
      size_ = n;
      next_ = 0;
      owner = true;
    }
  }
  if (!owner) {
    for (size_t i = 0; i < n; ++i) body(0, i);
    return;
  }
  // Wake no more helpers than there are items beyond the caller's first.
  for (size_t k = std::min(num_helpers_, n - 1); k > 0; --k) {
    work_available_.NotifyOne();
  }

  for (;;) {
    size_t i = 0;
    {
      MutexLock lock(mu_);
      if (next_ >= size_) break;
      i = next_++;
    }
    try {
      body(0, i);
    } catch (...) {
      MutexLock lock(mu_);
      Fail(std::current_exception());
    }
  }

  std::exception_ptr error;
  {
    MutexLock lock(mu_);
    while (in_flight_ > 0) helpers_done_.Wait(mu_);
    body_ = nullptr;
    std::swap(error, error_);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::HelperLoop(size_t slot) {
  bool finished_item = false;
  for (;;) {
    const Body* body = nullptr;
    size_t i = 0;
    {
      MutexLock lock(mu_);
      if (finished_item && --in_flight_ == 0) helpers_done_.NotifyOne();
      while (!shutdown_ && (body_ == nullptr || next_ >= size_)) {
        work_available_.Wait(mu_);
      }
      if (shutdown_) return;
      body = body_;
      i = next_++;
      ++in_flight_;
    }
    try {
      (*body)(slot, i);
    } catch (...) {
      MutexLock lock(mu_);
      Fail(std::current_exception());
    }
    finished_item = true;
  }
}

void ThreadPool::Fail(std::exception_ptr error) {
  if (!error_) error_ = std::move(error);
  next_ = size_;
}

}  // namespace hypertune
