#include "src/common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace hypertune {
namespace {

/// Counts how often ParallelFor ran each index, and checks every slot it
/// was handed.
class IndexCounter {
 public:
  IndexCounter(size_t n, size_t num_slots)
      : counts_(n), num_slots_(num_slots) {}

  ThreadPool::Body Body() {
    return [this](size_t slot, size_t i) {
      EXPECT_LT(slot, num_slots_);
      counts_[i].fetch_add(1);
    };
  }

  bool EachRanOnce() const {
    for (const std::atomic<int>& count : counts_) {
      if (count.load() != 1) return false;
    }
    return true;
  }

 private:
  std::vector<std::atomic<int>> counts_;
  size_t num_slots_;
};

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_slots(), 4u);
  for (size_t n : {0, 1, 2, 10, 1000}) {
    for (int round = 0; round < 20; ++round) {
      IndexCounter counter(n, pool.num_slots());
      pool.ParallelFor(n, counter.Body());
      EXPECT_TRUE(counter.EachRanOnce()) << "n = " << n;
    }
  }
}

TEST(ThreadPoolTest, ZeroHelpersRunEverythingInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_slots(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  pool.ParallelFor(50, [&](size_t slot, size_t i) {
    EXPECT_EQ(slot, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 50u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, NestedCallRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> inner_items{0};
  IndexCounter outer(8, pool.num_slots());
  ThreadPool::Body outer_body = outer.Body();
  pool.ParallelFor(8, [&](size_t slot, size_t i) {
    outer_body(slot, i);
    const std::thread::id body_thread = std::this_thread::get_id();
    pool.ParallelFor(5, [&](size_t inner_slot, size_t) {
      EXPECT_EQ(inner_slot, 0u);
      EXPECT_EQ(std::this_thread::get_id(), body_thread);
      inner_items.fetch_add(1);
    });
  });
  EXPECT_TRUE(outer.EachRanOnce());
  EXPECT_EQ(inner_items.load(), 8 * 5);
}

TEST(ThreadPoolTest, TwoConcurrentCallersBothComplete) {
  ThreadPool pool(2);
  constexpr int kRounds = 200;
  auto run = [&pool](bool* ok) {
    *ok = true;
    for (int round = 0; round < kRounds; ++round) {
      IndexCounter counter(64, pool.num_slots());
      pool.ParallelFor(64, counter.Body());
      *ok = *ok && counter.EachRanOnce();
    }
  };
  bool first_ok = false;
  bool second_ok = false;
  std::thread other(run, &second_ok);
  run(&first_ok);
  other.join();
  EXPECT_TRUE(first_ok);
  EXPECT_TRUE(second_ok);
}

TEST(ThreadPoolTest, HelperExceptionReachesCallerAfterJoin) {
  ThreadPool pool(1);
  std::atomic<bool> helper_started{false};
  std::atomic<bool> helper_finished{false};
  // The caller's item waits until the helper holds the other one, so the
  // helper is the one that throws; the throw must wait for its body.
  EXPECT_THROW(
      pool.ParallelFor(2,
                       [&](size_t slot, size_t) {
                         if (slot == 0) {
                           while (!helper_started.load()) {
                             std::this_thread::sleep_for(
                                 std::chrono::milliseconds(1));
                           }
                           return;
                         }
                         helper_started.store(true);
                         std::this_thread::sleep_for(
                             std::chrono::milliseconds(20));
                         helper_finished.store(true);
                         throw std::runtime_error("helper failed");
                       }),
      std::runtime_error);
  EXPECT_TRUE(helper_finished.load());

  // The pool is usable again afterwards.
  IndexCounter counter(100, pool.num_slots());
  pool.ParallelFor(100, counter.Body());
  EXPECT_TRUE(counter.EachRanOnce());
}

}  // namespace
}  // namespace hypertune
