#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/optimizer/random_sampler.h"
#include "src/scheduler/async_bracket_scheduler.h"
#include "src/scheduler/batch_bo_scheduler.h"
#include "src/scheduler/sync_bracket_scheduler.h"

namespace hypertune {
namespace {

ConfigurationSpace WideSpace() {
  ConfigurationSpace space;
  EXPECT_TRUE(space.Add(Parameter::Float("x", 0.0, 1.0)).ok());
  EXPECT_TRUE(space.Add(Parameter::Float("y", 0.0, 1.0)).ok());
  return space;
}

ResourceLadder SmallLadder() {
  ResourceLadder ladder;
  ladder.eta = 3.0;
  ladder.num_levels = 3;
  ladder.max_resource = 9.0;
  return ladder;
}

EvalResult ResultOf(const Job& job) {
  EvalResult result;
  result.objective = job.config[0];  // error = first coordinate
  result.test_objective = job.config[0];
  result.cost_seconds = job.resource;
  return result;
}

class SyncSchedulerTest : public ::testing::Test {
 protected:
  SyncSchedulerTest()
      : space_(WideSpace()),
        store_(3),
        sampler_(&space_, &store_, 1) {}

  BracketSchedulerOptions Options(BracketPolicy policy) {
    BracketSchedulerOptions options;
    options.ladder = SmallLadder();
    options.selector.policy = policy;
    options.selector.fixed_bracket = 1;
    return options;
  }

  ConfigurationSpace space_;
  MeasurementStore store_;
  RandomSampler sampler_;
};

TEST_F(SyncSchedulerTest, IssuesBaseRungThenBarriers) {
  SyncBracketScheduler scheduler(&space_, &store_, &sampler_, nullptr,
                                 Options(BracketPolicy::kFixed));
  // Bracket 1 with K = 3: n1 = ceil(3/3 * 9) = 9 base configurations.
  std::vector<Job> jobs;
  for (int i = 0; i < 9; ++i) {
    std::optional<Job> job = scheduler.NextJob();
    ASSERT_TRUE(job.has_value()) << "job " << i;
    EXPECT_EQ(job->level, 1);
    jobs.push_back(*job);
  }
  // Barrier: rung full, results outstanding.
  EXPECT_FALSE(scheduler.NextJob().has_value());
  // Completing 8 of 9 still leaves the barrier closed.
  for (int i = 0; i < 8; ++i) scheduler.OnJobComplete(jobs[i], ResultOf(jobs[i]));
  EXPECT_FALSE(scheduler.NextJob().has_value());
  // Final completion opens the next rung: 3 promotions at level 2.
  scheduler.OnJobComplete(jobs[8], ResultOf(jobs[8]));
  for (int i = 0; i < 3; ++i) {
    std::optional<Job> job = scheduler.NextJob();
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->level, 2);
    EXPECT_DOUBLE_EQ(job->resume_from, 1.0);
  }
  EXPECT_FALSE(scheduler.NextJob().has_value());
  // Measurements landed in the store at level 1.
  EXPECT_EQ(store_.group(1).size(), 9u);
  // Issued promotions are pending.
  EXPECT_EQ(store_.NumPending(), 3u);
}

TEST_F(SyncSchedulerTest, StartsNextBracketAfterCompletion) {
  SyncBracketScheduler scheduler(&space_, &store_, &sampler_, nullptr,
                                 Options(BracketPolicy::kRoundRobin));
  // Drain bracket 1 completely by completing every job as it is issued.
  int64_t safety = 0;
  while (scheduler.brackets_completed() == 0 && safety++ < 1000) {
    std::optional<Job> job = scheduler.NextJob();
    ASSERT_TRUE(job.has_value());  // single-worker drain never barriers
    scheduler.OnJobComplete(*job, ResultOf(*job));
  }
  EXPECT_EQ(scheduler.current_bracket(), 2);  // round robin moved on
  std::optional<Job> job = scheduler.NextJob();
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->level, 2);  // bracket 2 starts at level 2
}

TEST_F(SyncSchedulerTest, NeverExhausted) {
  SyncBracketScheduler scheduler(&space_, &store_, &sampler_, nullptr,
                                 Options(BracketPolicy::kFixed));
  EXPECT_FALSE(scheduler.Exhausted());
}

class AsyncSchedulerTest : public ::testing::Test {
 protected:
  AsyncSchedulerTest()
      : space_(WideSpace()),
        store_(3),
        sampler_(&space_, &store_, 2) {}

  BracketSchedulerOptions Options(bool delayed, BracketPolicy policy) {
    BracketSchedulerOptions options;
    options.ladder = SmallLadder();
    options.selector.policy = policy;
    options.selector.fixed_bracket = 1;
    options.delayed_promotion = delayed;
    return options;
  }

  ConfigurationSpace space_;
  MeasurementStore store_;
  RandomSampler sampler_;
};

TEST_F(AsyncSchedulerTest, AlwaysProvidesWork) {
  AsyncBracketScheduler scheduler(
      &space_, &store_, &sampler_, nullptr,
      Options(false, BracketPolicy::kFixed));
  // No barrier, ever: 200 consecutive NextJob calls all succeed even with
  // nothing completing (workers would all be busy).
  std::vector<Job> jobs;
  for (int i = 0; i < 200; ++i) {
    std::optional<Job> job = scheduler.NextJob();
    ASSERT_TRUE(job.has_value());
    jobs.push_back(*job);
  }
  EXPECT_EQ(store_.NumPending(), 200u);
  for (const Job& job : jobs) scheduler.OnJobComplete(job, ResultOf(job));
  EXPECT_EQ(store_.NumPending(), 0u);
}

TEST_F(AsyncSchedulerTest, PromotesAfterCompletions) {
  AsyncBracketScheduler scheduler(
      &space_, &store_, &sampler_, nullptr,
      Options(false, BracketPolicy::kFixed));
  // Complete jobs one at a time: promotions appear once eta results exist.
  int promotions = 0;
  for (int i = 0; i < 30; ++i) {
    std::optional<Job> job = scheduler.NextJob();
    ASSERT_TRUE(job.has_value());
    if (job->level > 1) ++promotions;
    scheduler.OnJobComplete(*job, ResultOf(*job));
  }
  EXPECT_GT(promotions, 0);
  EXPECT_EQ(scheduler.promotions_issued(), promotions);
  EXPECT_GT(store_.group(2).size(), 0u);
}

TEST_F(AsyncSchedulerTest, DelayedPromotesFewer) {
  auto count_promotions = [&](bool delayed, uint64_t seed) {
    MeasurementStore store(3);
    RandomSampler sampler(&space_, &store, seed);
    AsyncBracketScheduler scheduler(
        &space_, &store, &sampler, nullptr,
        Options(delayed, BracketPolicy::kFixed));
    for (int i = 0; i < 120; ++i) {
      std::optional<Job> job = scheduler.NextJob();
      EXPECT_TRUE(job.has_value());
      scheduler.OnJobComplete(*job, ResultOf(*job));
    }
    return scheduler.promotions_issued();
  };
  EXPECT_LT(count_promotions(true, 7), count_promotions(false, 7));
}

TEST_F(AsyncSchedulerTest, RoundRobinSpreadsAdmissionsAcrossBrackets) {
  AsyncBracketScheduler scheduler(
      &space_, &store_, &sampler_, nullptr,
      Options(false, BracketPolicy::kRoundRobin));
  for (int i = 0; i < 60; ++i) {
    std::optional<Job> job = scheduler.NextJob();
    ASSERT_TRUE(job.has_value());
    scheduler.OnJobComplete(*job, ResultOf(*job));
  }
  std::vector<int64_t> admissions = scheduler.admissions_per_bracket();
  ASSERT_EQ(admissions.size(), 3u);  // one persistent bracket per level
  for (int64_t count : admissions) EXPECT_GT(count, 0);
  // Bracket 3's admissions land directly at full fidelity.
  EXPECT_GT(store_.group(3).size(), 0u);
}

TEST_F(AsyncSchedulerTest, CompletionNamingAnUnheldBracketAborts) {
  AsyncBracketScheduler scheduler(
      &space_, &store_, &sampler_, nullptr,
      Options(false, BracketPolicy::kRoundRobin));
  std::optional<Job> job = scheduler.NextJob();
  ASSERT_TRUE(job.has_value());
  job->bracket = 4;  // the ladder has 3 levels, so brackets 1-3
  EXPECT_DEATH(scheduler.OnJobComplete(*job, ResultOf(*job)),
               "names bracket 4, which this scheduler does not hold");
  job->bracket = 0;
  EXPECT_DEATH(scheduler.OnJobComplete(*job, ResultOf(*job)),
               "names bracket 0, which this scheduler does not hold");
}

TEST_F(AsyncSchedulerTest, FailureNamingAnUnheldBracketAborts) {
  AsyncBracketScheduler scheduler(
      &space_, &store_, &sampler_, nullptr,
      Options(false, BracketPolicy::kRoundRobin));
  std::optional<Job> job = scheduler.NextJob();
  ASSERT_TRUE(job.has_value());
  job->bracket = 4;
  FailureInfo info;
  info.retries_remaining = 1;  // a requeue must not skip the check either
  EXPECT_DEATH(scheduler.OnJobFailed(*job, info),
               "names bracket 4, which this scheduler does not hold");
}

TEST_F(AsyncSchedulerTest, FixedPolicyRejectsAnotherBracketIndex) {
  AsyncBracketScheduler scheduler(
      &space_, &store_, &sampler_, nullptr,
      Options(false, BracketPolicy::kFixed));
  std::optional<Job> job = scheduler.NextJob();
  ASSERT_TRUE(job.has_value());
  ASSERT_EQ(job->bracket, 1);
  job->bracket = 2;  // a real bracket index, but not the one held
  EXPECT_DEATH(scheduler.OnJobComplete(*job, ResultOf(*job)),
               "names bracket 2, which this scheduler does not hold");
  EXPECT_DEATH(scheduler.OnJobFailed(*job, FailureInfo{}),
               "names bracket 2, which this scheduler does not hold");
}

TEST_F(AsyncSchedulerTest, CompletionNoBracketIssuedAborts) {
  AsyncBracketScheduler scheduler(
      &space_, &store_, &sampler_, nullptr,
      Options(false, BracketPolicy::kFixed));
  std::optional<Job> job = scheduler.NextJob();
  ASSERT_TRUE(job.has_value());
  scheduler.OnJobComplete(*job, ResultOf(*job));
  // Nothing is in flight any more, so a second completion was never issued.
  EXPECT_DEATH(scheduler.OnJobComplete(*job, ResultOf(*job)),
               "bracket 1: completion at level 1 without a matching "
               "in-flight job");
}

TEST(BatchBoSchedulerTest, SyncBarrierBetweenBatches) {
  ConfigurationSpace space = WideSpace();
  MeasurementStore store(1);
  RandomSampler sampler(&space, &store, 3);
  BatchBoSchedulerOptions options;
  options.synchronous = true;
  options.batch_size = 4;
  options.resource = 9.0;
  options.level = 1;
  BatchBoScheduler scheduler(&store, &sampler, options);

  std::vector<Job> batch;
  for (int i = 0; i < 4; ++i) {
    std::optional<Job> job = scheduler.NextJob();
    ASSERT_TRUE(job.has_value());
    EXPECT_DOUBLE_EQ(job->resource, 9.0);
    batch.push_back(*job);
  }
  EXPECT_FALSE(scheduler.NextJob().has_value());  // barrier
  for (int i = 0; i < 3; ++i) {
    scheduler.OnJobComplete(batch[i], ResultOf(batch[i]));
    EXPECT_FALSE(scheduler.NextJob().has_value());  // still waiting
  }
  scheduler.OnJobComplete(batch[3], ResultOf(batch[3]));
  EXPECT_TRUE(scheduler.NextJob().has_value());  // next batch opens
}

TEST(BatchBoSchedulerTest, AsyncNeverBarriers) {
  ConfigurationSpace space = WideSpace();
  MeasurementStore store(1);
  RandomSampler sampler(&space, &store, 4);
  BatchBoSchedulerOptions options;
  options.synchronous = false;
  options.resource = 9.0;
  options.level = 1;
  BatchBoScheduler scheduler(&store, &sampler, options);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(scheduler.NextJob().has_value());
  }
}

TEST(BatchBoSchedulerTest, RecordsMeasurements) {
  ConfigurationSpace space = WideSpace();
  MeasurementStore store(1);
  RandomSampler sampler(&space, &store, 5);
  BatchBoSchedulerOptions options;
  options.resource = 9.0;
  options.level = 1;
  BatchBoScheduler scheduler(&store, &sampler, options);
  std::optional<Job> job = scheduler.NextJob();
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(store.NumPending(), 1u);
  scheduler.OnJobComplete(*job, ResultOf(*job));
  EXPECT_EQ(store.NumPending(), 0u);
  EXPECT_EQ(store.group(1).size(), 1u);
}

}  // namespace
}  // namespace hypertune
