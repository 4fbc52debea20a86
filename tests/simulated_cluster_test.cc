#include "src/runtime/simulated_cluster.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/problems/counting_ones.h"
#include "src/runtime/scheduler_interface.h"

namespace hypertune {
namespace {

/// Scheduler issuing `total` independent full-resource jobs, optionally
/// blocking every `barrier_every` jobs until outstanding work completes
/// (to test synchronous idle accounting).
class FixedJobScheduler : public SchedulerInterface {
 public:
  FixedJobScheduler(const ConfigurationSpace& space, int64_t total,
                    double resource, int barrier_every = 0)
      : space_(space),
        total_(total),
        resource_(resource),
        barrier_every_(barrier_every),
        rng_(1) {}

  std::optional<Job> NextJob() override {
    if (issued_ >= total_) return std::nullopt;
    if (barrier_every_ > 0 && issued_ % barrier_every_ == 0 &&
        issued_ > completed_) {
      return std::nullopt;  // barrier until everything completed
    }
    Job job;
    job.job_id = issued_++;
    job.config = space_.Sample(&rng_);
    job.level = 1;
    job.resource = resource_;
    return job;
  }

  void OnJobComplete(const Job&, const EvalResult&) override { ++completed_; }
  bool Exhausted() const override { return issued_ >= total_; }

  int64_t completed() const { return completed_; }

 private:
  const ConfigurationSpace& space_;
  int64_t total_;
  double resource_;
  int barrier_every_;
  Rng rng_;
  int64_t issued_ = 0;
  int64_t completed_ = 0;
};

class SimulatedClusterTest : public ::testing::Test {
 protected:
  SimulatedClusterTest() : problem_() {}
  CountingOnes problem_;  // cost = resource seconds
};

TEST_F(SimulatedClusterTest, RespectsTimeBudget) {
  FixedJobScheduler scheduler(problem_.space(), 1000000, 10.0);
  ClusterOptions options;
  options.num_workers = 4;
  options.time_budget_seconds = 100.0;
  SimulatedCluster cluster(options);
  RunResult result = cluster.Run(&scheduler, problem_);
  // Each job takes 10 virtual seconds; 4 workers, 100 s -> 40 completions.
  EXPECT_EQ(result.history.num_trials(), 40u);
  EXPECT_LE(result.elapsed_seconds, 100.0 + 1e-9);
  EXPECT_NEAR(result.utilization, 1.0, 1e-9);
}

TEST_F(SimulatedClusterTest, StopsWhenSchedulerExhausted) {
  FixedJobScheduler scheduler(problem_.space(), 7, 5.0);
  ClusterOptions options;
  options.num_workers = 4;
  options.time_budget_seconds = 1e9;
  SimulatedCluster cluster(options);
  RunResult result = cluster.Run(&scheduler, problem_);
  EXPECT_EQ(result.history.num_trials(), 7u);
  EXPECT_LT(result.elapsed_seconds, 100.0);
}

TEST_F(SimulatedClusterTest, MaxTrialsCap) {
  FixedJobScheduler scheduler(problem_.space(), 1000, 1.0);
  ClusterOptions options;
  options.num_workers = 2;
  options.time_budget_seconds = 1e9;
  options.max_trials = 13;
  SimulatedCluster cluster(options);
  RunResult result = cluster.Run(&scheduler, problem_);
  EXPECT_EQ(result.history.num_trials(), 13u);
}

TEST_F(SimulatedClusterTest, DeterministicGivenSeed) {
  auto run = [&](uint64_t seed) {
    FixedJobScheduler scheduler(problem_.space(), 100, 3.0);
    ClusterOptions options;
    options.num_workers = 3;
    options.time_budget_seconds = 200.0;
    options.seed = seed;
    options.straggler_sigma = 0.3;
    SimulatedCluster cluster(options);
    return cluster.Run(&scheduler, problem_);
  };
  RunResult a = run(5), b = run(5), c = run(6);
  ASSERT_EQ(a.history.num_trials(), b.history.num_trials());
  for (size_t i = 0; i < a.history.trials().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.history.trials()[i].end_time,
                     b.history.trials()[i].end_time);
    EXPECT_DOUBLE_EQ(a.history.trials()[i].result.objective,
                     b.history.trials()[i].result.objective);
  }
  // A different seed changes the straggler noise and thus the timeline.
  bool any_different = a.history.num_trials() != c.history.num_trials();
  for (size_t i = 0;
       !any_different && i < std::min(a.history.trials().size(),
                                      c.history.trials().size());
       ++i) {
    if (a.history.trials()[i].end_time != c.history.trials()[i].end_time) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST_F(SimulatedClusterTest, StragglerNoisePerturbsDurations) {
  FixedJobScheduler scheduler(problem_.space(), 50, 10.0);
  ClusterOptions options;
  options.num_workers = 1;
  options.time_budget_seconds = 1e6;
  options.straggler_sigma = 0.5;
  options.seed = 7;
  SimulatedCluster cluster(options);
  RunResult result = cluster.Run(&scheduler, problem_);
  ASSERT_EQ(result.history.num_trials(), 50u);
  bool saw_fast = false, saw_slow = false;
  for (const TrialRecord& t : result.history.trials()) {
    double duration = t.end_time - t.start_time;
    if (duration < 9.0) saw_fast = true;
    if (duration > 11.0) saw_slow = true;
  }
  EXPECT_TRUE(saw_fast);
  EXPECT_TRUE(saw_slow);
}

TEST_F(SimulatedClusterTest, BarriersCreateIdleTime) {
  // Jobs in batches of 8 on 8 workers, but with straggler noise the batch
  // finishes unevenly -> idle time accrues at each barrier.
  FixedJobScheduler scheduler(problem_.space(), 64, 10.0,
                              /*barrier_every=*/8);
  ClusterOptions options;
  options.num_workers = 8;
  options.time_budget_seconds = 1e6;
  options.straggler_sigma = 0.4;
  options.seed = 8;
  SimulatedCluster cluster(options);
  RunResult result = cluster.Run(&scheduler, problem_);
  EXPECT_EQ(result.history.num_trials(), 64u);
  EXPECT_LT(result.utilization, 0.95);
  EXPECT_GT(result.idle_seconds, 0.0);
}

TEST_F(SimulatedClusterTest, ZeroTrialRunHasZeroUtilization) {
  // A scheduler with no work at all must yield utilization 0, not NaN
  // (busy + idle is 0 when nothing ever ran).
  FixedJobScheduler scheduler(problem_.space(), 0, 10.0);
  ClusterOptions options;
  options.num_workers = 4;
  options.time_budget_seconds = 100.0;
  SimulatedCluster cluster(options);
  RunResult result = cluster.Run(&scheduler, problem_);
  EXPECT_EQ(result.history.num_trials(), 0u);
  EXPECT_FALSE(std::isnan(result.utilization));
  EXPECT_DOUBLE_EQ(result.utilization, 0.0);
  EXPECT_DOUBLE_EQ(result.elapsed_seconds, 0.0);
}

TEST_F(SimulatedClusterTest, CurveIsMonotoneNonIncreasing) {
  FixedJobScheduler scheduler(problem_.space(), 200, 2.0);
  ClusterOptions options;
  options.num_workers = 4;
  options.time_budget_seconds = 1e5;
  SimulatedCluster cluster(options);
  RunResult result = cluster.Run(&scheduler, problem_);
  double last = 1e18;
  for (const CurvePoint& p : result.history.curve()) {
    EXPECT_LE(p.best_objective, last + 1e-12);
    last = p.best_objective;
  }
}

TEST_F(SimulatedClusterTest, BestObjectiveAtQueries) {
  FixedJobScheduler scheduler(problem_.space(), 10, 10.0);
  ClusterOptions options;
  options.num_workers = 1;
  options.time_budget_seconds = 1e5;
  SimulatedCluster cluster(options);
  RunResult result = cluster.Run(&scheduler, problem_);
  const TrialHistory& history = result.history;
  EXPECT_TRUE(std::isinf(history.BestObjectiveAt(5.0)));  // before first
  EXPECT_DOUBLE_EQ(history.BestObjectiveAt(1e9), history.best_objective());
  EXPECT_GE(history.BestObjectiveAt(20.0), history.best_objective());
}

// --- Calendar-queue event-core edge cases. ---

TEST_F(SimulatedClusterTest, SameTimestampCompletionsKeepJobIdOrder) {
  // All workers start identical-duration jobs at t = 0, so every completion
  // lands on the same timestamp: the event total order's job_id tie-break
  // must record them in issue order, every run.
  for (int trial = 0; trial < 3; ++trial) {
    FixedJobScheduler scheduler(problem_.space(), 16, 10.0);
    ClusterOptions options;
    options.num_workers = 16;
    options.time_budget_seconds = 1e4;
    SimulatedCluster cluster(options);
    RunResult result = cluster.Run(&scheduler, problem_);
    ASSERT_EQ(result.history.num_trials(), 16u);
    const TrialList trials = result.history.trials();
    for (size_t i = 0; i < trials.size(); ++i) {
      EXPECT_EQ(trials[i].job.job_id, static_cast<int64_t>(i));
      EXPECT_DOUBLE_EQ(trials[i].end_time, 10.0);
    }
  }
}

TEST_F(SimulatedClusterTest, EpochStaleEventsAreDropped) {
  // A dying worker orphans its attempt; the attempt's completion event is
  // still queued but must be skipped as stale (epoch mismatch), then the
  // job is requeued and completes exactly once.
  FixedJobScheduler scheduler(problem_.space(), 6, 50.0);
  ClusterOptions options;
  options.num_workers = 2;
  options.time_budget_seconds = 1e5;
  options.worker_faults.mttf_seconds = 80.0;
  options.worker_faults.mttr_seconds = 10.0;
  options.seed = 5;
  SimulatedCluster cluster(options);
  RunResult result = cluster.Run(&scheduler, problem_);
  // Every issued job eventually completed exactly once despite deaths.
  EXPECT_EQ(result.history.num_trials() + result.history.num_failures(), 6u);
  if (result.worker_deaths > 0) {
    // Orphaned attempts were requeued, not double-completed.
    EXPECT_EQ(scheduler.completed(),
              static_cast<int64_t>(result.history.num_trials()));
  }
}

TEST_F(SimulatedClusterTest, WidelySpreadDurationsStayDeterministic) {
  // Huge straggler noise scatters event times across orders of magnitude —
  // the calendar ring resizes, rolls over its year boundary, and falls back
  // to direct-min scans. Two identically seeded runs must still be
  // bit-identical, and events must be processed in nondecreasing time.
  auto run = [&] {
    FixedJobScheduler scheduler(problem_.space(), 100, 5.0);
    ClusterOptions options;
    options.num_workers = 8;
    options.time_budget_seconds = 1e12;
    options.straggler_sigma = 4.0;  // multiplicative spread of ~e^4 sigmas
    options.seed = 9;
    SimulatedCluster cluster(options);
    return cluster.Run(&scheduler, problem_);
  };
  RunResult a = run();
  RunResult b = run();
  ASSERT_EQ(a.history.num_trials(), b.history.num_trials());
  ASSERT_EQ(a.history.num_trials(), 100u);
  const TrialList ta = a.history.trials();
  const TrialList tb = b.history.trials();
  double last_end = 0.0;
  for (size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].job.job_id, tb[i].job.job_id);
    EXPECT_DOUBLE_EQ(ta[i].end_time, tb[i].end_time);
    EXPECT_GE(ta[i].end_time, last_end);
    last_end = ta[i].end_time;
  }
}

TEST_F(SimulatedClusterTest, EventsProcessedCountsQueuePops) {
  FixedJobScheduler scheduler(problem_.space(), 25, 4.0);
  ClusterOptions options;
  options.num_workers = 5;
  options.time_budget_seconds = 1e4;
  SimulatedCluster cluster(options);
  RunResult result = cluster.Run(&scheduler, problem_);
  // Fault-free: one completion event per trial, nothing else.
  EXPECT_EQ(result.events_processed, 25);
}

TEST_F(SimulatedClusterTest, AggregatesRetentionKeepsAnswersExact) {
  auto run = [&](TrialRetention retention) {
    FixedJobScheduler scheduler(problem_.space(), 300, 3.0);
    ClusterOptions options;
    options.num_workers = 6;
    options.time_budget_seconds = 1e5;
    options.retention = retention;
    options.seed = 4;
    SimulatedCluster cluster(options);
    return cluster.Run(&scheduler, problem_);
  };
  RunResult full = run(TrialRetention::kFull);
  RunResult aggregates = run(TrialRetention::kAggregates);

  // Aggregates keep no per-trial records...
  EXPECT_EQ(full.history.trials().size(), 300u);
  EXPECT_EQ(aggregates.history.trials().size(), 0u);
  // ...but every aggregate answer matches the full history exactly.
  EXPECT_EQ(aggregates.history.num_trials(), full.history.num_trials());
  EXPECT_DOUBLE_EQ(aggregates.history.best_objective(),
                   full.history.best_objective());
  EXPECT_DOUBLE_EQ(aggregates.history.incumbent_test(),
                   full.history.incumbent_test());
  EXPECT_DOUBLE_EQ(aggregates.history.TotalEvaluationCost(),
                   full.history.TotalEvaluationCost());
  for (double t : {10.0, 50.0, 100.0, 149.5, 1e5}) {
    EXPECT_DOUBLE_EQ(aggregates.history.BestObjectiveAt(t),
                     full.history.BestObjectiveAt(t));
  }
  const double target = full.history.best_objective();
  EXPECT_DOUBLE_EQ(aggregates.history.TimeToReach(target),
                   full.history.TimeToReach(target));
  // The improvement-only curve is a (weak) subset of the full curve.
  EXPECT_LE(aggregates.history.curve().size(), full.history.curve().size());
}

}  // namespace
}  // namespace hypertune
