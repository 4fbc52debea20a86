// The attempt rules every backend shares, checked once on the ledger alone:
// scripted launches, outcomes and worker events, no execution backend.
#include "src/runtime/attempt_ledger.h"

#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/runtime/fault_injector.h"

namespace hypertune {
namespace {

/// Issues `jobs` fresh jobs and records what the ledger reports back; the
/// retry decision is the interface's default policy.
class ScriptedScheduler : public SchedulerInterface {
 public:
  explicit ScriptedScheduler(int jobs) : remaining_(jobs) {}

  std::optional<Job> NextJob() override {
    if (remaining_ == 0) return std::nullopt;
    --remaining_;
    Job job;
    job.job_id = next_id_++;
    job.level = 1;
    job.resource = 1.0;
    return job;
  }
  void OnJobComplete(const Job& job, const EvalResult& /*result*/) override {
    completed.push_back(job.job_id);
  }
  bool OnJobFailed(const Job& job, const FailureInfo& info) override {
    failures.push_back(info);
    return SchedulerInterface::OnJobFailed(job, info);
  }
  bool Exhausted() const override { return remaining_ == 0; }

  std::vector<int64_t> completed;
  std::vector<FailureInfo> failures;

 private:
  int remaining_;
  int64_t next_id_ = 1;
};

BackendOptions TwoWorkers() {
  BackendOptions options;
  options.num_workers = 2;
  options.seed = 5;
  options.faults.max_retries = 1;
  options.faults.retry_backoff_seconds = 4.0;
  return options;
}

/// A ledger over `scheduler`; the clock is never read (obs is off).
struct Fixture {
  explicit Fixture(int jobs, BackendOptions options = TwoWorkers(),
                   WorkerFaultOptions worker_faults = {},
                   SpeculationOptions speculation = {})
      : scheduler(jobs),
        ledger(options, worker_faults, speculation, &scheduler,
               /*full_resource=*/1.0, [] { return 0.0; }) {}

  /// Issues the next job and launches it on `worker` at `now`.
  Job LaunchNext(int worker, double now) {
    std::optional<Job> job = ledger.Decide(now);
    EXPECT_TRUE(job.has_value());
    ledger.Launch(worker, *job, /*speculative=*/false, 1.0, now);
    return *job;
  }

  ScriptedScheduler scheduler;
  AttemptLedger ledger;
};

TEST(AttemptLedgerTest, LostWorkerRequeuesAtOnceWithoutSpendingBudget) {
  Fixture f(1);
  const Job job = f.LaunchNext(0, 0.0);
  AttemptEnd end = f.ledger.WorkerDeath(0, /*permanent=*/false, 2.0);
  ASSERT_TRUE(end.retry.has_value());
  EXPECT_EQ(end.retry->job_id, job.job_id);
  EXPECT_EQ(end.retry->attempt, 2);
  EXPECT_EQ(end.retry_delay, 0.0);
  ASSERT_EQ(f.scheduler.failures.size(), 1u);
  EXPECT_EQ(f.scheduler.failures[0].kind, FailureKind::kWorkerLost);
  EXPECT_EQ(f.scheduler.failures[0].retries_remaining, 1);

  // The budget is untouched: the next attempt's crash still sees one retry.
  f.ledger.Launch(1, *end.retry, false, 1.0, 2.0);
  end = f.ledger.Fail(1, FailureKind::kCrash, 3.0);
  ASSERT_EQ(f.scheduler.failures.size(), 2u);
  EXPECT_EQ(f.scheduler.failures[1].retries_remaining, 1);
  EXPECT_TRUE(end.retry.has_value());

  RunResult result = f.ledger.Finish(3.0);
  EXPECT_EQ(result.worker_lost_attempts, 1);
  EXPECT_EQ(result.crash_attempts, 1);
  EXPECT_EQ(result.retries, 2);
  EXPECT_EQ(result.failed_trials, 0);
}

TEST(AttemptLedgerTest, CrashAndTimeoutRequeueAfterRetryDelay) {
  Fixture f(1);
  const Job job = f.LaunchNext(0, 0.0);
  AttemptEnd end = f.ledger.Fail(0, FailureKind::kCrash, 1.5);
  ASSERT_TRUE(end.retry.has_value());
  EXPECT_EQ(end.retry->attempt, 2);
  EXPECT_EQ(end.retry_delay, RetryDelay(TwoWorkers().faults, 5, job));
  EXPECT_GT(end.retry_delay, 0.0);

  Fixture g(1);
  g.LaunchNext(1, 0.0);
  end = g.ledger.Fail(1, FailureKind::kTimeout, 2.0);
  ASSERT_TRUE(end.retry.has_value());
  EXPECT_EQ(end.retry_delay, RetryDelay(TwoWorkers().faults, 5, job));
  EXPECT_EQ(g.ledger.Finish(2.0).timeout_attempts, 1);
}

TEST(AttemptLedgerTest, SpentBudgetAbandonsWithFailureRecord) {
  BackendOptions options = TwoWorkers();
  options.faults.max_retries = 0;
  Fixture f(1, options);
  const Job job = f.LaunchNext(1, 1.0);
  AttemptEnd end = f.ledger.Fail(1, FailureKind::kCrash, 4.0);
  EXPECT_FALSE(end.retry.has_value());
  ASSERT_EQ(f.scheduler.failures.size(), 1u);
  EXPECT_EQ(f.scheduler.failures[0].retries_remaining, 0);
  EXPECT_TRUE(f.ledger.NoWorkLeft());

  RunResult result = f.ledger.Finish(4.0);
  EXPECT_EQ(result.failed_trials, 1);
  EXPECT_EQ(result.failed_attempts, 1);
  EXPECT_EQ(result.wasted_seconds, 3.0);
  ASSERT_EQ(result.history.failures().size(), 1u);
  const TrialRecord& record = result.history.failures()[0];
  EXPECT_EQ(record.job.job_id, job.job_id);
  EXPECT_EQ(record.failure_kind, FailureKind::kCrash);
  EXPECT_EQ(record.worker, 1);
  EXPECT_EQ(record.start_time, 1.0);
  EXPECT_EQ(record.end_time, 4.0);
}

TEST(AttemptLedgerTest, QuarantineAfterConsecutiveFailuresAndStreakResets) {
  BackendOptions options = TwoWorkers();
  options.faults.max_retries = 10;
  WorkerFaultOptions worker_faults;
  worker_faults.quarantine_failures = 2;
  worker_faults.quarantine_seconds = 10.0;
  Fixture f(3, options, worker_faults);

  // Fail, complete, fail: the completion resets the streak.
  f.LaunchNext(0, 0.0);
  AttemptEnd end = f.ledger.Fail(0, FailureKind::kCrash, 1.0);
  EXPECT_FALSE(end.quarantined);
  f.ledger.Launch(0, *end.retry, false, 1.0, 1.0);
  f.ledger.Complete(0, EvalResult{}, 2.0);
  f.LaunchNext(0, 2.0);
  end = f.ledger.Fail(0, FailureKind::kTimeout, 3.0);
  EXPECT_FALSE(end.quarantined);

  // Fail, die, recover, fail: the death resets the streak too.
  f.ledger.WorkerDeath(0, /*permanent=*/false, 3.5);
  f.ledger.WorkerRecover(0, 4.0);
  f.ledger.Launch(0, *end.retry, false, 1.0, 4.0);
  end = f.ledger.Fail(0, FailureKind::kCrash, 5.0);
  EXPECT_FALSE(end.quarantined);

  // Two in a row bench the worker.
  f.ledger.Launch(0, *end.retry, false, 1.0, 5.0);
  end = f.ledger.Fail(0, FailureKind::kCrash, 6.0);
  EXPECT_TRUE(end.quarantined);
  EXPECT_TRUE(f.ledger.Quarantined(0));
  f.ledger.QuarantineEnd(0, 16.0);
  EXPECT_FALSE(f.ledger.Quarantined(0));

  RunResult result = f.ledger.Finish(16.0);
  EXPECT_EQ(result.quarantines, 1);
  // 0.5 s dead, then 10 s quarantined.
  EXPECT_EQ(result.worker_down_seconds, 10.5);
}

TEST(AttemptLedgerTest, LostCopyWithLiveSiblingNeverReachesOnJobFailed) {
  SpeculationOptions speculation;
  speculation.speculation_factor = 1.5;
  Fixture f(2, TwoWorkers(), {}, speculation);

  // Job 1: the primary crashes while its duplicate races on.
  const Job job = f.LaunchNext(0, 0.0);
  ASSERT_TRUE(f.ledger.CanSpeculate(0));
  Job copy = f.ledger.Speculate(0, 3.0);
  EXPECT_FALSE(f.ledger.CanSpeculate(0));
  f.ledger.Launch(1, copy, /*speculative=*/true, 1.0, 3.0);
  AttemptEnd end = f.ledger.Fail(0, FailureKind::kCrash, 4.0);
  EXPECT_FALSE(end.retry.has_value());
  EXPECT_EQ(f.ledger.Complete(1, EvalResult{}, 5.0), -1);

  // Job 2: a worker death takes the duplicate; the primary races on.
  f.LaunchNext(0, 5.0);
  f.ledger.Launch(1, f.ledger.Speculate(0, 6.0), true, 1.0, 6.0);
  end = f.ledger.WorkerDeath(1, /*permanent=*/true, 6.5);
  EXPECT_FALSE(end.retry.has_value());
  EXPECT_EQ(f.ledger.Complete(0, EvalResult{}, 8.0), -1);

  EXPECT_TRUE(f.scheduler.failures.empty());
  EXPECT_EQ(f.scheduler.completed, (std::vector<int64_t>{job.job_id, 2}));
  RunResult result = f.ledger.Finish(8.0);
  EXPECT_EQ(result.speculative_attempts, 2);
  EXPECT_EQ(result.speculative_losses, 2);
  EXPECT_EQ(result.speculative_wins, 1);
  EXPECT_EQ(result.speculative_wasted_seconds, 4.0 + 0.5);
  EXPECT_EQ(result.failed_attempts, 0);
  EXPECT_TRUE(result.history.trials()[0].speculative);
  EXPECT_FALSE(result.history.trials()[1].speculative);
}

TEST(AttemptLedgerTest, FirstFinisherCancelsItsSibling) {
  SpeculationOptions speculation;
  speculation.speculation_factor = 1.5;
  Fixture f(1, TwoWorkers(), {}, speculation);
  f.LaunchNext(0, 0.0);
  f.ledger.Launch(1, f.ledger.Speculate(0, 2.0), true, 1.0, 2.0);
  // The duplicate finishes first and cancels the straggling primary.
  EXPECT_EQ(f.ledger.Complete(1, EvalResult{}, 5.0), 0);
  EXPECT_FALSE(f.ledger.Busy(0));
  EXPECT_TRUE(f.ledger.NoWorkLeft());
  RunResult result = f.ledger.Finish(5.0);
  EXPECT_EQ(result.speculative_wins, 1);
  EXPECT_EQ(result.speculative_losses, 1);
  EXPECT_EQ(result.speculative_wasted_seconds, 5.0);
  EXPECT_EQ(result.busy_seconds, 3.0 + 5.0);
  EXPECT_EQ(result.history.num_trials(), 1u);
}

TEST(AttemptLedgerTest, FinishClosesOpenDownWindows) {
  WorkerFaultOptions worker_faults;
  worker_faults.quarantine_failures = 1;
  worker_faults.quarantine_seconds = 100.0;
  Fixture f(1, TwoWorkers(), worker_faults);
  f.ledger.WorkerDeath(0, /*permanent=*/true, 3.0);
  f.LaunchNext(1, 0.0);
  EXPECT_TRUE(f.ledger.Fail(1, FailureKind::kCrash, 4.0).quarantined);

  RunResult result = f.ledger.Finish(10.0);
  // Dead from 3 s, quarantined from 4 s, both still down at 10 s.
  EXPECT_EQ(result.worker_down_seconds, 7.0 + 6.0);
  EXPECT_EQ(result.workers_lost_permanently, 1);
  EXPECT_EQ(result.worker_deaths, 1);
}

TEST(AttemptLedgerTest, MetricsMatchRunResultByConstruction) {
  Observability obs;
  BackendOptions options = TwoWorkers();
  options.obs.sink = &obs;
  options.max_trials = 1;
  Fixture f(2, options);
  f.LaunchNext(0, 0.0);
  const Job second = f.LaunchNext(1, 0.0);
  f.ledger.Complete(0, EvalResult{}, 1.0);
  EXPECT_TRUE(f.ledger.TrialCapReached());
  RunResult result = f.ledger.Finish(1.0);

  MetricsSnapshot metrics = obs.metrics.Snapshot();
  EXPECT_EQ(metrics.counters["jobs.launched"], 2);
  EXPECT_EQ(metrics.counters["jobs.completed"], 1);
  // The second job was still running: its launch closes as truncated.
  EXPECT_EQ(metrics.counters["jobs.truncated"], 1);
  const std::vector<TraceEvent> events = obs.trace.Snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().kind, TraceKind::kJobTruncated);
  EXPECT_EQ(events.back().job_id, second.job_id);
  EXPECT_EQ(events.back().time, 1.0);
  EXPECT_EQ(metrics.gauges["run.elapsed_seconds"], result.elapsed_seconds);
}

}  // namespace
}  // namespace hypertune
