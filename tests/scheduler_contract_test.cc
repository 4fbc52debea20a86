#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/optimizer/random_sampler.h"
#include "src/problems/counting_ones.h"
#include "src/runtime/scheduler_contract.h"
#include "src/runtime/simulated_cluster.h"
#include "src/scheduler/async_bracket_scheduler.h"

namespace hypertune {
namespace {

/// Inner scheduler that tolerates any call sequence: the checker under
/// test is fed deliberately malformed traffic, so the wrapped scheduler
/// must never abort on its own.
class ScriptedScheduler : public SchedulerInterface {
 public:
  std::optional<Job> NextJob() override {
    if (script_.empty()) return std::nullopt;
    Job job = std::move(script_.front());
    script_.pop_front();
    return job;
  }
  void OnJobComplete(const Job& job, const EvalResult& result) override {
    (void)job;
    (void)result;
    ++completions;
  }
  bool OnJobFailed(const Job& job, const FailureInfo& info) override {
    (void)job;
    (void)info;
    return requeue;
  }
  bool Exhausted() const override { return exhausted; }

  void Push(const Job& job) { script_.push_back(job); }

  bool requeue = false;
  bool exhausted = false;
  int completions = 0;

 private:
  std::deque<Job> script_;
};

Job MakeJob(int64_t id, int attempt = 1) {
  Job job;
  job.job_id = id;
  job.level = 1;
  job.resource = 1.0;
  job.attempt = attempt;
  return job;
}

ContractCheckerOptions Collecting() {
  ContractCheckerOptions options;
  options.abort_on_violation = false;
  return options;
}

/// True when some collected violation mentions `needle`.
bool HasViolation(const SchedulerContractChecker& checker,
                  const std::string& needle) {
  for (const std::string& violation : checker.violations()) {
    if (violation.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(SchedulerContractCheckerTest, CleanSequenceHasNoViolations) {
  ScriptedScheduler inner;
  inner.Push(MakeJob(0));
  inner.Push(MakeJob(1));
  SchedulerContractChecker checker(&inner, Collecting());

  std::optional<Job> a = checker.NextJob();
  std::optional<Job> b = checker.NextJob();
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(checker.outstanding_jobs(), 2);

  checker.OnJobComplete(*a, EvalResult{});

  // A failed attempt that the scheduler requeues, then the retry completes.
  inner.requeue = true;
  FailureInfo failure;
  failure.attempt = 1;
  failure.retries_remaining = 1;
  EXPECT_TRUE(checker.OnJobFailed(*b, failure));
  Job retry = *b;
  retry.attempt = 2;
  checker.OnJobComplete(retry, EvalResult{});

  EXPECT_TRUE(checker.violations().empty())
      << checker.violations().front();
  EXPECT_EQ(checker.outstanding_jobs(), 0);
  EXPECT_EQ(checker.jobs_issued(), 2);
  EXPECT_EQ(inner.completions, 2);
}

TEST(SchedulerContractCheckerTest, DetectsDoubleCompletion) {
  ScriptedScheduler inner;
  inner.Push(MakeJob(7));
  SchedulerContractChecker checker(&inner, Collecting());

  std::optional<Job> job = checker.NextJob();
  ASSERT_TRUE(job.has_value());
  checker.OnJobComplete(*job, EvalResult{});
  checker.OnJobComplete(*job, EvalResult{});

  EXPECT_TRUE(HasViolation(checker, "double completion"));
}

TEST(SchedulerContractCheckerTest, DetectsCompletionForUnknownJob) {
  ScriptedScheduler inner;
  SchedulerContractChecker checker(&inner, Collecting());

  checker.OnJobComplete(MakeJob(42), EvalResult{});

  EXPECT_TRUE(HasViolation(checker, "never issued"));
}

TEST(SchedulerContractCheckerTest, DetectsCompletionAfterAbandonment) {
  ScriptedScheduler inner;
  inner.Push(MakeJob(3));
  SchedulerContractChecker checker(&inner, Collecting());

  std::optional<Job> job = checker.NextJob();
  ASSERT_TRUE(job.has_value());
  inner.requeue = false;  // abandon on first failure
  EXPECT_FALSE(checker.OnJobFailed(*job, FailureInfo{}));
  EXPECT_EQ(checker.outstanding_jobs(), 0);

  checker.OnJobComplete(*job, EvalResult{});

  EXPECT_TRUE(HasViolation(checker, "abandoned"));
}

TEST(SchedulerContractCheckerTest, DetectsStaleAttemptNumber) {
  ScriptedScheduler inner;
  inner.Push(MakeJob(5));
  SchedulerContractChecker checker(&inner, Collecting());

  std::optional<Job> job = checker.NextJob();
  ASSERT_TRUE(job.has_value());
  inner.requeue = true;
  FailureInfo failure;
  failure.attempt = 1;
  EXPECT_TRUE(checker.OnJobFailed(*job, failure));

  // The runtime is now executing attempt 2; completing with the stale
  // attempt-1 job is the bug class where a zombie worker reports late.
  checker.OnJobComplete(*job, EvalResult{});

  EXPECT_TRUE(HasViolation(checker, "stale attempt"));
}

TEST(SchedulerContractCheckerTest, DetectsFailureForUnknownJob) {
  ScriptedScheduler inner;
  SchedulerContractChecker checker(&inner, Collecting());

  checker.OnJobFailed(MakeJob(9), FailureInfo{});

  EXPECT_TRUE(HasViolation(checker, "never issued"));
}

TEST(SchedulerContractCheckerTest, DetectsJobIssuedAfterExhausted) {
  ScriptedScheduler inner;
  SchedulerContractChecker checker(&inner, Collecting());

  inner.exhausted = true;
  EXPECT_TRUE(checker.Exhausted());

  inner.Push(MakeJob(0));
  std::optional<Job> job = checker.NextJob();
  ASSERT_TRUE(job.has_value());

  EXPECT_TRUE(HasViolation(checker, "after Exhausted()"));
}

TEST(SchedulerContractCheckerTest, DetectsExhaustedRegression) {
  ScriptedScheduler inner;
  SchedulerContractChecker checker(&inner, Collecting());

  inner.exhausted = true;
  EXPECT_TRUE(checker.Exhausted());
  inner.exhausted = false;
  EXPECT_FALSE(checker.Exhausted());

  EXPECT_TRUE(HasViolation(checker, "regressed"));
}

TEST(SchedulerContractCheckerTest, DetectsReusedJobId) {
  ScriptedScheduler inner;
  inner.Push(MakeJob(1));
  inner.Push(MakeJob(1));
  SchedulerContractChecker checker(&inner, Collecting());

  EXPECT_TRUE(checker.NextJob().has_value());
  EXPECT_TRUE(checker.NextJob().has_value());

  EXPECT_TRUE(HasViolation(checker, "reused job id"));
}

TEST(SchedulerContractCheckerTest, DetectsSchedulerMintingRetryAttempt) {
  ScriptedScheduler inner;
  inner.Push(MakeJob(2, /*attempt=*/3));
  SchedulerContractChecker checker(&inner, Collecting());

  EXPECT_TRUE(checker.NextJob().has_value());

  EXPECT_TRUE(HasViolation(checker, "attempt 1"));
}

TEST(SchedulerContractCheckerTest, EventTraceRetainsRecentEvents) {
  ScriptedScheduler inner;
  inner.Push(MakeJob(11));
  SchedulerContractChecker checker(&inner, Collecting());

  std::optional<Job> job = checker.NextJob();
  ASSERT_TRUE(job.has_value());
  checker.OnJobComplete(*job, EvalResult{});

  std::string trace = checker.EventTrace();
  EXPECT_NE(trace.find("NextJob -> job 11"), std::string::npos) << trace;
  EXPECT_NE(trace.find("OnJobComplete(job 11"), std::string::npos) << trace;
}

TEST(SchedulerContractCheckerDeathTest, AbortModeDumpsEventSequence) {
  ScriptedScheduler inner;
  inner.Push(MakeJob(7));
  SchedulerContractChecker checker(&inner);  // abort_on_violation = true

  std::optional<Job> job = checker.NextJob();
  ASSERT_TRUE(job.has_value());
  checker.OnJobComplete(*job, EvalResult{});

  EXPECT_DEATH(checker.OnJobComplete(*job, EvalResult{}),
               "scheduler contract violated.*double completion");
}

/// End-to-end conformance: a real scheduler driven by a real backend under
/// a collecting checker reports zero violations. (Both backends also wrap
/// schedulers in an aborting checker by default, so the rest of the suite
/// exercises the same property; this test pins it explicitly.)
TEST(SchedulerContractCheckerTest, RealSchedulerConformsEndToEnd) {
  CountingOnesOptions problem_options;
  problem_options.num_categorical = 2;
  problem_options.num_continuous = 2;
  problem_options.max_samples = 9.0;
  CountingOnes problem(problem_options);

  MeasurementStore store(3);
  RandomSampler sampler(&problem.space(), &store, 1);

  BracketSchedulerOptions options;
  options.ladder.eta = 3.0;
  options.ladder.num_levels = 3;
  options.ladder.max_resource = 9.0;
  options.selector.policy = BracketPolicy::kFixed;
  options.selector.fixed_bracket = 1;
  AsyncBracketScheduler scheduler(&problem.space(), &store, &sampler, nullptr,
                                  options);
  SchedulerContractChecker checker(&scheduler, Collecting());

  ClusterOptions cluster;
  cluster.num_workers = 4;
  cluster.time_budget_seconds = 200.0;
  cluster.faults.crash_probability = 0.2;  // exercise the failure paths
  cluster.faults.max_retries = 1;
  cluster.check_contract = false;  // avoid double wrapping
  RunResult result = SimulatedCluster(cluster).Run(&checker, problem);

  EXPECT_GT(result.history.num_trials(), 0u);
  EXPECT_TRUE(checker.violations().empty()) << checker.violations().front();
}

/// Complexity regression: promotion decisions must stay indexed. Each
/// completion inserts into a rung's order-statistics tree and each decision
/// probes it, so total decision work over N completions is O(N log N) node
/// visits. The old implementation re-sorted and re-scanned a rung's results
/// on every decision — O(N) per decision, O(N^2) total — which exceeds this
/// bound by orders of magnitude at this N.
TEST(SchedulerContractCheckerTest, BracketDecisionWorkStaysLogarithmic) {
  BracketOptions options;
  options.index = 1;
  options.ladder.eta = 3.0;
  options.ladder.num_levels = 4;
  options.ladder.max_resource = 27.0;
  options.synchronous = false;
  options.base_quota = -1;  // unlimited: admission never throttles the loop
  Bracket bracket(options);

  Rng rng(29);
  const int64_t n = 4000;
  int64_t next_job_id = 0;
  int64_t completions = 0;
  std::vector<Job> outstanding;
  for (int64_t i = 0; i < n; ++i) {
    Configuration config(
        std::vector<double>{rng.Uniform(), static_cast<double>(i)});
    outstanding.push_back(bracket.AdmitConfig(config, next_job_id++));
    // Complete everything outstanding, then drain eligible promotions; the
    // interleave keeps every rung's tree growing while decisions run.
    for (const Job& job : outstanding) {
      bracket.OnJobComplete(job, rng.Uniform());
      ++completions;
    }
    outstanding.clear();
    while (std::optional<Job> promo = bracket.NextPromotion(next_job_id)) {
      ++next_job_id;
      outstanding.push_back(*promo);
    }
    bracket.CheckInvariants();
  }

  const double total = static_cast<double>(completions);
  const double bound = 64.0 * total * std::log2(total);
  EXPECT_LT(static_cast<double>(bracket.decision_work()), bound)
      << "decision_work=" << bracket.decision_work()
      << " completions=" << completions;
  // Sanity: the counter is actually measuring something.
  EXPECT_GT(bracket.decision_work(), 0);
}

}  // namespace
}  // namespace hypertune
