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

TEST(SchedulerContractCheckerTest, DetectsJobIdBelowLastIssued) {
  const int64_t far = int64_t{1} << 40;
  ScriptedScheduler inner;
  for (int64_t id : {int64_t{0}, int64_t{5}, far}) inner.Push(MakeJob(id));
  SchedulerContractChecker checker(&inner, Collecting());

  // Ascending ids with gaps pass every hook: the job table grows with the
  // jobs issued, not with the largest id.
  std::vector<Job> jobs;
  for (int i = 0; i < 3; ++i) {
    std::optional<Job> job = checker.NextJob();
    ASSERT_TRUE(job.has_value());
    jobs.push_back(*job);
  }
  inner.requeue = true;
  for (Job& job : jobs) {
    FailureInfo failure;
    failure.retries_remaining = 1;
    EXPECT_TRUE(checker.OnJobFailed(job, failure));
    job.attempt = 2;
    checker.NoteSpeculativeLaunch(job);
    checker.NoteSpeculativeCopyLost(job);
    checker.OnJobComplete(job, EvalResult{});
  }
  EXPECT_TRUE(checker.violations().empty()) << checker.violations().front();
  EXPECT_EQ(checker.outstanding_jobs(), 0);

  inner.Push(MakeJob(3));
  EXPECT_TRUE(checker.NextJob().has_value());
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_TRUE(
      HasViolation(checker, "job 3 below the last issued job id 1099511627776"))
      << checker.violations().front();
  // The out-of-order job is still tracked, so it completes cleanly.
  checker.OnJobComplete(MakeJob(3), EvalResult{});
  EXPECT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.jobs_issued(), 4);

  inner.Push(MakeJob(5));
  EXPECT_TRUE(checker.NextJob().has_value());
  EXPECT_TRUE(
      HasViolation(checker, "reused job id 5 (previous trial is completed)"));
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

/// Pins the dump text byte for byte: every event kind, the stream's default
/// six-digit objective formatting, the header count before and after the
/// 64-event window wraps, oldest-first order, and the kContract trace
/// mirror carrying the same text for every event.
TEST(SchedulerContractCheckerTest, EventTraceTextIsPinned) {
  ScriptedScheduler inner;
  SchedulerContractChecker checker(&inner, Collecting());
  Observability sink;
  checker.SetObservability(&sink);
  auto issue = [&](int64_t id, int level, int bracket) {
    Job job = MakeJob(id);
    job.level = level;
    job.bracket = bracket;
    inner.Push(job);
    std::optional<Job> issued = checker.NextJob();
    EXPECT_TRUE(issued.has_value());
    return issued.value_or(job);
  };
  auto complete = [&](const Job& job, double objective) {
    EvalResult result;
    result.objective = objective;
    checker.OnJobComplete(job, result);
  };
  auto fail = [&](Job job, int attempt, FailureKind kind, int retries,
                  bool requeue) {
    job.attempt = attempt;
    FailureInfo info;
    info.kind = kind;
    info.attempt = attempt;
    info.retries_remaining = retries;
    inner.requeue = requeue;
    EXPECT_EQ(checker.OnJobFailed(job, info), requeue);
  };

  EXPECT_FALSE(checker.NextJob().has_value());
  complete(issue(0, 1, 0), 0.123456789);
  complete(issue(1, 2, 1), -1e-07);
  complete(issue(2, 3, -1), 3.0);
  EXPECT_EQ(checker.EventTrace(),
            "last 7 contract events (newest last):\n"
            "  NextJob -> nullopt (barrier or exhausted)\n"
            "  NextJob -> job 0 (level 1, bracket 0, attempt 1)\n"
            "  OnJobComplete(job 0, attempt 1, objective 0.123457)\n"
            "  NextJob -> job 1 (level 2, bracket 1, attempt 1)\n"
            "  OnJobComplete(job 1, attempt 1, objective -1e-07)\n"
            "  NextJob -> job 2 (level 3, bracket -1, attempt 1)\n"
            "  OnJobComplete(job 2, attempt 1, objective 3)\n");

  // Filler with objectives across the stream's fixed/exponent switch.
  for (int i = 0; i < 24; ++i) {
    const double sign = i % 2 == 0 ? 1.0 : -1.0;
    complete(issue(3 + i, 1 + i % 4, i % 3 - 1),
             sign * std::ldexp(1.0 + i / 7.0, 3 * i - 36));
  }
  int64_t id = 40;  // a gap in the ids
  for (FailureKind kind : {FailureKind::kCrash, FailureKind::kTimeout,
                           FailureKind::kWorkerLost}) {
    Job job = issue(id++, 2, 1);
    fail(job, 1, kind, 2, /*requeue=*/true);
    fail(job, 2, kind, 0, /*requeue=*/false);
  }
  Job speculated = issue(id, 4, 2);
  checker.NoteSpeculativeLaunch(speculated);
  checker.NoteSpeculativeCopyLost(speculated);
  complete(speculated, 0.5);
  EXPECT_FALSE(checker.NextJob().has_value());

  EXPECT_TRUE(checker.violations().empty()) << checker.violations().front();
  const std::string expected =
      "last 64 contract events (newest last):\n"
      "  NextJob -> job 2 (level 3, bracket -1, attempt 1)\n"
      "  OnJobComplete(job 2, attempt 1, objective 3)\n"
      "  NextJob -> job 3 (level 1, bracket -1, attempt 1)\n"
      "  OnJobComplete(job 3, attempt 1, objective 1.45519e-11)\n"
      "  NextJob -> job 4 (level 2, bracket 0, attempt 1)\n"
      "  OnJobComplete(job 4, attempt 1, objective -1.33046e-10)\n"
      "  NextJob -> job 5 (level 3, bracket 1, attempt 1)\n"
      "  OnJobComplete(job 5, attempt 1, objective 1.19741e-09)\n"
      "  NextJob -> job 6 (level 4, bracket -1, attempt 1)\n"
      "  OnJobComplete(job 6, attempt 1, objective -1.06437e-08)\n"
      "  NextJob -> job 7 (level 1, bracket 0, attempt 1)\n"
      "  OnJobComplete(job 7, attempt 1, objective 9.36644e-08)\n"
      "  NextJob -> job 8 (level 2, bracket 1, attempt 1)\n"
      "  OnJobComplete(job 8, attempt 1, objective -8.17435e-07)\n"
      "  NextJob -> job 9 (level 3, bracket -1, attempt 1)\n"
      "  OnJobComplete(job 9, attempt 1, objective 7.08444e-06)\n"
      "  NextJob -> job 10 (level 4, bracket 0, attempt 1)\n"
      "  OnJobComplete(job 10, attempt 1, objective -6.10352e-05)\n"
      "  NextJob -> job 11 (level 1, bracket 1, attempt 1)\n"
      "  OnJobComplete(job 11, attempt 1, objective 0.000523158)\n"
      "  NextJob -> job 12 (level 2, bracket -1, attempt 1)\n"
      "  OnJobComplete(job 12, attempt 1, objective -0.00446429)\n"
      "  NextJob -> job 13 (level 3, bracket 0, attempt 1)\n"
      "  OnJobComplete(job 13, attempt 1, objective 0.0379464)\n"
      "  NextJob -> job 14 (level 4, bracket 1, attempt 1)\n"
      "  OnJobComplete(job 14, attempt 1, objective -0.321429)\n"
      "  NextJob -> job 15 (level 1, bracket -1, attempt 1)\n"
      "  OnJobComplete(job 15, attempt 1, objective 2.71429)\n"
      "  NextJob -> job 16 (level 2, bracket 0, attempt 1)\n"
      "  OnJobComplete(job 16, attempt 1, objective -22.8571)\n"
      "  NextJob -> job 17 (level 3, bracket 1, attempt 1)\n"
      "  OnJobComplete(job 17, attempt 1, objective 192)\n"
      "  NextJob -> job 18 (level 4, bracket -1, attempt 1)\n"
      "  OnJobComplete(job 18, attempt 1, objective -1609.14)\n"
      "  NextJob -> job 19 (level 1, bracket 0, attempt 1)\n"
      "  OnJobComplete(job 19, attempt 1, objective 13458.3)\n"
      "  NextJob -> job 20 (level 2, bracket 1, attempt 1)\n"
      "  OnJobComplete(job 20, attempt 1, objective -112347)\n"
      "  NextJob -> job 21 (level 3, bracket -1, attempt 1)\n"
      "  OnJobComplete(job 21, attempt 1, objective 936229)\n"
      "  NextJob -> job 22 (level 4, bracket 0, attempt 1)\n"
      "  OnJobComplete(job 22, attempt 1, objective -7.78942e+06)\n"
      "  NextJob -> job 23 (level 1, bracket 1, attempt 1)\n"
      "  OnJobComplete(job 23, attempt 1, objective 6.47121e+07)\n"
      "  NextJob -> job 24 (level 2, bracket -1, attempt 1)\n"
      "  OnJobComplete(job 24, attempt 1, objective -5.36871e+08)\n"
      "  NextJob -> job 25 (level 3, bracket 0, attempt 1)\n"
      "  OnJobComplete(job 25, attempt 1, objective 4.44836e+09)\n"
      "  NextJob -> job 26 (level 4, bracket 1, attempt 1)\n"
      "  OnJobComplete(job 26, attempt 1, objective -3.6814e+10)\n"
      "  NextJob -> job 40 (level 2, bracket 1, attempt 1)\n"
      "  OnJobFailed(job 40, attempt 1, crash, retries_remaining 2)"
      " -> requeue\n"
      "  OnJobFailed(job 40, attempt 2, crash, retries_remaining 0)"
      " -> abandon\n"
      "  NextJob -> job 41 (level 2, bracket 1, attempt 1)\n"
      "  OnJobFailed(job 41, attempt 1, timeout, retries_remaining 2)"
      " -> requeue\n"
      "  OnJobFailed(job 41, attempt 2, timeout, retries_remaining 0)"
      " -> abandon\n"
      "  NextJob -> job 42 (level 2, bracket 1, attempt 1)\n"
      "  OnJobFailed(job 42, attempt 1, worker-lost, retries_remaining 2)"
      " -> requeue\n"
      "  OnJobFailed(job 42, attempt 2, worker-lost, retries_remaining 0)"
      " -> abandon\n"
      "  NextJob -> job 43 (level 4, bracket 2, attempt 1)\n"
      "  SpeculativeLaunch(job 43, attempt 1)\n"
      "  SpeculativeCopyLost(job 43, attempt 1)\n"
      "  OnJobComplete(job 43, attempt 1, objective 0.5)\n"
      "  NextJob -> nullopt (barrier or exhausted)\n";
  EXPECT_EQ(checker.EventTrace(), expected);

  // The mirror holds every event, oldest first; its last 64 names are the
  // dump's lines.
  std::vector<std::string> names;
  for (const TraceEvent& event : sink.trace.Snapshot()) {
    if (event.kind == TraceKind::kContract) names.push_back(event.name);
  }
  ASSERT_EQ(names.size(), 69u);
  std::string mirrored = "last 64 contract events (newest last):\n";
  for (size_t i = names.size() - 64; i < names.size(); ++i) {
    mirrored += "  " + names[i] + "\n";
  }
  EXPECT_EQ(mirrored, expected);
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
