// Worker fault-domain suite: node death/recovery, permanent loss, orphan
// requeue, quarantine, and speculative straggler re-execution, across all
// three scheduler families and both cluster backends.
//
// The chaos scenarios are seeded — CI's chaos matrix re-runs this binary
// with HYPERTUNE_CHAOS_SEED=0/1/2 to shift the base seeds, so the same
// assertions must hold across several fault timelines, not just one lucky
// seed. Thread-backend assertions avoid wall-clock timing so they hold
// under ThreadSanitizer slowdown.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>

#include <gtest/gtest.h>

#include "src/core/tuner_factory.h"
#include "src/optimizer/random_sampler.h"
#include "src/problems/counting_ones.h"
#include "src/problems/nas_bench.h"
#include "src/runtime/simulated_cluster.h"
#include "src/runtime/thread_cluster.h"
#include "src/scheduler/async_bracket_scheduler.h"
#include "src/scheduler/batch_bo_scheduler.h"
#include "src/scheduler/sync_bracket_scheduler.h"

namespace hypertune {
namespace {

/// Base seed shifted by the CI chaos matrix (HYPERTUNE_CHAOS_SEED=0/1/2),
/// so every matrix leg exercises a different fault timeline.
uint64_t ChaosSeed(uint64_t base) {
  const char* env = std::getenv("HYPERTUNE_CHAOS_SEED");
  if (env == nullptr) return base;
  return base + std::strtoull(env, nullptr, 10);
}

enum class SchedulerKind { kSyncBracket, kAsyncBracket, kBatchBo };

const char* SchedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kSyncBracket:
      return "sync-bracket";
    case SchedulerKind::kAsyncBracket:
      return "async-bracket";
    case SchedulerKind::kBatchBo:
      return "batch-bo";
  }
  return "?";
}

/// Invariants every fault-enabled run must satisfy, independent of seed,
/// scheduler, and backend.
void CheckFaultAccounting(const RunResult& r) {
  EXPECT_EQ(r.failed_attempts, r.retries + r.failed_trials);
  EXPECT_EQ(r.failed_attempts,
            r.crash_attempts + r.timeout_attempts + r.worker_lost_attempts);
  EXPECT_EQ(r.history.num_failures(), static_cast<size_t>(r.failed_trials));
  // A worker-lost attempt never consumes the job's retry budget, so it can
  // never be the attempt that abandons a trial.
  EXPECT_EQ(r.history.num_failures_of_kind(FailureKind::kWorkerLost), 0u);
  EXPECT_LE(r.speculative_wins + r.speculative_losses,
            2 * r.speculative_attempts);
  int64_t speculative_trials = 0;
  for (const TrialRecord& t : r.history.trials()) {
    if (t.speculative) ++speculative_trials;
  }
  EXPECT_EQ(speculative_trials, r.speculative_wins);
  EXPECT_FALSE(std::isnan(r.utilization));
  EXPECT_GE(r.utilization, 0.0);
  EXPECT_LE(r.utilization, 1.0 + 1e-12);
  EXPECT_GE(r.wasted_seconds, 0.0);
  EXPECT_GE(r.worker_down_seconds, 0.0);
  EXPECT_GE(r.speculative_wasted_seconds, 0.0);
}

/// Full-chaos options: attempt crashes, frequent node deaths (30%
/// permanent), quarantine, stragglers, and speculation all at once.
ClusterOptions SimChaosOptions(uint64_t seed) {
  ClusterOptions options;
  options.num_workers = 8;
  options.time_budget_seconds = 6000.0;
  options.seed = seed;
  options.straggler_sigma = 0.8;
  options.faults.crash_probability = 0.05;
  options.faults.max_retries = 2;
  options.faults.retry_backoff_seconds = 5.0;
  options.faults.retry_jitter = 0.25;
  options.worker_faults.mttf_seconds = 1000.0;
  options.worker_faults.mttr_seconds = 150.0;
  options.worker_faults.permanent_death_probability = 0.3;
  options.worker_faults.quarantine_failures = 3;
  options.worker_faults.quarantine_seconds = 100.0;
  options.speculation.speculation_factor = 1.3;
  options.speculation.min_samples = 3;
  return options;
}

RunResult RunSimChaos(SchedulerKind kind, const ClusterOptions& options) {
  CountingOnes problem;
  SimulatedCluster cluster(options);
  switch (kind) {
    case SchedulerKind::kSyncBracket: {
      MeasurementStore store(3);
      RandomSampler sampler(&problem.space(), &store, 17);
      BracketSchedulerOptions scheduler_options;
      scheduler_options.ladder.eta = 3.0;
      scheduler_options.ladder.num_levels = 3;
      scheduler_options.ladder.max_resource = 729.0;
      scheduler_options.selector.policy = BracketPolicy::kRoundRobin;
      SyncBracketScheduler scheduler(&problem.space(), &store, &sampler,
                                     nullptr, scheduler_options);
      return cluster.Run(&scheduler, problem);
    }
    case SchedulerKind::kAsyncBracket: {
      MeasurementStore store(3);
      RandomSampler sampler(&problem.space(), &store, 17);
      BracketSchedulerOptions scheduler_options;
      scheduler_options.ladder.eta = 3.0;
      scheduler_options.ladder.num_levels = 3;
      scheduler_options.ladder.max_resource = 729.0;
      scheduler_options.selector.policy = BracketPolicy::kFixed;
      scheduler_options.selector.fixed_bracket = 1;
      AsyncBracketScheduler scheduler(&problem.space(), &store, &sampler,
                                      nullptr, scheduler_options);
      return cluster.Run(&scheduler, problem);
    }
    case SchedulerKind::kBatchBo: {
      MeasurementStore store(1);
      RandomSampler sampler(&problem.space(), &store, 17);
      BatchBoSchedulerOptions scheduler_options;
      scheduler_options.synchronous = true;
      scheduler_options.batch_size = 4;
      scheduler_options.resource = 729.0;
      scheduler_options.level = 1;
      BatchBoScheduler scheduler(&store, &sampler, scheduler_options);
      return cluster.Run(&scheduler, problem);
    }
  }
  return {};
}

TEST(WorkerFaultTest, SimulatedChaosSurvivesAllSchedulers) {
  // Well over 25% of the 8 workers die mid-run (MTTF is a sixth of the
  // budget), some permanently. Every scheduler family must ride through
  // it: the run terminates, completes work, and the books balance.
  for (SchedulerKind kind :
       {SchedulerKind::kSyncBracket, SchedulerKind::kAsyncBracket,
        SchedulerKind::kBatchBo}) {
    SCOPED_TRACE(SchedulerKindName(kind));
    RunResult result = RunSimChaos(kind, SimChaosOptions(ChaosSeed(101)));
    CheckFaultAccounting(result);
    EXPECT_GT(result.history.num_trials(), 10u);
    EXPECT_GE(result.worker_deaths, 2);  // >= 25% of 8 workers
    EXPECT_GE(result.workers_lost_permanently, 1);
    EXPECT_GT(result.worker_lost_attempts, 0);
    EXPECT_GT(result.worker_down_seconds, 0.0);
    EXPECT_LE(result.elapsed_seconds, 6000.0 + 1e-9);
  }
}

TEST(WorkerFaultTest, WorkerLostNeverConsumesRetryBudget) {
  // Zero retry budget and no job-level faults: with only worker deaths in
  // play, every orphaned attempt must be requeued for free. If a death
  // burned the budget, max_retries = 0 would abandon the job on the spot.
  ClusterOptions options;
  options.num_workers = 4;
  options.time_budget_seconds = 6000.0;
  options.seed = ChaosSeed(7);
  options.faults.max_retries = 0;
  options.worker_faults.mttf_seconds = 800.0;
  options.worker_faults.mttr_seconds = 100.0;
  options.worker_faults.permanent_death_probability = 0.0;
  RunResult result = RunSimChaos(SchedulerKind::kSyncBracket, options);
  CheckFaultAccounting(result);
  EXPECT_GT(result.worker_deaths, 0);
  EXPECT_GT(result.worker_lost_attempts, 0);
  EXPECT_EQ(result.failed_trials, 0);
  EXPECT_EQ(result.history.num_failures(), 0u);
  EXPECT_EQ(result.retries, result.worker_lost_attempts);
  EXPECT_EQ(result.crash_attempts, 0);
  EXPECT_EQ(result.timeout_attempts, 0);
}

uint64_t DigestRun(const RunResult& r) {
  uint64_t hash = 1469598103934665603ULL;  // FNV-1a
  auto mix = [&hash](uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ULL;
  };
  auto mix_double = [&mix](double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  for (const TrialRecord& t : r.history.trials()) {
    mix(static_cast<uint64_t>(t.job.job_id));
    mix(static_cast<uint64_t>(t.worker));
    mix(t.speculative ? 1u : 0u);
    mix_double(t.start_time);
    mix_double(t.end_time);
    mix_double(t.result.objective);
  }
  for (const TrialRecord& t : r.history.failures()) {
    mix(static_cast<uint64_t>(t.job.job_id));
    mix(static_cast<uint64_t>(t.failure_kind));
    mix_double(t.end_time);
  }
  mix(static_cast<uint64_t>(r.failed_attempts));
  mix(static_cast<uint64_t>(r.worker_deaths));
  mix(static_cast<uint64_t>(r.quarantines));
  mix(static_cast<uint64_t>(r.speculative_attempts));
  mix_double(r.worker_down_seconds);
  return hash;
}

TEST(WorkerFaultTest, ChaosReplayIsBitIdenticalAndSeedSensitive) {
  // Worker lifetimes, fault draws, and speculation decisions are all pure
  // functions of the run seed: replaying the same seed reproduces the
  // entire chaos timeline bit-for-bit; a different seed produces a
  // different one.
  ClusterOptions options = SimChaosOptions(ChaosSeed(55));
  RunResult first = RunSimChaos(SchedulerKind::kAsyncBracket, options);
  RunResult second = RunSimChaos(SchedulerKind::kAsyncBracket, options);
  EXPECT_EQ(DigestRun(first), DigestRun(second));
  EXPECT_EQ(first.history.num_trials(), second.history.num_trials());
  EXPECT_EQ(first.worker_deaths, second.worker_deaths);
  EXPECT_EQ(first.speculative_wins, second.speculative_wins);

  options.seed += 1;
  RunResult shifted = RunSimChaos(SchedulerKind::kAsyncBracket, options);
  EXPECT_NE(DigestRun(first), DigestRun(shifted));
}

TEST(WorkerFaultTest, QuarantineIsolatesRepeatOffenders) {
  // Every attempt crashes and the budget allows no retries, so each worker
  // racks up consecutive job-level failures and must cycle through
  // quarantine instead of hammering the queue. The run still terminates
  // (every job is abandoned through the scheduler contract).
  ClusterOptions options;
  options.num_workers = 4;
  options.time_budget_seconds = 6000.0;
  options.seed = ChaosSeed(3);
  options.faults.crash_probability = 1.0;
  options.faults.max_retries = 0;
  options.worker_faults.mttf_seconds = 1e9;  // deaths out of the picture
  options.worker_faults.quarantine_failures = 2;
  options.worker_faults.quarantine_seconds = 50.0;
  RunResult result = RunSimChaos(SchedulerKind::kSyncBracket, options);
  CheckFaultAccounting(result);
  EXPECT_EQ(result.history.num_trials(), 0u);
  EXPECT_GT(result.failed_trials, 0);
  EXPECT_GT(result.quarantines, 0);
  EXPECT_GT(result.worker_down_seconds, 0.0);
  EXPECT_EQ(result.worker_deaths, 0);
}

TEST(WorkerFaultTest, SpeculationFirstFinisherWins) {
  // Heavy straggler noise with no faults: duplicates launch against
  // overdue attempts, some duplicates beat their primary (wins show up as
  // speculative trials), and every resolved race retires exactly one
  // losing copy. Objectives are keyed on the configuration, so which copy
  // wins never changes the measured value — only the timestamps. The
  // synchronous scheduler is the interesting host: its barriers idle
  // workers, which is exactly the capacity speculation reclaims (an
  // async scheduler keeps all workers busy, so duplicates rarely find a
  // free slot).
  ClusterOptions options;
  options.num_workers = 8;
  options.time_budget_seconds = 6000.0;
  options.seed = ChaosSeed(23);
  options.straggler_sigma = 0.8;
  options.speculation.speculation_factor = 1.3;
  options.speculation.min_samples = 3;
  RunResult result = RunSimChaos(SchedulerKind::kSyncBracket, options);
  CheckFaultAccounting(result);
  EXPECT_GT(result.speculative_attempts, 0);
  EXPECT_GT(result.speculative_wins, 0);
  EXPECT_LE(result.speculative_losses, result.speculative_attempts);
  EXPECT_GT(result.speculative_wasted_seconds, 0.0);
  // No job-level faults: speculation alone must not fabricate failures.
  EXPECT_EQ(result.failed_attempts, 0);
  EXPECT_EQ(result.history.num_failures(), 0u);
  EXPECT_DOUBLE_EQ(result.wasted_seconds, 0.0);
}

TEST(WorkerFaultTest, AllWorkersLostPermanentlyStillTerminates) {
  // The pathological fault domain: every death is permanent and MTTF is a
  // small fraction of the budget, so the whole cluster is gone mid-run.
  // The run must drain cleanly instead of hanging on unreachable work.
  ClusterOptions options;
  options.num_workers = 4;
  options.time_budget_seconds = 6000.0;
  options.seed = ChaosSeed(13);
  options.worker_faults.mttf_seconds = 300.0;
  options.worker_faults.permanent_death_probability = 1.0;
  RunResult result = RunSimChaos(SchedulerKind::kAsyncBracket, options);
  CheckFaultAccounting(result);
  EXPECT_EQ(result.workers_lost_permanently, 4);
  EXPECT_EQ(result.worker_deaths, 4);
  EXPECT_LE(result.elapsed_seconds, 6000.0 + 1e-9);
}

TEST(WorkerFaultTest, NasBenchChaosDegradesGracefully) {
  // End-to-end tolerance bound on the paper's workload: a chaos run that
  // loses >= 25% of its workers (some permanently) must still land within
  // 10 validation-error points of the fault-free run on the same seed —
  // faults cost throughput, not correctness of what completes.
  SyntheticNasBench problem;
  TunerFactoryOptions factory;
  factory.method = Method::kAHyperband;
  factory.seed = ChaosSeed(1);

  ClusterOptions clean;
  clean.num_workers = 8;
  clean.time_budget_seconds = 6.0 * 3600.0;
  clean.seed = factory.seed;
  std::unique_ptr<Tuner> clean_tuner = CreateTuner(problem, factory);
  RunResult clean_run = clean_tuner->Run(problem, clean);

  ClusterOptions chaos = clean;
  chaos.faults.crash_probability = 0.05;
  chaos.faults.max_retries = 2;
  chaos.faults.retry_backoff_seconds = 60.0;
  chaos.worker_faults.mttf_seconds = clean.time_budget_seconds / 6.0;
  chaos.worker_faults.mttr_seconds = clean.time_budget_seconds / 40.0;
  chaos.worker_faults.permanent_death_probability = 0.3;
  chaos.worker_faults.quarantine_failures = 3;
  chaos.worker_faults.quarantine_seconds = 600.0;
  std::unique_ptr<Tuner> chaos_tuner = CreateTuner(problem, factory);
  RunResult chaos_run = chaos_tuner->Run(problem, chaos);

  CheckFaultAccounting(chaos_run);
  EXPECT_GE(chaos_run.worker_deaths, 2);  // >= 25% of 8 workers
  EXPECT_GE(chaos_run.workers_lost_permanently, 1);
  EXPECT_GT(chaos_run.history.num_trials(), 10u);
  EXPECT_LT(chaos_run.history.best_objective(),
            clean_run.history.best_objective() + 10.0);
}

TEST(WorkerFaultTest, ThreadChaosSurvivesWorkerDeaths) {
  // Real-thread backend under the full fault domain: node deaths (some
  // permanent), crashes, quarantine, and speculation at once. Assertions
  // stick to bookkeeping (not wall-clock timing) so they hold under TSan.
  CountingOnes problem;
  MeasurementStore store(3);
  RandomSampler sampler(&problem.space(), &store, 5);
  BracketSchedulerOptions scheduler_options;
  scheduler_options.ladder.eta = 3.0;
  scheduler_options.ladder.num_levels = 3;
  scheduler_options.ladder.max_resource = 27.0;
  scheduler_options.selector.policy = BracketPolicy::kFixed;
  scheduler_options.selector.fixed_bracket = 1;
  AsyncBracketScheduler scheduler(&problem.space(), &store, &sampler, nullptr,
                                  scheduler_options);

  ThreadClusterOptions options;
  options.num_workers = 8;
  options.time_budget_seconds = 2.0;
  options.seed = ChaosSeed(9);
  options.cost_sleep_scale = 1e-3;
  options.faults.crash_probability = 0.1;
  options.faults.max_retries = 1;
  options.faults.retry_backoff_seconds = 0.01;
  options.worker_faults.mttf_seconds = 0.3;
  options.worker_faults.mttr_seconds = 0.05;
  options.worker_faults.permanent_death_probability = 0.2;
  options.worker_faults.quarantine_failures = 3;
  options.worker_faults.quarantine_seconds = 0.05;
  options.speculation.speculation_factor = 2.0;
  options.speculation.min_samples = 3;
  ThreadCluster cluster(options);
  RunResult result = cluster.Run(&scheduler, problem);

  CheckFaultAccounting(result);
  EXPECT_GT(result.history.num_trials(), 0u);
  EXPECT_GT(result.worker_deaths, 0);
  EXPECT_GT(result.worker_down_seconds, 0.0);
}

TEST(WorkerFaultTest, ThreadAllWorkersDiePermanentlyShutsDownCleanly) {
  // Every worker thread dies permanently almost immediately; the run must
  // join all threads and return long before the (deliberately generous)
  // budget instead of spinning on a dead cluster.
  CountingOnes problem;
  MeasurementStore store(3);
  RandomSampler sampler(&problem.space(), &store, 5);
  BracketSchedulerOptions scheduler_options;
  scheduler_options.ladder.eta = 3.0;
  scheduler_options.ladder.num_levels = 3;
  scheduler_options.ladder.max_resource = 27.0;
  scheduler_options.selector.policy = BracketPolicy::kFixed;
  scheduler_options.selector.fixed_bracket = 1;
  AsyncBracketScheduler scheduler(&problem.space(), &store, &sampler, nullptr,
                                  scheduler_options);

  ThreadClusterOptions options;
  options.num_workers = 4;
  options.time_budget_seconds = 60.0;
  options.seed = ChaosSeed(31);
  options.cost_sleep_scale = 1e-3;
  options.worker_faults.mttf_seconds = 0.1;
  options.worker_faults.permanent_death_probability = 1.0;
  ThreadCluster cluster(options);
  RunResult result = cluster.Run(&scheduler, problem);

  CheckFaultAccounting(result);
  EXPECT_EQ(result.workers_lost_permanently, 4);
  EXPECT_EQ(result.worker_deaths, 4);
  // Each permanent death opens a down window that the end of the run
  // closes, so the dead cluster's time counts as down time.
  EXPECT_GT(result.worker_down_seconds, 0.0);
  EXPECT_LE(result.worker_down_seconds,
            options.num_workers * result.elapsed_seconds);
  // Even under TSan the cluster is gone within seconds, not the 60 s
  // budget (this is a liveness check, not a timing-sensitive one).
  EXPECT_LT(result.elapsed_seconds, 50.0);
}

}  // namespace
}  // namespace hypertune
