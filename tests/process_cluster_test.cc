// Supervision proof for the multi-process backend: workers are real
// subprocesses, so the tests SIGKILL and SIGSTOP them mid-attempt and
// assert the driver classifies, requeues, respawns, and still finishes the
// run — then leaves no children behind. The worker binary path comes from
// the build (HYPERTUNE_WORKER_BINARY). CI's chaos matrix re-runs this
// suite with HYPERTUNE_CHAOS_SEED=0/1/2 to shift the base seeds, so the
// invariants hold across different kill/respawn timelines.
#include "src/runtime/process_cluster.h"

#include <sys/wait.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/obs/observability.h"
#include "src/optimizer/random_sampler.h"
#include "src/problems/counting_ones.h"
#include "src/runtime/journal.h"
#include "src/scheduler/sync_bracket_scheduler.h"

namespace hypertune {
namespace {

/// Base seed shifted by the CI chaos matrix (HYPERTUNE_CHAOS_SEED=0/1/2),
/// so every matrix leg exercises a different kill/respawn timeline.
uint64_t ChaosSeed(uint64_t base) {
  const char* env = std::getenv("HYPERTUNE_CHAOS_SEED");
  if (env == nullptr) return base;
  return base + std::strtoull(env, nullptr, 10);
}

/// Everything one process-backend run needs, freshly constructed.
struct RunSetup {
  CountingOnes problem;
  std::unique_ptr<MeasurementStore> store;
  std::unique_ptr<RandomSampler> sampler;
  std::unique_ptr<SyncBracketScheduler> scheduler;
};

std::unique_ptr<RunSetup> MakeSetup() {
  auto setup = std::make_unique<RunSetup>();
  setup->store = std::make_unique<MeasurementStore>(3);
  setup->sampler = std::make_unique<RandomSampler>(
      &setup->problem.space(), setup->store.get(), /*seed=*/ChaosSeed(17));
  BracketSchedulerOptions options;
  options.ladder.eta = 3.0;
  options.ladder.num_levels = 3;
  options.ladder.max_resource = 729.0;
  options.selector.policy = BracketPolicy::kRoundRobin;
  setup->scheduler = std::make_unique<SyncBracketScheduler>(
      &setup->problem.space(), setup->store.get(), setup->sampler.get(),
      nullptr, options);
  return setup;
}

ProcessClusterOptions BaseOptions() {
  ProcessClusterOptions options;
  options.num_workers = 2;
  options.time_budget_seconds = 60.0;  // tests stop on max_trials
  options.max_trials = 12;
  options.seed = ChaosSeed(42);
  options.worker_binary = HYPERTUNE_WORKER_BINARY;
  options.problem_spec = "counting-ones";
  options.heartbeat_interval_seconds = 0.02;
  options.heartbeat_timeout_seconds = 1.0;
  options.respawn_backoff_seconds = 0.005;
  return options;
}

/// True once this process has no children left to reap — the drain
/// contract: every worker was waited on, none leaked as a zombie.
bool NoChildrenRemain() {
  const pid_t reaped = ::waitpid(-1, nullptr, WNOHANG);
  return reaped < 0 && errno == ECHILD;
}

TEST(ProcessClusterTest, RunsTrialsOnWorkerSubprocessesAndDrains) {
  std::unique_ptr<RunSetup> setup = MakeSetup();
  ProcessClusterOptions options = BaseOptions();
  Observability sink;
  options.obs.sink = &sink;
  std::unique_ptr<RunJournal> journal =
      RunJournal::CreateInMemory(/*fingerprint=*/1);
  options.journal = journal.get();

  ProcessCluster cluster(options);
  RunResult result = cluster.Run(setup->scheduler.get(), setup->problem);

  EXPECT_EQ(static_cast<int64_t>(result.history.trials().size()),
            options.max_trials);
  EXPECT_EQ(result.worker_deaths, 0);
  EXPECT_EQ(result.failed_attempts, 0);
  EXPECT_GT(result.busy_seconds, 0.0);
  EXPECT_GT(result.elapsed_seconds, 0.0);
  // The evaluations really happened out-of-process but reproduce the
  // problem bit-exactly: worker-side Evaluate uses the same
  // (config, resource, noise seed) contract the in-process backends use.
  for (const TrialRecord& trial : result.history.trials()) {
    const EvalOutcome expected = setup->problem.Evaluate(
        trial.job.config, trial.job.resource,
        CombineSeeds(options.seed, trial.job.config.Hash()));
    EXPECT_EQ(trial.result.objective, expected.objective);
    EXPECT_EQ(trial.result.test_objective, expected.test_objective);
  }
  EXPECT_TRUE(journal->ok()) << journal->status().ToString();
  EXPECT_GT(journal->records_appended(), 0);

  MetricsSnapshot metrics = sink.metrics.Snapshot();
  EXPECT_EQ(metrics.counters["process.spawns"], options.num_workers);
  EXPECT_EQ(metrics.counters["jobs.completed"], options.max_trials);
  EXPECT_TRUE(NoChildrenRemain());
}

TEST(ProcessClusterTest, SurvivesSigkillOfAnyWorkerMidAttempt) {
  std::unique_ptr<RunSetup> setup = MakeSetup();
  ProcessClusterOptions options = BaseOptions();
  options.chaos_kill_every = 3;  // SIGKILL the worker of every 3rd dispatch
  Observability sink;
  options.obs.sink = &sink;

  ProcessCluster cluster(options);
  RunResult result = cluster.Run(setup->scheduler.get(), setup->problem);

  // Every kill orphans the attempt in the worker's hands; the run still
  // completes its trial quota because orphans are requeued and dead slots
  // respawn.
  EXPECT_EQ(static_cast<int64_t>(result.history.trials().size()),
            options.max_trials);
  EXPECT_GT(result.worker_deaths, 0);
  EXPECT_GT(result.worker_lost_attempts, 0);
  EXPECT_EQ(result.crash_attempts, 0);  // SIGKILL is loss, not crash
  EXPECT_EQ(result.failed_trials, 0);   // loss never consumes retry budget
  EXPECT_GT(result.retries, 0);

  MetricsSnapshot metrics = sink.metrics.Snapshot();
  EXPECT_GT(metrics.counters["process.respawns"], 0);
  EXPECT_GT(metrics.counters["workers.deaths"], 0);
  EXPECT_GT(metrics.counters["jobs.requeued"], 0);
  bool saw_spawn = false, saw_exit = false;
  for (const TraceEvent& event : sink.trace.Snapshot()) {
    if (event.kind == TraceKind::kProcessSpawn) saw_spawn = true;
    if (event.kind == TraceKind::kProcessExit) saw_exit = true;
  }
  EXPECT_TRUE(saw_spawn);
  EXPECT_TRUE(saw_exit);
  EXPECT_TRUE(NoChildrenRemain());
}

TEST(ProcessClusterTest, WorkerLossPreservesRetryBudget) {
  // max_retries = 0: any job-level failure would abandon the trial
  // immediately. Killed workers must therefore not count against the
  // budget — all trials still complete despite repeated kills.
  std::unique_ptr<RunSetup> setup = MakeSetup();
  ProcessClusterOptions options = BaseOptions();
  options.max_trials = 9;
  options.chaos_kill_every = 4;
  options.faults.max_retries = 0;

  ProcessCluster cluster(options);
  RunResult result = cluster.Run(setup->scheduler.get(), setup->problem);

  EXPECT_EQ(static_cast<int64_t>(result.history.trials().size()),
            options.max_trials);
  EXPECT_GT(result.worker_lost_attempts, 0);
  EXPECT_EQ(result.failed_trials, 0);
  EXPECT_TRUE(NoChildrenRemain());
}

TEST(ProcessClusterTest, HeartbeatTimeoutCatchesFrozenWorker) {
  // SIGSTOP freezes the whole process — evaluation loop and heartbeat
  // thread alike — so only the driver's heartbeat deadline can detect it.
  // Freeze the worker of one mid-rung dispatch. The sync bracket barrier
  // cannot pass until that frozen job completes, and the trial quota lies
  // beyond the barrier — so finishing the run is impossible unless the
  // heartbeat deadline detects the frozen worker, kills it, requeues the
  // orphan, and respawns the slot.
  std::unique_ptr<RunSetup> setup = MakeSetup();
  ProcessClusterOptions options = BaseOptions();
  options.max_trials = 12;
  options.chaos_stop_every = 6;
  options.heartbeat_timeout_seconds = 0.25;
  Observability sink;
  options.obs.sink = &sink;

  ProcessCluster cluster(options);
  RunResult result = cluster.Run(setup->scheduler.get(), setup->problem);

  EXPECT_EQ(static_cast<int64_t>(result.history.trials().size()),
            options.max_trials);
  EXPECT_GT(result.worker_deaths, 0);
  EXPECT_GT(result.worker_lost_attempts, 0);

  MetricsSnapshot metrics = sink.metrics.Snapshot();
  EXPECT_GT(metrics.counters["process.heartbeat_misses"], 0);
  bool saw_miss = false;
  for (const TraceEvent& event : sink.trace.Snapshot()) {
    if (event.kind == TraceKind::kHeartbeatMiss) saw_miss = true;
  }
  EXPECT_TRUE(saw_miss);
  EXPECT_TRUE(NoChildrenRemain());
}

TEST(ProcessClusterTest, InjectedCrashesConsumeRetryBudgetAndAbandon) {
  // Driver-side PlanAttempt dooms attempts; the worker _exits mid-attempt
  // with the crash code, which the driver classifies as kCrash (budget
  // consumed) — with zero retries every crashed trial is abandoned.
  std::unique_ptr<RunSetup> setup = MakeSetup();
  ProcessClusterOptions options = BaseOptions();
  options.max_trials = 10;
  options.faults.crash_probability = 0.3;
  options.faults.max_retries = 1;
  options.faults.retry_backoff_seconds = 0.01;

  ProcessCluster cluster(options);
  RunResult result = cluster.Run(setup->scheduler.get(), setup->problem);

  EXPECT_EQ(static_cast<int64_t>(result.history.trials().size()),
            options.max_trials);
  EXPECT_GT(result.crash_attempts, 0);
  EXPECT_GT(result.worker_deaths, 0);  // a crash kills the whole process
  EXPECT_GT(result.retries, 0);
  EXPECT_TRUE(NoChildrenRemain());
}

TEST(ProcessClusterTest, BrokenWorkerBinaryFailsSlotsPermanently) {
  // A binary that dies before the hello handshake (here: unknown problem
  // spec) must not respawn-loop forever: after the spawn-failure cap every
  // slot is declared permanently failed and Run returns empty-handed.
  std::unique_ptr<RunSetup> setup = MakeSetup();
  ProcessClusterOptions options = BaseOptions();
  options.problem_spec = "no-such-problem";
  options.time_budget_seconds = 30.0;

  ProcessCluster cluster(options);
  RunResult result = cluster.Run(setup->scheduler.get(), setup->problem);

  EXPECT_TRUE(result.history.trials().empty());
  EXPECT_EQ(result.workers_lost_permanently, options.num_workers);
  EXPECT_GE(result.worker_deaths,
            options.num_workers * kMaxConsecutiveSpawnFailures);
  // Every death opens a down window: a respawn closes it, and the end of
  // the run closes the permanent ones.
  EXPECT_GT(result.worker_down_seconds, 0.0);
  EXPECT_LE(result.worker_down_seconds,
            options.num_workers * result.elapsed_seconds);
  EXPECT_TRUE(NoChildrenRemain());
}

}  // namespace
}  // namespace hypertune
