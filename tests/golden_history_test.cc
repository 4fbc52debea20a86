// Golden-history pin: with faults disabled, every scheduler must produce a
// bit-identical TrialHistory to the pre-fault-runtime code for the same
// seed. The expected hashes below were captured from the seed revision
// (before FaultOptions existed); any drift in these tests means the fault
// model leaks into fault-free runs.
//
// The hash covers every semantic field of every trial and curve point
// (double bit patterns included). Values are stable for a given toolchain /
// standard library; CI pins the toolchain.
#include <cstring>

#include <gtest/gtest.h>

#include "src/core/tuner_factory.h"
#include "src/optimizer/random_sampler.h"
#include "src/problems/counting_ones.h"
#include "src/runtime/journal.h"
#include "src/runtime/simulated_cluster.h"
#include "src/scheduler/async_bracket_scheduler.h"
#include "src/scheduler/batch_bo_scheduler.h"
#include "src/scheduler/sync_bracket_scheduler.h"

namespace hypertune {
namespace {

uint64_t HashHistory(const TrialHistory& history) {
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
  for (const TrialRecord& t : history.trials()) {
    mix(static_cast<uint64_t>(t.job.job_id));
    mix(static_cast<uint64_t>(t.job.level));
    mix(static_cast<uint64_t>(t.job.bracket));
    mix(static_cast<uint64_t>(t.worker));
    mix_double(t.job.resource);
    mix_double(t.job.resume_from);
    mix_double(t.start_time);
    mix_double(t.end_time);
    mix_double(t.result.objective);
    mix_double(t.result.test_objective);
    mix_double(t.result.cost_seconds);
    for (size_t d = 0; d < t.job.config.size(); ++d) {
      mix_double(t.job.config[d]);
    }
  }
  for (const CurvePoint& p : history.curve()) {
    mix_double(p.time);
    mix_double(p.best_objective);
    mix_double(p.best_full_fidelity);
    mix_double(p.incumbent_test);
  }
  return hash;
}

ResourceLadder GoldenLadder() {
  ResourceLadder ladder;
  ladder.eta = 3.0;
  ladder.num_levels = 3;
  ladder.max_resource = 729.0;
  return ladder;
}

ClusterOptions GoldenCluster(double sigma) {
  ClusterOptions options;
  options.num_workers = 4;
  options.time_budget_seconds = 6000.0;
  options.seed = 42;
  options.straggler_sigma = sigma;
  return options;
}

void ExpectNoFaultActivity(const RunResult& result) {
  EXPECT_EQ(result.failed_attempts, 0);
  EXPECT_EQ(result.retries, 0);
  EXPECT_EQ(result.failed_trials, 0);
  EXPECT_EQ(result.history.num_failures(), 0u);
  EXPECT_DOUBLE_EQ(result.wasted_seconds, 0.0);
}

uint64_t RunSync(double sigma) {
  CountingOnes problem;
  MeasurementStore store(3);
  RandomSampler sampler(&problem.space(), &store, 17);
  BracketSchedulerOptions options;
  options.ladder = GoldenLadder();
  options.selector.policy = BracketPolicy::kRoundRobin;
  SyncBracketScheduler scheduler(&problem.space(), &store, &sampler, nullptr,
                                 options);
  SimulatedCluster cluster(GoldenCluster(sigma));
  RunResult result = cluster.Run(&scheduler, problem);
  ExpectNoFaultActivity(result);
  return HashHistory(result.history);
}

uint64_t RunAsync(double sigma) {
  CountingOnes problem;
  MeasurementStore store(3);
  RandomSampler sampler(&problem.space(), &store, 17);
  BracketSchedulerOptions options;
  options.ladder = GoldenLadder();
  options.selector.policy = BracketPolicy::kFixed;
  options.selector.fixed_bracket = 1;
  options.delayed_promotion = true;
  AsyncBracketScheduler scheduler(&problem.space(), &store, &sampler, nullptr,
                                  options);
  SimulatedCluster cluster(GoldenCluster(sigma));
  RunResult result = cluster.Run(&scheduler, problem);
  ExpectNoFaultActivity(result);
  return HashHistory(result.history);
}

uint64_t RunBatchBo(double sigma) {
  CountingOnes problem;
  MeasurementStore store(1);
  RandomSampler sampler(&problem.space(), &store, 17);
  BatchBoSchedulerOptions options;
  options.synchronous = true;
  options.batch_size = 4;
  options.resource = 729.0;
  options.level = 1;
  BatchBoScheduler scheduler(&store, &sampler, options);
  SimulatedCluster cluster(GoldenCluster(sigma));
  RunResult result = cluster.Run(&scheduler, problem);
  ExpectNoFaultActivity(result);
  return HashHistory(result.history);
}

/// Digest for fault-enabled runs: the trial/curve hash extended with every
/// failure record, each trial's speculative flag, and the run-level fault
/// counters. Pins the entire fault pipeline, not just surviving trials.
uint64_t HashFaultRun(const RunResult& result) {
  uint64_t hash = HashHistory(result.history);
  auto mix = [&hash](uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ULL;
  };
  auto mix_double = [&mix](double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  for (const TrialRecord& t : result.history.trials()) {
    mix(t.speculative ? 1u : 0u);
  }
  for (const TrialRecord& t : result.history.failures()) {
    mix(static_cast<uint64_t>(t.job.job_id));
    mix(static_cast<uint64_t>(t.job.level));
    mix(static_cast<uint64_t>(t.worker));
    mix(static_cast<uint64_t>(t.failure_kind));
    mix_double(t.start_time);
    mix_double(t.end_time);
  }
  mix(static_cast<uint64_t>(result.failed_attempts));
  mix(static_cast<uint64_t>(result.retries));
  mix(static_cast<uint64_t>(result.failed_trials));
  mix(static_cast<uint64_t>(result.crash_attempts));
  mix(static_cast<uint64_t>(result.timeout_attempts));
  mix(static_cast<uint64_t>(result.worker_lost_attempts));
  mix(static_cast<uint64_t>(result.worker_deaths));
  mix(static_cast<uint64_t>(result.workers_lost_permanently));
  mix(static_cast<uint64_t>(result.quarantines));
  mix(static_cast<uint64_t>(result.speculative_attempts));
  mix(static_cast<uint64_t>(result.speculative_wins));
  mix(static_cast<uint64_t>(result.speculative_losses));
  mix_double(result.wasted_seconds);
  mix_double(result.worker_down_seconds);
  mix_double(result.speculative_wasted_seconds);
  return hash;
}

/// A run with every fault mechanism live at once: attempt crashes and
/// timeouts, worker deaths (some permanent), quarantine, and speculative
/// re-execution on top of straggler noise.
RunResult RunWorkerFaultChaos(bool check_contract) {
  CountingOnes problem;
  MeasurementStore store(3);
  RandomSampler sampler(&problem.space(), &store, 17);
  BracketSchedulerOptions options;
  options.ladder = GoldenLadder();
  options.selector.policy = BracketPolicy::kRoundRobin;
  SyncBracketScheduler scheduler(&problem.space(), &store, &sampler, nullptr,
                                 options);
  ClusterOptions cluster_options = GoldenCluster(0.8);
  cluster_options.check_contract = check_contract;
  cluster_options.faults.crash_probability = 0.05;
  cluster_options.faults.timeout_seconds = 2500.0;
  cluster_options.faults.max_retries = 2;
  cluster_options.faults.retry_backoff_seconds = 5.0;
  cluster_options.faults.retry_jitter = 0.25;
  cluster_options.worker_faults.mttf_seconds = 1500.0;
  cluster_options.worker_faults.mttr_seconds = 200.0;
  cluster_options.worker_faults.permanent_death_probability = 0.1;
  cluster_options.worker_faults.quarantine_failures = 2;
  cluster_options.worker_faults.quarantine_seconds = 120.0;
  cluster_options.speculation.speculation_factor = 1.3;
  cluster_options.speculation.min_samples = 3;
  SimulatedCluster cluster(cluster_options);
  return cluster.Run(&scheduler, problem);
}

TEST(GoldenHistoryTest, WorkerFaultChaosRunMatchesPinnedDigest) {
  // The contract checker is pure observation: wrapping the scheduler must
  // not perturb a single bit of the run, even under full chaos.
  RunResult checked = RunWorkerFaultChaos(true);
  RunResult unchecked = RunWorkerFaultChaos(false);
  EXPECT_EQ(HashFaultRun(checked), HashFaultRun(unchecked));
  // The pin is only meaningful if the run actually exercised every fault
  // mechanism.
  EXPECT_GT(checked.worker_deaths, 0);
  EXPECT_GT(checked.worker_lost_attempts, 0);
  EXPECT_GT(checked.speculative_attempts, 0);
  EXPECT_GT(checked.failed_attempts, 0);
  // Seeded lifetimes / fault draws make the whole chaos run replayable;
  // this digest was captured from the revision that introduced worker
  // fault domains.
  EXPECT_EQ(HashFaultRun(checked), 9415099045545503522ULL);
}

/// RunResultDigest of a CreateTuner-built `method` on counting-ones (8
/// categorical + 8 continuous dimensions unless `shape` says otherwise)
/// with 8 simulated workers, run to `trials` completed trials.
uint64_t RunFactoryMethod(
    Method method, uint64_t seed, int64_t trials,
    SurrogateKind surrogate = SurrogateKind::kRandomForest,
    CountingOnesOptions shape = {}) {
  CountingOnes problem(shape);
  TunerFactoryOptions factory;
  factory.method = method;
  factory.seed = seed;
  factory.surrogate = surrogate;
  std::unique_ptr<Tuner> tuner = CreateTuner(problem, factory);
  ClusterOptions cluster;
  cluster.num_workers = 8;
  cluster.time_budget_seconds = 1e12;
  cluster.seed = seed;
  cluster.max_trials = trials;
  RunResult result = tuner->Run(problem, cluster);
  EXPECT_EQ(result.history.trials().size(), static_cast<size_t>(trials));
  ExpectNoFaultActivity(result);
  return RunResultDigest(result);
}

// The model-based methods: their trajectories run through the surrogate
// fits, the theta estimate and the learned bracket selector, so these pins
// catch any drift in forest fitting or theta caching. Captured from the
// revision before the theta fit cache and the column-major forest existed.
TEST(GoldenHistoryTest, HyperTuneMatchesPinnedDigest) {
  EXPECT_EQ(RunFactoryMethod(Method::kHyperTune, 5, 240),
            17321961078830525085ULL);
  EXPECT_EQ(RunFactoryMethod(Method::kHyperTune, 6, 240),
            17313937764517175042ULL);
}

TEST(GoldenHistoryTest, AsyncBohbMatchesPinnedDigest) {
  EXPECT_EQ(RunFactoryMethod(Method::kABohb, 7, 200), 1649251187749961826ULL);
}

// GP-backed sampling: BOHB's BO sampler and Hyper-Tune's MFES members fit
// Gaussian processes on counting-ones 4+4. Captured from the revision
// whose GP fits still shared a cross-fit kernel block cache.
TEST(GoldenHistoryTest, GpBackedMethodsMatchPinnedDigest) {
  CountingOnesOptions shape;
  shape.num_categorical = 4;
  shape.num_continuous = 4;
  EXPECT_EQ(RunFactoryMethod(Method::kHyperTune, 7, 300,
                             SurrogateKind::kGaussianProcess, shape),
            17155817351152302991ULL);
  EXPECT_EQ(RunFactoryMethod(Method::kBohb, 7, 300,
                             SurrogateKind::kGaussianProcess, shape),
            9031340732195883564ULL);
}

TEST(GoldenHistoryTest, SyncBracketSchedulerMatchesSeedRevision) {
  EXPECT_EQ(RunSync(0.0), 18196916382872347268ULL);
  EXPECT_EQ(RunSync(0.4), 2318263401010243178ULL);
}

TEST(GoldenHistoryTest, AsyncBracketSchedulerMatchesSeedRevision) {
  EXPECT_EQ(RunAsync(0.0), 6081657802665231680ULL);
  EXPECT_EQ(RunAsync(0.4), 12362550768026713702ULL);
}

TEST(GoldenHistoryTest, BatchBoSchedulerMatchesSeedRevision) {
  EXPECT_EQ(RunBatchBo(0.0), 15922871452540299455ULL);
  EXPECT_EQ(RunBatchBo(0.4), 9194569102725825520ULL);
}

}  // namespace
}  // namespace hypertune
