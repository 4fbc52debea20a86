#include "src/core/hyper_tune.h"

#include <gtest/gtest.h>

#include "src/obs/observability.h"
#include "src/problems/counting_ones.h"
#include "src/problems/nas_bench.h"

namespace hypertune {
namespace {

TEST(HyperTuneTest, MethodForMapsToggles) {
  HyperTuneOptions options;
  EXPECT_EQ(HyperTune::MethodFor(options), Method::kHyperTune);
  options.bracket_selection = false;
  EXPECT_EQ(HyperTune::MethodFor(options), Method::kHyperTuneNoBs);
  options.bracket_selection = true;
  options.delayed_promotion = false;
  EXPECT_EQ(HyperTune::MethodFor(options), Method::kHyperTuneNoDasha);
  options.delayed_promotion = true;
  options.multi_fidelity_sampler = false;
  EXPECT_EQ(HyperTune::MethodFor(options), Method::kHyperTuneNoMfes);
  options.bracket_selection = false;
  EXPECT_EQ(HyperTune::MethodFor(options), Method::kAHyperband);
}

TEST(HyperTuneTest, OptimizeConvergesOnCountingOnes) {
  CountingOnesOptions problem_options;
  problem_options.num_categorical = 6;
  problem_options.num_continuous = 6;
  CountingOnes problem(problem_options);

  HyperTuneOptions options;
  options.num_workers = 8;
  options.time_budget_seconds = 3000.0;
  options.seed = 1;
  TuningOutcome outcome = HyperTune::Optimize(problem, options);

  EXPECT_GT(outcome.run.history.num_trials(), 50u);
  EXPECT_LT(outcome.best_objective, -0.8);  // optimum is -1
  EXPECT_FALSE(outcome.best_config.empty());
  EXPECT_GT(outcome.best_resource, 0.0);
  // Asynchronous scheduling keeps workers almost fully busy.
  EXPECT_GT(outcome.run.utilization, 0.95);
}

TEST(HyperTuneTest, OutcomeMatchesHistory) {
  CountingOnes problem;
  HyperTuneOptions options;
  options.num_workers = 4;
  options.time_budget_seconds = 500.0;
  options.seed = 2;
  TuningOutcome outcome = HyperTune::Optimize(problem, options);
  EXPECT_DOUBLE_EQ(outcome.best_objective,
                   outcome.run.history.best_objective());
}

TEST(HyperTuneTest, DeterministicGivenSeed) {
  CountingOnes problem;
  HyperTuneOptions options;
  options.num_workers = 4;
  options.time_budget_seconds = 400.0;
  options.seed = 3;
  TuningOutcome a = HyperTune::Optimize(problem, options);
  TuningOutcome b = HyperTune::Optimize(problem, options);
  EXPECT_DOUBLE_EQ(a.best_objective, b.best_objective);
  EXPECT_EQ(a.run.history.num_trials(), b.run.history.num_trials());
  EXPECT_TRUE(a.best_config == b.best_config);
}

TEST(HyperTuneTest, AblationTogglesStillWork) {
  SyntheticNasBench problem;
  for (auto [bs, dasha, mfes] :
       {std::tuple{false, true, true}, std::tuple{true, false, true},
        std::tuple{true, true, false}}) {
    HyperTuneOptions options;
    options.bracket_selection = bs;
    options.delayed_promotion = dasha;
    options.multi_fidelity_sampler = mfes;
    options.num_workers = 8;
    options.time_budget_seconds = 3.0 * 3600.0;
    options.seed = 4;
    TuningOutcome outcome = HyperTune::Optimize(problem, options);
    EXPECT_GT(outcome.run.history.num_trials(), 10u);
    EXPECT_LT(outcome.best_objective, 30.0);
  }
}

TEST(HyperTuneTest, StragglerNoiseDoesNotBreakAsync) {
  CountingOnes problem;
  HyperTuneOptions options;
  options.num_workers = 8;
  options.time_budget_seconds = 500.0;
  options.straggler_sigma = 0.5;
  options.seed = 5;
  TuningOutcome outcome = HyperTune::Optimize(problem, options);
  EXPECT_GT(outcome.run.history.num_trials(), 20u);
  EXPECT_GT(outcome.run.utilization, 0.9);  // async absorbs stragglers
}

TEST(HyperTuneTest, OptimizeOnThreadsProducesResults) {
  CountingOnesOptions problem_options;
  problem_options.max_samples = 27.0;
  CountingOnes problem(problem_options);
  HyperTuneOptions options;
  options.num_workers = 4;
  options.seed = 6;
  TuningOutcome outcome =
      HyperTune::OptimizeOnThreads(problem, options, /*wall=*/1.5);
  EXPECT_GT(outcome.run.history.num_trials(), 10u);
  EXPECT_LE(outcome.best_objective, 0.0);
}

TEST(HyperTuneTest, OptimizeOnProcessesProducesResults) {
  // The facade's subprocess entry point: the workers rebuild the same
  // problem from its registry spec, so the driver-side problem and the
  // spec must agree.
  CountingOnesOptions problem_options;
  problem_options.max_samples = 27.0;
  CountingOnes problem(problem_options);
  HyperTuneOptions options;
  options.num_workers = 2;
  options.seed = 6;
  Observability sink;
  options.obs.sink = &sink;
  TuningOutcome outcome = HyperTune::OptimizeOnProcesses(
      problem, options, HYPERTUNE_WORKER_BINARY,
      "counting-ones:max_samples=27", /*wall=*/1.5);
  EXPECT_GT(outcome.run.history.num_trials(), 10u);
  EXPECT_LE(outcome.best_objective, 0.0);
  EXPECT_EQ(outcome.run.worker_deaths, 0);
  EXPECT_EQ(sink.metrics.Snapshot().counters["process.spawns"],
            options.num_workers);
}

}  // namespace
}  // namespace hypertune
