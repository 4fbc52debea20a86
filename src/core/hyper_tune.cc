#include "src/core/hyper_tune.h"

#include <memory>
#include <optional>
#include <utility>

#include "src/common/logging.h"
#include "src/runtime/journal.h"

namespace hypertune {
namespace {

TuningOutcome MakeOutcome(RunResult run) {
  TuningOutcome outcome;
  const std::optional<TrialRecord> best = BestTrial(run);
  if (best.has_value()) {
    outcome.best_config = best->job.config;
    outcome.best_objective = best->result.objective;
    outcome.test_objective = best->result.test_objective;
    outcome.best_resource = best->job.resource;
  }
  outcome.run = std::move(run);
  return outcome;
}

TunerFactoryOptions MakeFactoryOptions(const HyperTuneOptions& options) {
  TunerFactoryOptions factory;
  factory.method = HyperTune::MethodFor(options);
  factory.eta = options.eta;
  factory.max_brackets = options.max_brackets;
  factory.batch_size = options.num_workers;
  factory.surrogate = options.surrogate;
  factory.seed = options.seed;
  return factory;
}

/// Fills the options every backend shares; `budget_seconds` is virtual on
/// the simulator and wall-clock on threads and processes.
void FillBackendOptions(const HyperTuneOptions& options, double budget_seconds,
                        BackendOptions* backend) {
  backend->num_workers = options.num_workers;
  backend->time_budget_seconds = budget_seconds;
  backend->seed = options.seed;
  backend->faults = options.faults;
  backend->obs = options.obs;
}

/// The simulator configuration Optimize runs under. Resume rebuilds the
/// same one, so the journal fingerprint ties a journal to its options.
ClusterOptions MakeClusterOptions(const HyperTuneOptions& options) {
  ClusterOptions cluster;
  FillBackendOptions(options, options.time_budget_seconds, &cluster);
  cluster.straggler_sigma = options.straggler_sigma;
  cluster.worker_faults = options.worker_faults;
  cluster.speculation = options.speculation;
  return cluster;
}

}  // namespace

Method HyperTune::MethodFor(const HyperTuneOptions& options) {
  // The full framework, or the closest single-component ablation. Multiple
  // disabled components degrade towards A-Hyperband.
  if (options.bracket_selection && options.delayed_promotion &&
      options.multi_fidelity_sampler) {
    return Method::kHyperTune;
  }
  if (!options.bracket_selection && options.delayed_promotion &&
      options.multi_fidelity_sampler) {
    return Method::kHyperTuneNoBs;
  }
  if (options.bracket_selection && !options.delayed_promotion &&
      options.multi_fidelity_sampler) {
    return Method::kHyperTuneNoDasha;
  }
  if (options.bracket_selection && options.delayed_promotion &&
      !options.multi_fidelity_sampler) {
    return Method::kHyperTuneNoMfes;
  }
  return Method::kAHyperband;
}

TuningOutcome HyperTune::Optimize(const TuningProblem& problem,
                                  const HyperTuneOptions& options) {
  std::unique_ptr<Tuner> tuner =
      CreateTuner(problem, MakeFactoryOptions(options));
  ClusterOptions cluster = MakeClusterOptions(options);

  std::unique_ptr<RunJournal> journal;
  if (!options.journal_path.empty()) {
    Result<std::unique_ptr<RunJournal>> created = RunJournal::Create(
        options.journal_path, ClusterFingerprint(cluster));
    HT_CHECK(created.ok()) << "cannot open run journal: "
                           << created.status().message();
    journal = std::move(created).value();
    cluster.journal = journal.get();
  }
  return MakeOutcome(tuner->Run(problem, cluster));
}

Result<TuningOutcome> HyperTune::Resume(const TuningProblem& problem,
                                        const HyperTuneOptions& options) {
  if (options.journal_path.empty()) {
    return Status::InvalidArgument(
        "HyperTune::Resume requires options.journal_path");
  }
  std::unique_ptr<Tuner> tuner =
      CreateTuner(problem, MakeFactoryOptions(options));
  Result<RunResult> run = tuner->Resume(problem, MakeClusterOptions(options),
                                        options.journal_path);
  if (!run.ok()) return run.status();
  return MakeOutcome(std::move(run).value());
}

TuningOutcome HyperTune::OptimizeOnThreads(const TuningProblem& problem,
                                           const HyperTuneOptions& options,
                                           double wall_budget_seconds,
                                           double cost_sleep_scale) {
  std::unique_ptr<Tuner> tuner =
      CreateTuner(problem, MakeFactoryOptions(options));

  ThreadClusterOptions cluster;
  FillBackendOptions(options, wall_budget_seconds, &cluster);
  cluster.cost_sleep_scale = cost_sleep_scale;
  cluster.worker_faults = options.worker_faults;
  cluster.speculation = options.speculation;
  return MakeOutcome(tuner->RunOnThreads(problem, cluster));
}

TuningOutcome HyperTune::OptimizeOnProcesses(const TuningProblem& problem,
                                             const HyperTuneOptions& options,
                                             const std::string& worker_binary,
                                             const std::string& problem_spec,
                                             double wall_budget_seconds,
                                             double cost_sleep_scale) {
  std::unique_ptr<Tuner> tuner =
      CreateTuner(problem, MakeFactoryOptions(options));

  ProcessClusterOptions cluster;
  FillBackendOptions(options, wall_budget_seconds, &cluster);
  cluster.worker_binary = worker_binary;
  cluster.problem_spec = problem_spec;
  cluster.cost_sleep_scale = cost_sleep_scale;
  return MakeOutcome(tuner->RunOnProcesses(problem, cluster));
}

}  // namespace hypertune
