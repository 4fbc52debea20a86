// One repetition of one end-to-end tuning workload, driven through the
// library's public API on SimulatedCluster. Prints one JSON line:
//
//   {"ok": true, "errors": [], "trials_attempted": N, "trials_failed": F,
//    "metrics": {"name": value, ...}}
//
// --trace 0 measures the end-to-end metrics (set-up time, trial throughput,
// peak RSS, result quality) with no instrumentation installed, and writes
// the tuner's wall gaps between trial completions to DIR/gaps.bin.
// --trace 1 runs the same workload untraced, then with timing decorators
// around every layer interface plus an observability sink, then untraced
// again, and reports per-layer numbers. Both modes check the outputs;
// run.py drives repetitions and aggregates them.
//
//   perfbench --workload ht-flagship --seed 7 --rep 0 --trace 0 --tmp DIR
//
// Repetition r of seed s runs on the derived seed CombineSeeds(s, r), so
// repetitions sample different tuning trajectories of the same input.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/layers.h"
#include "src/allocator/fidelity_weights.h"
#include "src/common/rng.h"
#include "src/core/run_recovery.h"
#include "src/core/tuner.h"
#include "src/core/tuner_factory.h"
#include "src/optimizer/median_imputation.h"
#include "src/optimizer/mfes_sampler.h"
#include "src/optimizer/random_sampler.h"
#include "src/problems/counting_ones.h"
#include "src/runtime/journal.h"
#include "src/runtime/scheduler_contract.h"
#include "src/scheduler/async_bracket_scheduler.h"
#include "src/surrogate/random_forest.h"

namespace perfbench {
namespace {

using hypertune::ClusterOptions;
using hypertune::Method;
using hypertune::RunResult;

/// A workload is a tuning method on a counting-ones space run to a fixed
/// number of completed trials. Why each one exists is recorded in
/// BENCHMARK.json; in short: ht-flagship is bound by the optimizer,
/// surrogate and allocator, fleet-chaos by the event core, scheduler and
/// contract checker under faults, journal-resume by the write-ahead journal
/// and checkpoint-fast-path recovery.
struct Workload {
  const char* name;
  Method method;
  int num_categorical;
  int num_continuous;
  int num_workers;
  int64_t trials;
  bool faults;
  bool journal;
};

constexpr Workload kWorkloads[] = {
    {"ht-flagship", Method::kHyperTune, 8, 8, 8, 1000, false, false},
    {"fleet-chaos", Method::kAHyperband, 4, 4, 256, 100000, true, false},
    // Journal size grows quadratically with trials (every checkpoint
    // snapshots the whole scheduler), so this stays far below fleet-chaos.
    {"journal-resume", Method::kAHyperband, 4, 4, 256, 15000, true, true},
};

/// Set-up is sub-millisecond, so it is repeated and the median reported.
constexpr int kSetupRepeats = 101;
/// Every this many Sample() calls the traced ht-flagship run times one
/// shadow surrogate fit and one theta estimate.
constexpr int64_t kShadowStride = 25;

hypertune::CountingOnesOptions ProblemOptions(const Workload& w) {
  hypertune::CountingOnesOptions options;
  options.num_categorical = w.num_categorical;
  options.num_continuous = w.num_continuous;
  return options;
}

hypertune::TunerFactoryOptions FactoryOptions(const Workload& w,
                                              uint64_t seed) {
  hypertune::TunerFactoryOptions options;
  options.method = w.method;
  options.seed = seed;
  return options;
}

ClusterOptions ClusterFor(const Workload& w, uint64_t seed) {
  ClusterOptions options;
  options.num_workers = w.num_workers;
  options.time_budget_seconds = 1e12;  // max_trials ends every run
  options.seed = seed;
  options.max_trials = w.trials;
  if (w.faults) {
    options.straggler_sigma = 0.5;
    options.faults.crash_probability = 0.05;
    // Enough retries that no trial is abandoned: a trial is lost only after
    // 21 crashes in a row (0.05^21 ~ 5e-28), so every trial the benchmark
    // asks for completes. Five retries (0.05^6 ~ 1.6e-8 per trial) would
    // lose a trial in about one fleet-chaos run in sixty (~1.1M trials per
    // run). Backoff doublings are capped by the library, so the deepest
    // retry still lands far inside the time budget.
    options.faults.max_retries = 20;
    options.faults.retry_backoff_seconds = 10.0;
    options.worker_faults.mttf_seconds = 20000.0;
    options.worker_faults.mttr_seconds = 600.0;
    options.worker_faults.quarantine_failures = 3;
    options.worker_faults.quarantine_seconds = 600.0;
  }
  return options;
}

class Checks {
 public:
  void Expect(bool condition, const std::string& what) {
    if (!condition) errors_.push_back(what);
  }
  bool ok() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<std::string> errors_;
};

std::unique_ptr<hypertune::RunJournal> CreateJournal(
    const std::string& path, const ClusterOptions& options) {
  hypertune::Result<std::unique_ptr<hypertune::RunJournal>> journal =
      hypertune::RunJournal::Create(path,
                                    hypertune::ClusterFingerprint(options));
  if (!journal.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 journal.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(journal).value();
}

double Median(std::vector<int64_t> values) {
  return Percentile(std::move(values), 0.5);
}

/// Writes the wall gaps between consecutive completion stamps to `path` as
/// native int64 nanoseconds; run.py pools them over repetitions, so tail
/// percentiles rest on many samples.
void WriteGaps(const std::vector<int64_t>& stamps, const std::string& path) {
  std::vector<int64_t> gaps;
  for (size_t i = 1; i < stamps.size(); ++i) {
    gaps.push_back(stamps[i] - stamps[i - 1]);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(gaps.data()),
            static_cast<std::streamsize>(gaps.size() * sizeof(int64_t)));
  if (!out.flush()) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

/// Problem + tuner (+ journal) construction, as a user pays it per run.
double SetupSeconds(const Workload& w, uint64_t seed,
                    const std::string& journal_path) {
  const ClusterOptions options = ClusterFor(w, seed);
  std::vector<int64_t> samples;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const int64_t start = NowNs();
    hypertune::CountingOnes problem(ProblemOptions(w));
    std::unique_ptr<hypertune::Tuner> tuner =
        hypertune::CreateTuner(problem, FactoryOptions(w, seed));
    std::unique_ptr<hypertune::RunJournal> journal;
    if (w.journal) journal = CreateJournal(journal_path, options);
    samples.push_back(NowNs() - start);
  }
  std::filesystem::remove(journal_path);
  return Median(std::move(samples)) * 1e-9;
}

struct UntracedRun {
  RunResult result;
  int64_t wall_ns = 0;
  std::vector<int64_t> completion_ns;
};

/// The run as a user makes it: CreateTuner + Tuner::Run, no instrumentation.
UntracedRun RunUntraced(const Workload& w,
                        const hypertune::TuningProblem& problem, uint64_t seed,
                        const std::string& journal_path) {
  UntracedRun run;
  std::unique_ptr<hypertune::Tuner> tuner =
      hypertune::CreateTuner(problem, FactoryOptions(w, seed));
  ClusterOptions options = ClusterFor(w, seed);
  run.completion_ns.reserve(static_cast<size_t>(w.trials));
  options.observer = [&run](const hypertune::TrialRecord&) {
    run.completion_ns.push_back(NowNs());
  };
  std::unique_ptr<hypertune::RunJournal> journal;
  if (!journal_path.empty()) journal = CreateJournal(journal_path, options);
  options.journal = journal.get();
  const int64_t start = NowNs();
  run.result = tuner->Run(problem, options);
  run.wall_ns = NowNs() - start;
  return run;
}

/// Tears the journal's last record by cutting the file at half its bytes;
/// returns the uncut size.
uintmax_t CutJournalInHalf(const std::string& path) {
  const uintmax_t size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  return size;
}

/// Shadow probes of the surrogate and allocator layers on the live store:
/// one RandomForest::Fit on the top level's imputed training data and one
/// fresh FidelityWeights::ComputeTheta. Both objects are discarded, so no
/// decision or random stream of the run is touched.
class ShadowProbes {
 public:
  ShadowProbes(const hypertune::ConfigurationSpace* space,
               const hypertune::MeasurementStore* store)
      : space_(space), store_(store) {
    for (size_t i = 0; i < space_->size(); ++i) {
      categorical_.push_back(space_->parameter(i).is_categorical());
    }
  }

  void Run() {
    const int top = store_->num_levels();
    // The forest needs min_samples_leaf points to split at all.
    if (store_->group(top).size() >= 3) {
      hypertune::SurrogateData data =
          hypertune::BuildSurrogateDataWithPendingMedian(*space_, *store_, top);
      hypertune::RandomForestOptions options;
      options.seed = static_cast<uint64_t>(rf_fit_ns_.size());
      hypertune::RandomForest forest(options);
      forest.SetCategoricalFeatures(categorical_);
      const int64_t start = NowNs();
      const hypertune::Status fit = forest.Fit(data.x, data.y);
      rf_fit_ns_.push_back(NowNs() - start);
      fit.IgnoreError();
    }
    hypertune::FidelityWeightsOptions options;
    options.seed = static_cast<uint64_t>(theta_ns_.size());
    hypertune::FidelityWeights weights(space_, options);
    const int64_t start = NowNs();
    weights.ComputeTheta(*store_);
    theta_ns_.push_back(NowNs() - start);
  }

  const std::vector<int64_t>& rf_fit_ns() const { return rf_fit_ns_; }
  const std::vector<int64_t>& theta_ns() const { return theta_ns_; }

 private:
  const hypertune::ConfigurationSpace* space_;
  const hypertune::MeasurementStore* store_;
  std::vector<bool> categorical_;
  std::vector<int64_t> rf_fit_ns_;
  std::vector<int64_t> theta_ns_;
};

/// CreateTuner's wiring for the benchmark's two methods, with a timing
/// decorator between scheduler and sampler. The check that traced runs
/// reproduce CreateTuner's RunResultDigest keeps the two in step.
struct TunerStack {
  std::unique_ptr<hypertune::MeasurementStore> store;
  std::unique_ptr<hypertune::FidelityWeights> weights;
  std::unique_ptr<hypertune::Sampler> sampler;
  std::unique_ptr<ShadowProbes> shadow;
  std::unique_ptr<TimedSampler> timed_sampler;
  std::unique_ptr<hypertune::SchedulerInterface> scheduler;
};

TunerStack BuildTunerStack(const Workload& w,
                           const hypertune::TuningProblem& problem,
                           uint64_t seed, SamplerStats* sampler_stats,
                           ExcludedTime* excluded, bool shadow) {
  using hypertune::CombineSeeds;
  const hypertune::ConfigurationSpace& space = problem.space();
  const hypertune::TunerFactoryOptions factory = FactoryOptions(w, seed);
  TunerStack stack;
  hypertune::BracketSchedulerOptions brackets;
  brackets.ladder = hypertune::ResourceLadder::Make(
      problem.min_resource(), problem.max_resource(), factory.eta,
      factory.max_brackets);
  brackets.selector.fixed_bracket = 1;
  brackets.selector.seed = CombineSeeds(seed, 0x5E1ECULL);
  stack.store =
      std::make_unique<hypertune::MeasurementStore>(brackets.ladder.num_levels);

  if (w.method == Method::kHyperTune) {
    hypertune::FidelityWeightsOptions weight_options;
    weight_options.seed = CombineSeeds(seed, 0xF1DE11F1ULL);
    stack.weights =
        std::make_unique<hypertune::FidelityWeights>(&space, weight_options);
    hypertune::MfesSamplerOptions mfes;
    mfes.bo.surrogate = factory.surrogate;
    mfes.bo.seed = CombineSeeds(seed, 0x3FE5ULL);
    mfes.weights.seed = CombineSeeds(seed, 0xF1DE11F1ULL);
    stack.sampler = std::make_unique<hypertune::MfesSampler>(
        &space, stack.store.get(), mfes);
    brackets.selector.policy = hypertune::BracketPolicy::kLearned;
    brackets.delayed_promotion = true;
  } else if (w.method == Method::kAHyperband) {
    stack.sampler = std::make_unique<hypertune::RandomSampler>(
        &space, stack.store.get(), CombineSeeds(seed, 0x7A2D0ULL));
    brackets.selector.policy = hypertune::BracketPolicy::kRoundRobin;
    brackets.delayed_promotion = false;
  } else {
    std::fprintf(stderr, "perfbench: no hand-wired stack for %s\n", w.name);
    std::exit(2);
  }

  std::function<void()> probe;
  if (shadow) {
    stack.shadow = std::make_unique<ShadowProbes>(&space, stack.store.get());
    probe = [probes = stack.shadow.get()] { probes->Run(); };
  }
  stack.timed_sampler = std::make_unique<TimedSampler>(
      stack.sampler.get(), sampler_stats, excluded, std::move(probe),
      kShadowStride);
  stack.scheduler = std::make_unique<hypertune::AsyncBracketScheduler>(
      &space, stack.store.get(), stack.timed_sampler.get(),
      stack.weights.get(), brackets);
  return stack;
}

struct TracedRun {
  RunResult result;
  int64_t wall_ns = 0;  // shadow probes excluded
  SchedulerStats outer;  // around the contract checker
  SchedulerStats inner;  // around the real scheduler
  SamplerStats sampler;
  ProblemStats problem;
  hypertune::MetricsSnapshot metrics;
  size_t obs_events = 0;
  int64_t journal_records = 0;
  int64_t journal_checkpoints = 0;
  std::vector<int64_t> rf_fit_ns;
  std::vector<int64_t> theta_ns;

  double ClusterSelfNs() const {
    return static_cast<double>(wall_ns - outer.TotalNs() -
                               problem.evaluate.ns - problem.cost.ns);
  }
};

/// The same run with every layer wrapped: outer scheduler decorator ->
/// SchedulerContractChecker -> inner decorator -> scheduler -> sampler
/// decorator -> sampler, and a problem decorator. The cluster's own checker
/// is off; the benchmark installs one so it can time it.
TracedRun RunTraced(const Workload& w, const hypertune::TuningProblem& base,
                    uint64_t seed, const std::string& journal_path,
                    bool shadow) {
  TracedRun run;
  ExcludedTime excluded;
  TimedProblem problem(&base, &run.problem, &excluded);
  TunerStack stack =
      BuildTunerStack(w, problem, seed, &run.sampler, &excluded, shadow);
  TimedScheduler inner(stack.scheduler.get(), &run.inner, &excluded);
  hypertune::SchedulerContractChecker checker(&inner);
  TimedScheduler outer(&checker, &run.outer, &excluded);
  hypertune::Observability obs;
  ClusterOptions options = ClusterFor(w, seed);
  options.check_contract = false;
  options.obs.sink = &obs;
  std::unique_ptr<hypertune::RunJournal> journal;
  if (!journal_path.empty()) journal = CreateJournal(journal_path, options);
  options.journal = journal.get();

  hypertune::SimulatedCluster cluster(options);
  const int64_t start = NowNs();
  run.result = cluster.Run(&outer, problem);
  run.wall_ns = NowNs() - start - excluded.ns;

  run.metrics = obs.metrics.Snapshot();
  run.obs_events = obs.trace.size();
  if (journal != nullptr) {
    run.journal_records = journal->records_appended();
    run.journal_checkpoints = journal->checkpoints_emitted();
  }
  if (stack.shadow != nullptr) {
    run.rf_fit_ns = stack.shadow->rf_fit_ns();
    run.theta_ns = stack.shadow->theta_ns();
  }
  return run;
}

struct TracedResume {
  hypertune::Result<RunResult> result = hypertune::Status::Internal("unset");
  int64_t wall_ns = 0;
  SchedulerStats scheduler;
  hypertune::MetricsSnapshot metrics;
};

/// Tuner::Resume's path (ResumeRun with the fresh store, so the checkpoint
/// fast path engages) with a decorator around the scheduler. The contract
/// checker refuses Restore, so here the cluster installs its own.
TracedResume ResumeTraced(const Workload& w,
                          const hypertune::TuningProblem& problem,
                          uint64_t seed, const std::string& journal_path) {
  TracedResume run;
  ExcludedTime excluded;
  SamplerStats sampler_stats;
  TunerStack stack = BuildTunerStack(w, problem, seed, &sampler_stats,
                                     &excluded, /*shadow=*/false);
  TimedScheduler scheduler(stack.scheduler.get(), &run.scheduler, &excluded);
  hypertune::Observability obs;
  ClusterOptions options = ClusterFor(w, seed);
  options.obs.sink = &obs;
  hypertune::ResumeOptions resume;
  resume.store = stack.store.get();
  const int64_t start = NowNs();
  run.result = hypertune::ResumeRun(journal_path, options, &scheduler, problem,
                                    {}, resume);
  run.wall_ns = NowNs() - start;
  run.metrics = obs.metrics.Snapshot();
  return run;
}

int64_t Counter(const hypertune::MetricsSnapshot& metrics,
                const std::string& name) {
  auto it = metrics.counters.find(name);
  return it == metrics.counters.end() ? 0 : it->second;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

constexpr double kUs = 1e-3;  // ns -> us
constexpr double kMiB = 1 << 20;

using Metrics = std::map<std::string, double>;

/// This process's peak resident set. VmHWM, unlike getrusage's ru_maxrss,
/// restarts at exec, so the launching process's footprint is not counted.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  std::fprintf(stderr, "perfbench: no VmHWM in /proc/self/status\n");
  std::exit(2);
}

/// Checks every live run shares: the requested trial count completed, no
/// trial was abandoned, and the incumbent is a valid counting-ones value.
void CheckLiveRun(const Workload& w, const RunResult& result,
                  const std::string& label, Checks* checks) {
  checks->Expect(
      static_cast<int64_t>(result.history.num_trials()) == w.trials,
      label + ": completed " + std::to_string(result.history.num_trials()) +
          " trials, requested " + std::to_string(w.trials));
  checks->Expect(result.failed_trials == 0,
                 label + ": " + std::to_string(result.failed_trials) +
                     " trials abandoned");
  const double best = result.history.best_full_fidelity();
  checks->Expect(best >= -1.0 && best <= 0.0,
                 label + ": incumbent objective out of [-1, 0]");
}

void CheckSameRun(const RunResult& actual, const RunResult& expected,
                  const std::string& label, Checks* checks) {
  checks->Expect(hypertune::RunResultDigest(actual) ==
                     hypertune::RunResultDigest(expected),
                 label + ": RunResultDigest differs from the untraced run");
}

/// End-to-end metrics, nothing installed but the completion observer.
Metrics MeasureEndToEnd(const Workload& w, uint64_t seed,
                        const std::string& tmp, Checks* checks,
                        int64_t* abandoned) {
  Metrics m;
  const std::string journal_path = tmp + "/run.journal";
  m["setup_s"] = SetupSeconds(w, seed, tmp + "/setup.journal");

  hypertune::CountingOnes problem(ProblemOptions(w));
  UntracedRun live =
      RunUntraced(w, problem, seed, w.journal ? journal_path : std::string());
  CheckLiveRun(w, live.result, "live run", checks);
  *abandoned = live.result.failed_trials;
  m["trials_per_s"] = live.result.history.num_trials() / (live.wall_ns * 1e-9);
  WriteGaps(live.completion_ns, tmp + "/gaps.bin");
  // Negated so the value is positive: the ones fraction of the best
  // full-fidelity trial, higher is better.
  m["best_score"] = -live.result.history.best_full_fidelity();

  if (w.journal) {
    m["journal_mb"] = CutJournalInHalf(journal_path) / kMiB;
    std::unique_ptr<hypertune::Tuner> tuner =
        hypertune::CreateTuner(problem, FactoryOptions(w, seed));
    const int64_t start = NowNs();
    hypertune::Result<RunResult> resumed =
        tuner->Resume(problem, ClusterFor(w, seed), journal_path);
    m["recovery_s"] = (NowNs() - start) * 1e-9;
    checks->Expect(resumed.ok(), "resume: " + resumed.status().ToString());
    if (resumed.ok()) CheckSameRun(*resumed, live.result, "resume", checks);
    std::filesystem::remove(journal_path);
  }

  m["peak_rss_mb"] = PeakRssMb();
  return m;
}

/// Per-layer metrics from traced runs of the same workload and seed.
Metrics MeasureLayers(const Workload& w, uint64_t seed, const std::string& tmp,
                      Checks* checks, int64_t* abandoned) {
  Metrics m;
  const std::string journal_path = tmp + "/run.journal";
  const std::string traced_path = tmp + "/traced.journal";
  hypertune::CountingOnes problem(ProblemOptions(w));

  UntracedRun reference =
      RunUntraced(w, problem, seed, w.journal ? journal_path : std::string());
  std::filesystem::remove(journal_path);
  CheckLiveRun(w, reference.result, "untraced run", checks);
  *abandoned = reference.result.failed_trials;

  const bool shadow = w.method == Method::kHyperTune;
  TracedRun run = RunTraced(w, problem, seed,
                            w.journal ? traced_path : std::string(), shadow);
  CheckSameRun(run.result, reference.result, "traced run", checks);
  // The first run of a process also pays for growing the heap; the tracing
  // overhead is taken against a second untraced run that, like the traced
  // one, starts warm.
  const UntracedRun warm =
      RunUntraced(w, problem, seed, w.journal ? journal_path : std::string());
  std::filesystem::remove(journal_path);
  CheckSameRun(warm.result, reference.result, "second untraced run", checks);

  const SamplerStats& sampler = run.sampler;
  m["optimizer.sample_calls"] = sampler.sample.calls;
  m["optimizer.sample_us"] = sampler.sample.ns * kUs;
  m["optimizer.sample_p99_us"] =
      Percentile(sampler.sample.durations_ns, 0.99) * kUs;
  m["optimizer.model_share"] = Ratio(
      Counter(run.metrics, "sampler.acquisition_calls"), sampler.sample.calls);

  m["surrogate.fits"] = Counter(run.metrics, "sampler.fits");
  auto fit_points = run.metrics.histograms.find("sampler.fit_points");
  m["surrogate.fit_points_mean"] = fit_points == run.metrics.histograms.end()
                                       ? 0.0
                                       : fit_points->second.Mean();
  m["surrogate.rf_fit_us"] = Median(run.rf_fit_ns) * kUs;
  m["surrogate.rf_fit_samples"] = run.rf_fit_ns.size();
  m["allocator.theta_us"] = Median(run.theta_ns) * kUs;
  m["allocator.theta_samples"] = run.theta_ns.size();

  const SchedulerStats& in = run.inner;
  m["scheduler.next_job_calls"] = in.next_job.calls;
  m["scheduler.next_job_idle"] = in.next_job_idle;
  m["scheduler.next_job_self_us"] = (in.next_job.ns - sampler.sample.ns) * kUs;
  m["scheduler.next_job_p99_us"] =
      Percentile(in.next_job.durations_ns, 0.99) * kUs;
  m["scheduler.on_complete_calls"] = in.on_complete.calls;
  m["scheduler.on_complete_us"] =
      (in.on_complete.ns - sampler.on_observation.ns) * kUs;
  m["scheduler.on_failed_calls"] = in.on_failed.calls;
  m["scheduler.requeue_ratio"] = Ratio(in.requeues, in.on_failed.calls);
  // Scheduler self time: its own calls minus the sampler beneath it, minus
  // the invariant audit (contract work) and checkpoints (journal work).
  m["scheduler.self_us"] = (in.TotalNs() - in.check_invariants.ns -
                            in.snapshot.ns - sampler.TotalNs()) *
                           kUs;
  m["scheduler.snapshot_calls"] = run.outer.snapshot.calls;
  m["scheduler.snapshot_us"] = run.outer.snapshot.ns * kUs;
  m["scheduler.snapshot_bytes_max"] = run.outer.snapshot_bytes_max;
  // The checker's forwarding plus the scheduler invariant audit it drives.
  m["contract.self_us"] =
      (run.outer.TotalNs() - in.TotalNs() + in.check_invariants.ns) * kUs;

  const double cluster_self_ns = run.ClusterSelfNs();
  m["cluster.self_us"] = cluster_self_ns * kUs;
  m["cluster.events"] = run.result.events_processed;
  m["cluster.ns_per_event"] =
      Ratio(cluster_self_ns, run.result.events_processed);
  m["cluster.failed_attempts"] = run.result.failed_attempts;
  m["cluster.worker_deaths"] = run.result.worker_deaths;

  m["problems.evaluate_calls"] = run.problem.evaluate.calls;
  m["problems.evaluate_us"] = run.problem.evaluate.ns * kUs;

  m["obs.events"] = run.obs_events;
  m["trace.run_us"] = run.wall_ns * kUs;
  m["trace.overhead_ratio"] = Ratio(run.wall_ns, warm.wall_ns);

  m["journal.records"] = run.journal_records;
  m["journal.checkpoints"] = run.journal_checkpoints;
  for (const char* name :
       {"journal.write_us", "journal.file_mb", "recovery.resume_us",
        "recovery.restore_us", "recovery.next_job_calls",
        "recovery.replayed_suffix_records", "recovery.checkpoint_restored"}) {
    m[name] = 0.0;
  }
  if (w.journal) {
    // Journal cost is the cluster self time the journal adds over a bare
    // traced run of the same seed.
    TracedRun bare = RunTraced(w, problem, seed, std::string(), false);
    CheckSameRun(bare.result, reference.result, "traced bare run", checks);
    m["journal.write_us"] = (cluster_self_ns - bare.ClusterSelfNs()) * kUs;
    m["journal.file_mb"] = CutJournalInHalf(traced_path) / kMiB;

    TracedResume resume = ResumeTraced(w, problem, seed, traced_path);
    checks->Expect(resume.result.ok(),
                   "traced resume: " + resume.result.status().ToString());
    if (resume.result.ok()) {
      CheckSameRun(*resume.result, reference.result, "traced resume", checks);
    }
    const int64_t restored =
        Counter(resume.metrics, "journal.checkpoint_restored");
    checks->Expect(restored == 1,
                   "traced resume: checkpoint fast path not taken");
    m["recovery.resume_us"] = resume.wall_ns * kUs;
    m["recovery.restore_us"] = resume.scheduler.restore.ns * kUs;
    m["recovery.next_job_calls"] = resume.scheduler.next_job.calls;
    m["recovery.replayed_suffix_records"] =
        Counter(resume.metrics, "journal.replayed_suffix_records");
    m["recovery.checkpoint_restored"] = restored;
    std::filesystem::remove(traced_path);
  }
  return m;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --rep R "
               "--trace 0|1 --tmp DIR\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || args.size() != 5 || !args.count("--workload") ||
      !args.count("--seed") || !args.count("--rep") || !args.count("--trace") ||
      !args.count("--tmp")) {
    return Usage();
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args["--workload"] == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage();
  const uint64_t seed = hypertune::CombineSeeds(
      std::strtoull(args["--seed"].c_str(), nullptr, 10),
      std::strtoull(args["--rep"].c_str(), nullptr, 10));
  const bool trace = args["--trace"] == "1";

  Checks checks;
  int64_t abandoned = 0;
  const Metrics metrics =
      trace ? MeasureLayers(*workload, seed, args["--tmp"], &checks, &abandoned)
            : MeasureEndToEnd(*workload, seed, args["--tmp"], &checks,
                              &abandoned);
  // A run whose checks fail counts every trial as failed.
  const int64_t failed = checks.ok() ? abandoned : workload->trials;

  std::string out = "{\"ok\": ";
  out += checks.ok() ? "true" : "false";
  out += ", \"errors\": [";
  for (size_t i = 0; i < checks.errors().size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(checks.errors()[i]);
  }
  out += "], \"trials_attempted\": " + std::to_string(workload->trials);
  out += ", \"trials_failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    out += (first ? "" : ", ") + JsonString(name) + ": " + number;
    first = false;
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
