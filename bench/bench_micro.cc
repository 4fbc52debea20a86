// Microbenchmarks (google-benchmark) for the computational kernels of the
// library: surrogate fitting/prediction, acquisition maximization, ranking
// loss / fidelity weights, measurement-store operations, the scalability
// data structures (calendar queue, rank tree, sharded stores, SoA trial
// history), and end-to-end simulator throughput. These back the DESIGN.md
// claims about per-sample optimizer overhead and per-event simulator cost.
//
// Output: besides the usual console table, every run writes BENCH_micro.json
// (schema_version 1; see tools/lint.py --validate-bench). Flags handled here
// before google-benchmark sees the rest:
//   --quick            run only the cheap kernels the CI smoke job ratchets
//   --bench_json=PATH  where to write the JSON report (default
//                      BENCH_micro.json in the working directory)

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "src/allocator/fidelity_weights.h"
#include "src/allocator/ranking_loss.h"
#include "src/common/calendar_queue.h"
#include "src/common/rank_tree.h"
#include "src/common/rng.h"
#include "src/core/tuner_factory.h"
#include "src/optimizer/bo_sampler.h"
#include "src/optimizer/mfes_sampler.h"
#include "src/problems/counting_ones.h"
#include "src/problems/nas_bench.h"
#include "src/runtime/journal.h"
#include "src/runtime/measurement_store.h"
#include "src/runtime/scheduler_contract.h"
#include "src/runtime/trial_history.h"
#include "src/surrogate/gaussian_process.h"
#include "src/surrogate/random_forest.h"

namespace hypertune {
namespace {

ConfigurationSpace MakeSpace(size_t dims) {
  ConfigurationSpace space;
  for (size_t i = 0; i < dims; ++i) {
    // Appending (not "x" + to_string) sidesteps GCC 12's false -Wrestrict
    // on std::string's operator+ at -O3.
    std::string name = "x";
    name += std::to_string(i);
    space.Add(Parameter::Float(name, 0.0, 1.0)).IgnoreError();
  }
  return space;
}

void FillData(size_t n, size_t dims, Matrix* x, std::vector<double>* y) {
  Rng rng(1);
  *x = Matrix(n, dims);
  for (size_t i = 0; i < n; ++i) {
    double* row = x->row(i);
    double target = 0.0;
    for (size_t d = 0; d < dims; ++d) {
      row[d] = rng.Uniform();
      target += (row[d] - 0.5) * (row[d] - 0.5);
    }
    y->push_back(target + 0.01 * rng.Gaussian());
  }
}

void BM_GpFit(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Matrix x;
  std::vector<double> y;
  FillData(n, 6, &x, &y);
  GaussianProcessOptions options;
  options.num_restarts = 8;
  for (auto _ : state) {
    GaussianProcess gp(options);
    benchmark::DoNotOptimize(gp.Fit(x, y));
  }
}
BENCHMARK(BM_GpFit)->Arg(25)->Arg(50)->Arg(100)->Iterations(5);

void BM_GpPredict(benchmark::State& state) {
  Matrix x;
  std::vector<double> y;
  FillData(100, 6, &x, &y);
  GaussianProcess gp;
  gp.Fit(x, y).IgnoreError();
  std::vector<double> query(6, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.Predict(query));
  }
}
BENCHMARK(BM_GpPredict);

/// The batched surrogate hot path at acquisition scale: 500 candidates
/// scored against a 200-observation GP posterior in one PredictBatch pass
/// (one cross-covariance matrix, one multi-RHS triangular solve). Compare
/// with BM_GpPredictPerCandidate, which re-reads the Cholesky factor per
/// candidate — the ≥3× gap is the DESIGN.md §13 claim.
void BM_GpPredictBatch(benchmark::State& state) {
  Matrix x;
  std::vector<double> y;
  FillData(200, 6, &x, &y);
  GaussianProcessOptions options;
  options.optimize_hyperparameters = false;
  GaussianProcess gp(options);
  gp.Fit(x, y).IgnoreError();
  Rng rng(21);
  Matrix queries(500, 6, 0.0);
  for (size_t r = 0; r < queries.rows(); ++r) {
    for (size_t d = 0; d < queries.cols(); ++d) queries(r, d) = rng.Uniform();
  }
  int64_t scored = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.PredictBatch(queries));
    scored += static_cast<int64_t>(queries.rows());
  }
  state.SetItemsProcessed(scored);
}
BENCHMARK(BM_GpPredictBatch);

/// The per-candidate loop BM_GpPredictBatch replaces: same model, same 500
/// queries, one Predict call each.
void BM_GpPredictPerCandidate(benchmark::State& state) {
  Matrix x;
  std::vector<double> y;
  FillData(200, 6, &x, &y);
  GaussianProcessOptions options;
  options.optimize_hyperparameters = false;
  GaussianProcess gp(options);
  gp.Fit(x, y).IgnoreError();
  Rng rng(21);
  std::vector<std::vector<double>> queries(500, std::vector<double>(6));
  for (auto& q : queries) {
    for (double& v : q) v = rng.Uniform();
  }
  int64_t scored = 0;
  for (auto _ : state) {
    for (const auto& q : queries) benchmark::DoNotOptimize(gp.Predict(q));
    scored += static_cast<int64_t>(queries.size());
  }
  state.SetItemsProcessed(scored);
}
BENCHMARK(BM_GpPredictPerCandidate);

/// Rank-1 incremental Cholesky append at size n (range arg): extending an
/// n x n factor by one row is O(n²) against the O(n³) refit measured by
/// BM_CholRefit at the same sizes — the gap should widen ~linearly with n.
void BM_CholUpdateAppend(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Matrix x;
  std::vector<double> y;
  FillData(n + 1, 6, &x, &y);
  Matern52Kernel kernel(std::vector<double>(6, 0.5), 1.0);
  Matrix base = x;
  base.Resize(n, 6);  // the first n rows
  Matrix gram = kernel.GramMatrix(base);
  gram.AddDiagonal(1e-3);
  Cholesky factored;
  HT_CHECK(factored.Factorize(gram).ok());
  Vector k = kernel.CrossCovariance(base, Vector(x.row(n), x.row(n) + 6));
  const double kss = 1.0 + 1e-3;
  // Hoisted so the copy-assign and the in-place append reuse the same warm
  // capacity every iteration — the state a BO loop's factor actually lives
  // in. A per-iteration local re-pays allocation and page faults, which
  // swamp the O(n^2) arithmetic at n = 256.
  Cholesky chol;
  for (auto _ : state) {
    state.PauseTiming();
    chol = factored;
    state.ResumeTiming();
    benchmark::DoNotOptimize(chol.UpdateAppend(k, kss));
  }
}
BENCHMARK(BM_CholUpdateAppend)->Arg(64)->Arg(128)->Arg(256);

/// The full O(n³) factorization of the same (n+1) x (n+1) matrix, for the
/// scaling comparison against BM_CholUpdateAppend.
void BM_CholRefit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Matrix x;
  std::vector<double> y;
  FillData(n + 1, 6, &x, &y);
  Matern52Kernel kernel(std::vector<double>(6, 0.5), 1.0);
  Matrix gram = kernel.GramMatrix(x);
  gram.AddDiagonal(1e-3);
  for (auto _ : state) {
    Cholesky chol;
    benchmark::DoNotOptimize(chol.Factorize(gram));
  }
}
BENCHMARK(BM_CholRefit)->Arg(64)->Arg(128)->Arg(256);

/// Full acquisition sweep against a GP posterior: candidate generation,
/// dedup filtering, batch encode, one PredictBatch, argmax — the complete
/// MaximizeAcquisition path the samplers run per proposal.
void BM_AcqSweep(benchmark::State& state) {
  ConfigurationSpace space = MakeSpace(6);
  MeasurementStore store(1);
  Rng rng(22);
  Matrix x(200, space.size());
  std::vector<double> y;
  for (size_t i = 0; i < x.rows(); ++i) {
    Configuration c = space.Sample(&rng);
    double target = (c[0] - 0.5) * (c[0] - 0.5) + 0.01 * rng.Gaussian();
    store.Add(1, c, target);
    space.EncodeInto(c, x.row(i));
    y.push_back(target);
  }
  GaussianProcessOptions options;
  options.optimize_hyperparameters = false;
  GaussianProcess gp(options);
  gp.Fit(x, y).IgnoreError();
  BoSamplerOptions opts;
  opts.num_candidates = 500;
  opts.num_local_seeds = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaximizeAcquisition(
        space, store, gp, store.BestObjective(1), 0, opts, nullptr, &rng));
  }
}
BENCHMARK(BM_AcqSweep);

void BM_RfFit(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Matrix x;
  std::vector<double> y;
  FillData(n, 9, &x, &y);
  for (auto _ : state) {
    RandomForest rf;
    benchmark::DoNotOptimize(rf.Fit(x, y));
  }
}
BENCHMARK(BM_RfFit)->Arg(50)->Arg(200)->Arg(800);

/// One acquisition sweep's forest prediction (300 candidates plus 5 seeds'
/// 6 neighbours) on the flagship's counting-ones space, 8 categorical and 8
/// continuous columns, with the forest fitted on `range(0)` rows. Each
/// iteration scores the next of 64 pre-built batches, so the branch
/// predictor cannot learn one query's path.
void BM_RfPredictBatch(benchmark::State& state) {
  constexpr size_t kBatchRows = 330;
  constexpr size_t kNumBatches = 64;
  CountingOnes problem;
  const ConfigurationSpace& space = problem.space();
  Rng rng(6);
  auto encoded = [&](size_t rows, std::vector<double>* y) {
    Matrix x(rows, space.size());
    for (size_t i = 0; i < rows; ++i) {
      Configuration c = space.Sample(&rng);
      space.EncodeInto(c, x.row(i));
      if (y != nullptr) y->push_back(problem.ExactValue(c));
    }
    return x;
  };
  std::vector<double> y;
  const Matrix x = encoded(static_cast<size_t>(state.range(0)), &y);
  RandomForest rf;
  rf.SetCategoricalFeatures(space.CategoricalMask());
  rf.Fit(x, y).IgnoreError();
  std::vector<Matrix> batches;
  for (size_t b = 0; b < kNumBatches; ++b) {
    batches.push_back(encoded(kBatchRows, nullptr));
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rf.PredictBatch(batches[next]));
    next = (next + 1) % kNumBatches;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBatchRows));
}
BENCHMARK(BM_RfPredictBatch)->Arg(50)->Arg(400);

void BM_RankingLoss(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  std::vector<double> pred(n), truth(n);
  for (size_t i = 0; i < n; ++i) {
    pred[i] = rng.Uniform();
    truth[i] = rng.Uniform();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountMisrankedPairs(pred, truth));
  }
}
BENCHMARK(BM_RankingLoss)->Arg(32)->Arg(64)->Arg(128);

void BM_FidelityWeights(benchmark::State& state) {
  ConfigurationSpace space = MakeSpace(6);
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    MeasurementStore store(4);
    for (int i = 0; i < 200; ++i) {
      Configuration c = space.Sample(&rng);
      double y = (c[0] - 0.5) * (c[0] - 0.5);
      store.Add(1 + i % 4, c, y);
    }
    FidelityWeightsOptions options;
    FidelityWeights weights(&space, options);
    state.ResumeTiming();
    benchmark::DoNotOptimize(weights.ComputeTheta(store));
  }
}
BENCHMARK(BM_FidelityWeights);

void BM_MfesSample(benchmark::State& state) {
  ConfigurationSpace space = MakeSpace(6);
  MeasurementStore store(4);
  Rng rng(4);
  for (int i = 0; i < 300; ++i) {
    Configuration c = space.Sample(&rng);
    double y = (c[0] - 0.5) * (c[0] - 0.5) + 0.01 * rng.Gaussian();
    store.Add(1 + i % 4, c, y);
  }
  MfesSamplerOptions options;
  options.bo.random_fraction = 0.0;
  MfesSampler sampler(&space, &store, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(1));
  }
}
BENCHMARK(BM_MfesSample);

void BM_BoSample(benchmark::State& state) {
  ConfigurationSpace space = MakeSpace(6);
  MeasurementStore store(1);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    Configuration c = space.Sample(&rng);
    store.Add(1, c, (c[0] - 0.5) * (c[0] - 0.5));
  }
  BoSamplerOptions options;
  options.random_fraction = 0.0;
  BoSampler sampler(&space, &store, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(1));
  }
}
BENCHMARK(BM_BoSample);

void BM_NasEvaluate(benchmark::State& state) {
  SyntheticNasBench problem;
  Rng rng(6);
  Configuration c = problem.space().Sample(&rng);
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.Evaluate(c, 200.0, ++seed));
  }
}
BENCHMARK(BM_NasEvaluate);

void BM_SimulatorThroughput(benchmark::State& state) {
  // Full end-to-end virtual-time run: measures scheduler + store + sampler
  // overhead per completed trial for asynchronous random search.
  CountingOnesOptions options;
  options.num_categorical = 4;
  options.num_continuous = 4;
  CountingOnes problem(options);
  int64_t trials = 0;
  for (auto _ : state) {
    TunerFactoryOptions factory;
    factory.method = Method::kARandom;
    factory.seed = static_cast<uint64_t>(trials);
    std::unique_ptr<Tuner> tuner = CreateTuner(problem, factory);
    ClusterOptions cluster;
    cluster.num_workers = 8;
    cluster.time_budget_seconds = 1e7;
    cluster.max_trials = 1000;
    RunResult run = tuner->Run(problem, cluster);
    trials += static_cast<int64_t>(run.history.num_trials());
  }
  state.SetItemsProcessed(trials);
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_HyperTuneEndToEnd(benchmark::State& state) {
  CountingOnes problem;
  uint64_t seed = 0;
  for (auto _ : state) {
    TunerFactoryOptions factory;
    factory.method = Method::kHyperTune;
    factory.seed = ++seed;
    std::unique_ptr<Tuner> tuner = CreateTuner(problem, factory);
    ClusterOptions cluster;
    cluster.num_workers = 8;
    cluster.time_budget_seconds = 1e6;
    cluster.max_trials = 200;
    benchmark::DoNotOptimize(tuner->Run(problem, cluster));
  }
}
BENCHMARK(BM_HyperTuneEndToEnd)->Unit(benchmark::kMillisecond)->Iterations(3);

// ---------------------------------------------------------------------------
// Scalability kernels: the data structures behind the planetary-scale
// simulator (DESIGN.md §9). These are the benchmarks the CI smoke job runs
// (`--quick`); keep them allocation-bounded so they finish in seconds.
// ---------------------------------------------------------------------------

struct QEvent {
  double time = 0.0;
  int64_t seq = 0;
};
struct QEventTime {
  double operator()(const QEvent& e) const { return e.time; }
};
struct QEventLess {
  bool operator()(const QEvent& a, const QEvent& b) const {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
};
struct QEventGreater {
  bool operator()(const QEvent& a, const QEvent& b) const {
    return QEventLess()(b, a);
  }
};

/// Classic hold model: steady-state population of `range(0)` events, each op
/// pops the minimum and schedules a successor a random increment into the
/// future — exactly the simulator's pop/push pattern.
void BM_CalendarQueueHoldModel(benchmark::State& state) {
  const size_t population = static_cast<size_t>(state.range(0));
  Rng rng(7);
  CalendarQueue<QEvent, QEventTime, QEventLess> queue;
  int64_t seq = 0;
  for (size_t i = 0; i < population; ++i) {
    queue.Push({rng.Uniform(0.0, 100.0), seq++});
  }
  int64_t ops = 0;
  for (auto _ : state) {
    QEvent e = queue.PopMin();
    queue.Push({e.time + 0.1 + 10.0 * rng.Uniform(), seq++});
    benchmark::DoNotOptimize(e.seq);
    ++ops;
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK(BM_CalendarQueueHoldModel)->Arg(1 << 10)->Arg(1 << 16);

/// The O(log n) baseline the calendar queue replaced, same hold model.
void BM_BinaryHeapHoldModel(benchmark::State& state) {
  const size_t population = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::priority_queue<QEvent, std::vector<QEvent>, QEventGreater> queue;
  int64_t seq = 0;
  for (size_t i = 0; i < population; ++i) {
    queue.push({rng.Uniform(0.0, 100.0), seq++});
  }
  int64_t ops = 0;
  for (auto _ : state) {
    QEvent e = queue.top();
    queue.pop();
    queue.push({e.time + 0.1 + 10.0 * rng.Uniform(), seq++});
    benchmark::DoNotOptimize(e.seq);
    ++ops;
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK(BM_BinaryHeapHoldModel)->Arg(1 << 10)->Arg(1 << 16);

/// Insert + running-median query, the simulator's speculation pattern.
void BM_RankTreeInsertMedian(benchmark::State& state) {
  Rng rng(9);
  RankTree tree;
  int64_t ops = 0;
  for (auto _ : state) {
    tree.Insert(rng.LogNormal(0.0, 1.0));
    benchmark::DoNotOptimize(tree.key(tree.Kth((tree.size() - 1) / 2)));
    if (tree.size() == (1 << 16)) tree = RankTree();  // bound memory
    ++ops;
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK(BM_RankTreeInsertMedian);

/// MeasurementStore::Add with the per-level hash index (dedup probe + append).
void BM_StoreIndexedAdd(benchmark::State& state) {
  ConfigurationSpace space = MakeSpace(6);
  MeasurementStore store(4);
  Rng rng(10);
  int64_t i = 0;
  for (auto _ : state) {
    Configuration c = space.Sample(&rng);
    store.Add(1 + static_cast<int>(i % 4), c, rng.Uniform());
    ++i;
  }
  state.SetItemsProcessed(i);
}
BENCHMARK(BM_StoreIndexedAdd)->Iterations(200000);

/// Pending-set mark/unmark churn across the 16 hash shards (the async
/// schedulers' per-decision store traffic).
void BM_StorePendingChurn(benchmark::State& state) {
  ConfigurationSpace space = MakeSpace(6);
  MeasurementStore store(4);
  Rng rng(11);
  std::vector<Configuration> configs;
  for (int i = 0; i < 512; ++i) configs.push_back(space.Sample(&rng));
  int64_t i = 0;
  for (auto _ : state) {
    const Configuration& c = configs[static_cast<size_t>(i % 512)];
    const int level = 1 + static_cast<int>(i % 4);
    store.AddPending(c, level);
    store.RemovePending(c, level);
    ++i;
  }
  state.SetItemsProcessed(2 * i);
}
BENCHMARK(BM_StorePendingChurn);

/// TrialHistory::Record under both retention policies: arg 0 = kFull (SoA
/// columns + arena copy), arg 1 = kAggregates (counters only).
void BM_TrialHistoryRecord(benchmark::State& state) {
  const TrialRetention retention = state.range(0) == 0
                                       ? TrialRetention::kFull
                                       : TrialRetention::kAggregates;
  ConfigurationSpace space = MakeSpace(8);
  Rng rng(12);
  TrialHistory history;
  history.set_retention(retention);
  TrialRecord record;
  record.job.config = space.Sample(&rng);
  record.job.level = 1;
  record.job.resource = 1.0;
  record.result.cost_seconds = 60.0;
  int64_t i = 0;
  for (auto _ : state) {
    record.job.job_id = i;
    record.end_time = static_cast<double>(i);
    record.result.objective = rng.Uniform();
    history.Record(record, /*is_full_fidelity=*/true);
    ++i;
  }
  state.SetItemsProcessed(i);
}
BENCHMARK(BM_TrialHistoryRecord)->Arg(0)->Arg(1)->Iterations(300000);

/// Write-ahead journal append cost: encode + CRC-frame + buffer one
/// kComplete record (the most common and largest journal record). This is
/// the per-transition overhead a journaled simulator run pays, so it bounds
/// the slowdown of crash-consistent runs versus bare ones.
void BM_JournalAppend(benchmark::State& state) {
  ConfigurationSpace space = MakeSpace(8);
  Rng rng(13);
  Job job;
  job.config = space.Sample(&rng);
  job.level = 1;
  job.resource = 729.0;
  EvalResult result;
  result.objective = 0.5;
  result.test_objective = 0.6;
  result.cost_seconds = 60.0;
  std::unique_ptr<RunJournal> journal = RunJournal::CreateInMemory(0x1234);
  int64_t i = 0;
  for (auto _ : state) {
    job.job_id = i;
    journal->Complete(job, result, static_cast<int>(i % 256), 0.0,
                      static_cast<double>(i));
    ++i;
  }
  state.SetItemsProcessed(i);
}
BENCHMARK(BM_JournalAppend)->Iterations(200000);

/// Same append stream against a real file under each fsync policy
/// (arg 0 = kNone, 1 = kOnCheckpoint, 2 = kEveryRecord). The spread
/// between arg 0 and arg 2 is the price of a durability barrier per
/// record, which is why kNone is the default and kOnCheckpoint the opt-in.
/// Arg 2 waits on the disk, so it stays out of --quick and the ratchet.
void BM_JournalAppendFsync(benchmark::State& state) {
  ConfigurationSpace space = MakeSpace(8);
  Rng rng(13);
  Job job;
  job.config = space.Sample(&rng);
  job.level = 1;
  job.resource = 729.0;
  EvalResult result;
  result.objective = 0.5;
  result.test_objective = 0.6;
  result.cost_seconds = 60.0;
  const std::string path = "/tmp/hypertune_bench_journal.bin";
  JournalOptions options;
  options.fsync_policy = static_cast<FsyncPolicy>(state.range(0));
  Result<std::unique_ptr<RunJournal>> journal =
      RunJournal::Create(path, 0x1234, options);
  if (!journal.ok()) {
    state.SkipWithError(journal.status().ToString().c_str());
    return;
  }
  int64_t i = 0;
  for (auto _ : state) {
    job.job_id = i;
    (*journal)->Complete(job, result, static_cast<int>(i % 256), 0.0,
                         static_cast<double>(i));
    ++i;
  }
  state.SetItemsProcessed(i);
  journal->reset();
  std::remove(path.c_str());
}
BENCHMARK(BM_JournalAppendFsync)->Arg(0)->Arg(1)->Arg(2)->Iterations(2000);

/// End-to-end event-core throughput: asynchronous random search on a large
/// fleet with the contract checker off and aggregate retention — the
/// configuration the mega-scale runs in bench_fig9_scalability use.
/// items/sec here is *events* per second (queue pops).
void BM_SimCoreEvents(benchmark::State& state) {
  CountingOnesOptions options;
  options.num_categorical = 4;
  options.num_continuous = 4;
  CountingOnes problem(options);
  int64_t events = 0;
  for (auto _ : state) {
    TunerFactoryOptions factory;
    factory.method = Method::kARandom;
    factory.seed = static_cast<uint64_t>(events) + 1;
    std::unique_ptr<Tuner> tuner = CreateTuner(problem, factory);
    ClusterOptions cluster;
    cluster.num_workers = 256;
    cluster.time_budget_seconds = 1e9;
    cluster.max_trials = 20000;
    cluster.check_contract = false;
    cluster.retention = TrialRetention::kAggregates;
    RunResult run = tuner->Run(problem, cluster);
    events += run.events_processed;
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_SimCoreEvents)->Unit(benchmark::kMillisecond)->Iterations(3);

/// A-Hyperband on journal-resume's shape (counting-ones 4+4, 256 workers,
/// crashes, worker deaths and quarantine) after 15k completions, and the
/// full image it had 64 completions (the default checkpoint interval)
/// earlier. Built once.
class LateAsyncRun {
 public:
  static const LateAsyncRun& Get() {
    static const LateAsyncRun run;
    return run;
  }
  const SchedulerInterface& scheduler() const { return *scheduler_; }
  const std::string& base() const { return base_; }

 private:
  LateAsyncRun() : problem_(ProblemOptions()) {
    TunerFactoryOptions factory;
    factory.method = Method::kAHyperband;
    factory.seed = 3131;
    tuner_ = CreateTuner(problem_, factory);
    scheduler_ = tuner_->scheduler();
    ClusterOptions cluster;
    cluster.num_workers = 256;
    cluster.time_budget_seconds = 1e12;
    cluster.seed = 3131;
    cluster.max_trials = 15000 - 64;
    cluster.straggler_sigma = 0.5;
    cluster.faults.crash_probability = 0.05;
    cluster.faults.max_retries = 20;
    cluster.faults.retry_backoff_seconds = 10.0;
    cluster.worker_faults.mttf_seconds = 20000.0;
    cluster.worker_faults.mttr_seconds = 600.0;
    cluster.worker_faults.quarantine_failures = 3;
    cluster.worker_faults.quarantine_seconds = 600.0;
    (void)tuner_->Run(problem_, cluster);
    WireEncoder base;
    if (!scheduler_->Snapshot(&base).ok()) std::abort();
    base_ = base.Release();
    for (uint64_t i = 0; i < 64; ++i) {
      std::optional<Job> job = scheduler_->NextJob();
      if (!job.has_value()) std::abort();
      EvalResult result;
      result.objective =
          problem_.Evaluate(job->config, job->resource, i).objective;
      scheduler_->OnJobComplete(*job, result);
    }
  }

  static CountingOnesOptions ProblemOptions() {
    CountingOnesOptions options;
    options.num_categorical = 4;
    options.num_continuous = 4;
    return options;
  }

  CountingOnes problem_;
  std::unique_ptr<Tuner> tuner_;
  SchedulerInterface* scheduler_ = nullptr;
  std::string base_;
};

/// One journal checkpoint of that run's scheduler: arg 0 snapshots the
/// full image, arg 1 the delta against the earlier full image. The
/// "bytes" counter is the snapshot's size.
void BM_AsyncCheckpoint(benchmark::State& state) {
  const LateAsyncRun& run = LateAsyncRun::Get();
  const bool delta = state.range(0) == 1;
  int64_t bytes = 0;
  for (auto _ : state) {
    WireEncoder enc;
    if (delta) enc.set_snapshot_base(&run.base());
    if (!run.scheduler().Snapshot(&enc).ok()) {
      state.SkipWithError("snapshot declined");
      return;
    }
    bytes = static_cast<int64_t>(enc.size());
    benchmark::DoNotOptimize(enc.bytes().data());
    benchmark::ClobberMemory();
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AsyncCheckpoint)->Arg(0)->Arg(1);

/// One Rng::Uniform() draw: the engine's tempered output and the exact
/// branch-free conversion to [0, 1).
void BM_RngUniform(benchmark::State& state) {
  Rng rng(11);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Uniform());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniform);

/// One Rng::UniformInt draw over a range that changes every call.
void BM_RngUniformInt(benchmark::State& state) {
  Rng rng(12);
  int64_t hi = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.UniformInt(0, hi));
    hi = hi % 1000 + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniformInt);

/// A fresh Rng plus 8 draws: the per-attempt pattern of the fault plan and
/// the simulated objective, which seed one short stream per attempt or per
/// parameter. Lazy seeding makes the engine's construction nearly free.
void BM_RngFreshDraws(benchmark::State& state) {
  uint64_t seed = 13;
  for (auto _ : state) {
    Rng rng(seed++);
    double sum = 0.0;
    for (int i = 0; i < 8; ++i) sum += rng.Uniform();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngFreshDraws);

/// A scheduler that mints ascending ids and decides nothing else, so
/// BM_ContractChecker times the checker around it.
class MintingScheduler : public SchedulerInterface {
 public:
  std::optional<Job> NextJob() override {
    Job job;
    job.job_id = next_id_++;
    return job;
  }
  void OnJobComplete(const Job& job, const EvalResult& result) override {
    benchmark::DoNotOptimize(job.job_id);
    benchmark::DoNotOptimize(result.objective);
  }
  bool OnJobFailed(const Job& job, const FailureInfo& info) override {
    (void)job;
    (void)info;
    return true;
  }

 private:
  int64_t next_id_ = 0;
};

/// One job through the default (aborting) contract checker: NextJob plus
/// OnJobComplete, with every 16th job failing once and being requeued
/// first. No trace sink is installed, as on an untraced run.
void BM_ContractChecker(benchmark::State& state) {
  MintingScheduler inner;
  std::optional<SchedulerContractChecker> checker;
  checker.emplace(&inner);
  FailureInfo failure;
  failure.retries_remaining = 1;
  EvalResult result;
  int64_t jobs = 0;
  for (auto _ : state) {
    std::optional<Job> job = checker->NextJob();
    if (++jobs % 16 == 0) {
      checker->OnJobFailed(*job, failure);
      ++job->attempt;
    }
    result.objective = static_cast<double>(jobs);
    checker->OnJobComplete(*job, result);
    if (jobs % 65536 == 0) checker.emplace(&inner);  // bound memory
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ContractChecker);

/// Benchmarks `--quick` keeps: the allocation-bounded data-structure kernels,
/// the journal appends that do not wait on the disk, the Rng draws every
/// layer makes, the async scheduler's checkpoint, the contract checker, the
/// GP kernels, and the flagship's forest fit and prediction, θ and MFES
/// sample, which the ratchet requires.
constexpr char kQuickFilter[] =
    "BM_(CalendarQueue|BinaryHeap|RankTree|StoreIndexedAdd|StorePendingChurn|"
    "TrialHistoryRecord|JournalAppend/|JournalAppendFsync/[01]/|RngUniform|"
    "RngUniformInt|RngFreshDraws|AsyncCheckpoint|ContractChecker|"
    "GpPredictBatch|CholUpdateAppend|AcqSweep|RfFit|RfPredictBatch|"
    "FidelityWeights|MfesSample)";

/// Console output as usual, plus BENCH_micro.json: schema_version 1, one
/// entry per benchmark run with name / iterations / ns_per_op and, for
/// throughput benchmarks, items_per_second. tools/lint.py --validate-bench
/// checks the shape; compare_bench targets diff two such files.
class JsonFileReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonFileReporter(std::string path) : path_(std::move(path)) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Entry entry;
      entry.name = run.benchmark_name();
      entry.iterations = run.iterations;
      if (run.iterations > 0) {
        entry.ns_per_op = run.real_accumulated_time /
                          static_cast<double>(run.iterations) * 1e9;
      }
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        entry.items_per_second = it->second.value;
        entry.has_items = true;
      }
      entries_.push_back(std::move(entry));
    }
  }

  void Finalize() override {
    std::ofstream out(path_);
    if (!out) {
      GetErrorStream() << "bench_micro: cannot write " << path_ << "\n";
      return;
    }
    out.precision(12);
    out << "{\n  \"schema_version\": 1,\n  \"generated_by\": \"bench_micro\","
        << "\n  \"benchmarks\": [";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out << (i == 0 ? "\n" : ",\n");
      out << "    {\"name\": \"" << Escaped(e.name)
          << "\", \"iterations\": " << e.iterations
          << ", \"ns_per_op\": " << e.ns_per_op;
      if (e.has_items) out << ", \"items_per_second\": " << e.items_per_second;
      out << "}";
    }
    out << "\n  ]\n}\n";
    GetOutputStream() << "\nwrote " << path_ << " (" << entries_.size()
                      << " benchmarks)\n";
  }

 private:
  struct Entry {
    std::string name;
    int64_t iterations = 0;
    double ns_per_op = 0.0;
    double items_per_second = 0.0;
    bool has_items = false;
  };

  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string path_;
  std::vector<Entry> entries_;
};

}  // namespace

int RunBenchMicro(int argc, char** argv) {
  std::string json_path = "BENCH_micro.json";
  bool quick = false;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--bench_json=", 0) == 0) {
      json_path = arg.substr(std::string("--bench_json=").size());
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string filter;
  if (quick) {
    filter = std::string("--benchmark_filter=") + kQuickFilter;
    args.push_back(filter.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  JsonFileReporter reporter(json_path);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

}  // namespace hypertune

int main(int argc, char** argv) {
  return hypertune::RunBenchMicro(argc, argv);
}
