// Observability-layer tests: trace event pairing, metrics accounting
// against RunResult counters, exporter validity, and the central
// determinism guarantee — instrumented runs are bit-identical to
// uninstrumented ones.
#include <cstdint>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/hyper_tune.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/observability.h"
#include "src/optimizer/random_sampler.h"
#include "src/problems/counting_ones.h"
#include "src/runtime/process_cluster.h"
#include "src/runtime/simulated_cluster.h"
#include "src/runtime/thread_cluster.h"
#include "src/scheduler/sync_bracket_scheduler.h"

namespace hypertune {
namespace {

bool IsLaunchKind(TraceKind kind) {
  return kind == TraceKind::kJobLaunch || kind == TraceKind::kSpeculativeLaunch;
}

bool IsTerminalKind(TraceKind kind) {
  return kind == TraceKind::kJobComplete || kind == TraceKind::kJobFailed ||
         kind == TraceKind::kJobTruncated ||
         kind == TraceKind::kSpeculativeCopyLost;
}

/// Replays the trace and checks the pairing invariant directly (the Chrome
/// exporter enforces the same thing; this is the independent oracle):
/// every launch on a worker track is closed by exactly one terminal event
/// for the same job before the next launch on that track, and timestamps
/// never run backwards within a track.
void ExpectLaunchTerminalPairing(const std::vector<TraceEvent>& events) {
  std::map<int, const TraceEvent*> open;  // worker -> open launch
  for (const TraceEvent& e : events) {
    if (IsLaunchKind(e.kind)) {
      ASSERT_GE(e.worker, 0);
      auto it = open.find(e.worker);
      ASSERT_TRUE(it == open.end() || it->second == nullptr)
          << "worker " << e.worker << " launched job " << e.job_id
          << " while job " << it->second->job_id << " is still open";
      open[e.worker] = &e;
    } else if (IsTerminalKind(e.kind)) {
      ASSERT_GE(e.worker, 0);
      auto it = open.find(e.worker);
      ASSERT_TRUE(it != open.end() && it->second != nullptr)
          << TraceKindName(e.kind) << " for job " << e.job_id << " on worker "
          << e.worker << " without an open launch";
      EXPECT_EQ(it->second->job_id, e.job_id);
      EXPECT_LE(it->second->time, e.time);
      it->second = nullptr;
    }
  }
  for (const auto& [worker, launch] : open) {
    EXPECT_EQ(launch, nullptr)
        << "job " << launch->job_id << " on worker " << worker
        << " was launched but never reached a terminal event";
  }
}

/// Spans must balance and never close deeper than they opened.
void ExpectSpansNest(const std::vector<TraceEvent>& events) {
  std::vector<std::string> stack;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceKind::kSpanBegin) {
      stack.push_back(e.name);
    } else if (e.kind == TraceKind::kSpanEnd) {
      ASSERT_FALSE(stack.empty()) << "span_end '" << e.name
                                  << "' with no open span";
      EXPECT_EQ(stack.back(), e.name) << "spans must close LIFO";
      stack.pop_back();
    }
  }
  EXPECT_TRUE(stack.empty()) << "unclosed span '" << stack.back() << "'";
}

int64_t CountKind(const std::vector<TraceEvent>& events, TraceKind kind) {
  int64_t n = 0;
  for (const TraceEvent& e : events) {
    if (e.kind == kind) ++n;
  }
  return n;
}

int64_t Counter(const MetricsSnapshot& metrics, const std::string& name) {
  auto it = metrics.counters.find(name);
  return it != metrics.counters.end() ? it->second : 0;
}

/// Digest of everything a run produced (mirrors golden_history_test's
/// fault-run hash): trials, curve, failures, and run-level counters.
uint64_t HashRun(const RunResult& result) {
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
  for (const TrialRecord& t : result.history.trials()) {
    mix(static_cast<uint64_t>(t.job.job_id));
    mix(static_cast<uint64_t>(t.job.level));
    mix(static_cast<uint64_t>(t.job.bracket));
    mix(static_cast<uint64_t>(t.worker));
    mix(t.speculative ? 1u : 0u);
    mix_double(t.job.resource);
    mix_double(t.job.resume_from);
    mix_double(t.start_time);
    mix_double(t.end_time);
    mix_double(t.result.objective);
    mix_double(t.result.test_objective);
    for (size_t d = 0; d < t.job.config.size(); ++d) {
      mix_double(t.job.config[d]);
    }
  }
  for (const TrialRecord& t : result.history.failures()) {
    mix(static_cast<uint64_t>(t.job.job_id));
    mix(static_cast<uint64_t>(t.failure_kind));
    mix_double(t.start_time);
    mix_double(t.end_time);
  }
  for (const CurvePoint& p : result.history.curve()) {
    mix_double(p.time);
    mix_double(p.best_objective);
    mix_double(p.incumbent_test);
  }
  mix(static_cast<uint64_t>(result.failed_attempts));
  mix(static_cast<uint64_t>(result.retries));
  mix(static_cast<uint64_t>(result.failed_trials));
  mix(static_cast<uint64_t>(result.worker_deaths));
  mix(static_cast<uint64_t>(result.quarantines));
  mix(static_cast<uint64_t>(result.speculative_attempts));
  mix(static_cast<uint64_t>(result.speculative_wins));
  mix(static_cast<uint64_t>(result.speculative_losses));
  mix_double(result.wasted_seconds);
  mix_double(result.busy_seconds);
  mix_double(result.elapsed_seconds);
  return hash;
}

/// FNV-1a folding with doubles taken by their bits.
struct Fnv {
  uint64_t hash = 1469598103934665603ULL;
  void Mix(uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ULL;
  }
  void MixDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Mix(bits);
  }
  void MixString(const std::string& s) {
    Mix(s.size());
    for (char c : s) Mix(static_cast<unsigned char>(c));
  }
};

/// Digest of a whole trace: every field of every event, in record order.
/// On the simulator every field, time included, is a pure function of the
/// run's options (the clock is virtual).
uint64_t HashTrace(const std::vector<TraceEvent>& events) {
  Fnv fnv;
  for (const TraceEvent& e : events) {
    fnv.Mix(static_cast<uint64_t>(e.kind));
    fnv.MixDouble(e.time);
    fnv.Mix(static_cast<uint64_t>(e.worker));
    fnv.Mix(static_cast<uint64_t>(e.job_id));
    fnv.Mix(static_cast<uint64_t>(e.level));
    fnv.Mix(static_cast<uint64_t>(e.bracket));
    fnv.Mix(static_cast<uint64_t>(e.attempt));
    fnv.Mix(e.speculative ? 1u : 0u);
    fnv.MixString(e.name);
    fnv.MixDouble(e.value);
  }
  return fnv.hash;
}

/// Digest of a metrics snapshot: every counter, gauge and histogram (count,
/// sum, min, max, buckets), in name order.
uint64_t HashMetrics(const MetricsSnapshot& metrics) {
  Fnv fnv;
  for (const auto& [name, value] : metrics.counters) {
    fnv.MixString(name);
    fnv.Mix(static_cast<uint64_t>(value));
  }
  for (const auto& [name, value] : metrics.gauges) {
    fnv.MixString(name);
    fnv.MixDouble(value);
  }
  for (const auto& [name, h] : metrics.histograms) {
    fnv.MixString(name);
    fnv.Mix(static_cast<uint64_t>(h.count));
    fnv.MixDouble(h.sum);
    fnv.MixDouble(h.min);
    fnv.MixDouble(h.max);
    for (const auto& [bucket, count] : h.buckets) {
      fnv.Mix(static_cast<uint64_t>(bucket));
      fnv.Mix(static_cast<uint64_t>(count));
    }
  }
  return fnv.hash;
}

/// The worker-fault chaos run from golden_history_test: every fault
/// mechanism live at once, optionally instrumented.
RunResult RunChaos(Observability* obs) {
  CountingOnes problem;
  MeasurementStore store(3);
  RandomSampler sampler(&problem.space(), &store, 17);
  BracketSchedulerOptions options;
  options.ladder.eta = 3.0;
  options.ladder.num_levels = 3;
  options.ladder.max_resource = 729.0;
  options.selector.policy = BracketPolicy::kRoundRobin;
  SyncBracketScheduler scheduler(&problem.space(), &store, &sampler, nullptr,
                                 options);
  ClusterOptions cluster_options;
  cluster_options.num_workers = 4;
  cluster_options.time_budget_seconds = 6000.0;
  cluster_options.seed = 42;
  cluster_options.straggler_sigma = 0.8;
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
  cluster_options.obs.sink = obs;
  SimulatedCluster cluster(cluster_options);
  return cluster.Run(&scheduler, problem);
}

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  MetricsRegistry metrics;
  metrics.Increment("jobs.launched");
  metrics.Increment("jobs.launched", 2);
  metrics.SetGauge("run.utilization", 0.25);
  metrics.SetGauge("run.utilization", 0.75);  // last write wins
  metrics.Observe("trial.duration_seconds", 0.5);
  metrics.Observe("trial.duration_seconds", 3.0);
  metrics.Observe("trial.duration_seconds", 8.0);

  MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters.at("jobs.launched"), 3);
  EXPECT_DOUBLE_EQ(snap.gauges.at("run.utilization"), 0.75);
  const HistogramSnapshot& h = snap.histograms.at("trial.duration_seconds");
  EXPECT_EQ(h.count, 3);
  EXPECT_DOUBLE_EQ(h.sum, 11.5);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 8.0);
  EXPECT_NEAR(h.Mean(), 11.5 / 3.0, 1e-12);
  EXPECT_EQ(h.buckets.at(0), 1);  // 0.5 <= 1
  EXPECT_EQ(h.buckets.at(2), 1);  // 3.0 in (2, 4]
  EXPECT_EQ(h.buckets.at(3), 1);  // 8.0 in (4, 8]
}

TEST(TraceRecorderTest, InjectedClockStampsEvents) {
  TraceRecorder trace;
  double now = 1.5;
  trace.SetClock([&now] { return now; });
  TraceEvent e;
  e.kind = TraceKind::kJobLaunch;
  e.worker = 0;
  e.job_id = 1;
  trace.Record(e);  // stamped at 1.5
  now = 2.0;
  e.time = 7.0;  // explicit stamps are kept
  trace.Record(e);

  std::vector<TraceEvent> events = trace.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].time, 1.5);
  EXPECT_DOUBLE_EQ(events[1].time, 7.0);
}

TEST(TraceRecorderTest, SpansRecordAndNest) {
  TraceRecorder trace;
  trace.SetClock([] { return 1.0; });
  trace.BeginSpan("fit surrogate L1");
  trace.BeginSpan("acquisition");
  trace.EndSpan("acquisition");
  trace.EndSpan("fit surrogate L1");
  std::vector<TraceEvent> events = trace.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, TraceKind::kSpanBegin);
  EXPECT_EQ(events[3].name, "fit surrogate L1");
  ExpectSpansNest(events);
}

TEST(ChromeTraceTest, RejectsLaunchWithoutTerminal) {
  TraceRecorder trace;
  trace.SetClock([] { return 0.5; });
  TraceEvent launch;
  launch.kind = TraceKind::kJobLaunch;
  launch.worker = 0;
  launch.job_id = 7;
  trace.Record(launch);
  std::ostringstream out;
  EXPECT_FALSE(WriteChromeTrace(trace, &out).ok());
}

TEST(ChromeTraceTest, RejectsTerminalWithoutLaunch) {
  TraceRecorder trace;
  trace.SetClock([] { return 0.5; });
  TraceEvent done;
  done.kind = TraceKind::kJobComplete;
  done.worker = 0;
  done.job_id = 7;
  trace.Record(done);
  std::ostringstream out;
  EXPECT_FALSE(WriteChromeTrace(trace, &out).ok());
}

/// The observability contract every backend keeps: launches pair with
/// terminal events, spans nest, and the metrics equal the RunResult
/// counters (the ledger writes both from the same transition).
void ExpectTraceMatchesRunResult(const Observability& obs,
                                 const RunResult& result) {
  std::vector<TraceEvent> events = obs.trace.Snapshot();
  ASSERT_FALSE(events.empty());
  ExpectLaunchTerminalPairing(events);
  ExpectSpansNest(events);

  MetricsSnapshot metrics = obs.metrics.Snapshot();
  EXPECT_EQ(Counter(metrics, "jobs.completed"),
            static_cast<int64_t>(result.history.num_trials()));
  EXPECT_EQ(Counter(metrics, "jobs.failed_attempts"), result.failed_attempts);
  EXPECT_EQ(Counter(metrics, "jobs.requeued"), result.retries);
  EXPECT_EQ(Counter(metrics, "jobs.abandoned"), result.failed_trials);
  EXPECT_EQ(Counter(metrics, "workers.deaths"), result.worker_deaths);
  EXPECT_EQ(Counter(metrics, "workers.quarantines"), result.quarantines);
  EXPECT_EQ(Counter(metrics, "speculation.launched"),
            result.speculative_attempts);
  EXPECT_EQ(Counter(metrics, "speculation.wins"), result.speculative_wins);
  EXPECT_EQ(Counter(metrics, "speculation.losses"),
            result.speculative_losses);
  EXPECT_DOUBLE_EQ(metrics.gauges.at("run.elapsed_seconds"),
                   result.elapsed_seconds);
  EXPECT_DOUBLE_EQ(metrics.gauges.at("run.utilization"), result.utilization);
  const HistogramSnapshot& durations =
      metrics.histograms.at("trial.duration_seconds");
  EXPECT_EQ(durations.count,
            static_cast<int64_t>(result.history.num_trials()));

  // Launches and terminals balance as counters, too.
  EXPECT_EQ(Counter(metrics, "jobs.launched") +
                Counter(metrics, "speculation.launched"),
            Counter(metrics, "jobs.completed") +
                Counter(metrics, "jobs.failed_attempts") +
                Counter(metrics, "jobs.truncated") +
                Counter(metrics, "speculation.losses"));

  // Contract-checker events are mirrored into the trace.
  EXPECT_GT(CountKind(events, TraceKind::kContract), 0);

  // Both exporters accept the trace.
  std::ostringstream json;
  ASSERT_TRUE(WriteChromeTrace(obs.trace, &json).ok());
  EXPECT_EQ(json.str().rfind("{\"traceEvents\":", 0), 0u);
  std::ostringstream csv;
  ASSERT_TRUE(WriteWorkerTimelineCsv(obs.trace, &csv).ok());
  EXPECT_EQ(csv.str().rfind("worker,state,start_seconds,end_seconds,job_id",
                            0),
            0u);
}

TEST(ObsTest, ChaosRunTracePairsAndMetricsMatchRunResult) {
  Observability obs;
  RunResult result = RunChaos(&obs);
  // The run must actually exercise every fault mechanism for the checks
  // to mean anything.
  ASSERT_GT(result.worker_deaths, 0);
  ASSERT_GT(result.failed_attempts, 0);
  ASSERT_GT(result.speculative_attempts, 0);
  ExpectTraceMatchesRunResult(obs, result);
}

TEST(ObsTest, ThreadChaosRunTracePairsAndMetricsMatchRunResult) {
  // Deaths, crashes, quarantine and speculation on real threads. The
  // assertions are bookkeeping only, so they hold under TSan slowdown.
  CountingOnes problem;
  MeasurementStore store(3);
  RandomSampler sampler(&problem.space(), &store, 5);
  BracketSchedulerOptions options;
  options.ladder.eta = 3.0;
  options.ladder.num_levels = 3;
  options.ladder.max_resource = 27.0;
  options.selector.policy = BracketPolicy::kRoundRobin;
  SyncBracketScheduler scheduler(&problem.space(), &store, &sampler, nullptr,
                                 options);
  Observability obs;
  ThreadClusterOptions cluster_options;
  cluster_options.num_workers = 6;
  cluster_options.time_budget_seconds = 1.5;
  cluster_options.seed = 9;
  cluster_options.cost_sleep_scale = 1e-3;
  cluster_options.faults.crash_probability = 0.1;
  cluster_options.faults.max_retries = 1;
  cluster_options.faults.retry_backoff_seconds = 0.01;
  cluster_options.worker_faults.mttf_seconds = 0.3;
  cluster_options.worker_faults.mttr_seconds = 0.05;
  cluster_options.worker_faults.permanent_death_probability = 0.2;
  cluster_options.worker_faults.quarantine_failures = 2;
  cluster_options.worker_faults.quarantine_seconds = 0.05;
  cluster_options.speculation.speculation_factor = 2.0;
  cluster_options.obs.sink = &obs;
  ThreadCluster cluster(cluster_options);
  RunResult result = cluster.Run(&scheduler, problem);
  ASSERT_GT(result.worker_deaths, 0);
  ASSERT_GT(result.history.num_trials(), 0u);
  ExpectTraceMatchesRunResult(obs, result);
}

TEST(ObsTest, ProcessChaosRunTracePairsAndMetricsMatchRunResult) {
  // SIGKILLed worker subprocesses: orphaned attempts, respawns, and the
  // attempts still running when the trial cap stops the run.
  CountingOnes problem;
  MeasurementStore store(3);
  RandomSampler sampler(&problem.space(), &store, 17);
  BracketSchedulerOptions options;
  options.ladder.eta = 3.0;
  options.ladder.num_levels = 3;
  options.ladder.max_resource = 729.0;
  options.selector.policy = BracketPolicy::kRoundRobin;
  SyncBracketScheduler scheduler(&problem.space(), &store, &sampler, nullptr,
                                 options);
  Observability obs;
  ProcessClusterOptions cluster_options;
  cluster_options.num_workers = 2;
  cluster_options.time_budget_seconds = 60.0;
  cluster_options.max_trials = 12;
  cluster_options.seed = 42;
  cluster_options.worker_binary = HYPERTUNE_WORKER_BINARY;
  cluster_options.problem_spec = "counting-ones";
  cluster_options.heartbeat_interval_seconds = 0.02;
  cluster_options.respawn_backoff_seconds = 0.005;
  cluster_options.chaos_kill_every = 3;
  cluster_options.obs.sink = &obs;
  ProcessCluster cluster(cluster_options);
  RunResult result = cluster.Run(&scheduler, problem);
  ASSERT_GT(result.worker_lost_attempts, 0);
  ExpectTraceMatchesRunResult(obs, result);
}

TEST(ObsTest, ChaosRunTraceMetricsAndTimingArePinned) {
  // Pins the simulator's instrumented output byte for byte: the order of
  // trace events and every field of each, the metrics snapshot, and the
  // RunResult timing fields the golden digests leave out. Captured before
  // the backends moved their transition sinks into the attempt ledger.
  Observability obs;
  RunResult result = RunChaos(&obs);
  EXPECT_EQ(HashTrace(obs.trace.Snapshot()), 11565403980023211240ULL);
  EXPECT_EQ(HashMetrics(obs.metrics.Snapshot()), 17559053976238705847ULL);
  // Doubles are pinned bit-exactly, as hex floats.
  EXPECT_EQ(result.busy_seconds, 0x1.2668504e81f2fp+13);
  EXPECT_EQ(result.idle_seconds, 0x1.c797afb17e0d1p+13);
  EXPECT_EQ(result.utilization, 0x1.91f6def7d1825p-2);
  EXPECT_EQ(result.elapsed_seconds, 0x1.77p+12);
  EXPECT_EQ(result.events_processed, 118);
}

TEST(ObsTest, InstrumentationIsBitIdenticalToObsOff) {
  // The central determinism guarantee: recording consumes no RNG and
  // perturbs no decision, so the full chaos run — stragglers, crashes,
  // deaths, speculation — produces the identical history either way.
  Observability obs;
  RunResult instrumented = RunChaos(&obs);
  RunResult plain = RunChaos(nullptr);
  EXPECT_EQ(HashRun(instrumented), HashRun(plain));
}

TEST(ObsTest, HyperTuneFacadeRecordsSamplerAndSchedulerActivity) {
  CountingOnes problem;
  Observability obs;
  HyperTuneOptions options;
  options.num_workers = 4;
  options.time_budget_seconds = 4000.0;
  options.max_brackets = 3;
  options.seed = 7;
  options.obs.sink = &obs;
  TuningOutcome outcome = HyperTune::Optimize(problem, options);
  ASSERT_GT(outcome.run.history.num_trials(), 0u);

  std::vector<TraceEvent> events = obs.trace.Snapshot();
  ExpectLaunchTerminalPairing(events);
  ExpectSpansNest(events);

  MetricsSnapshot metrics = obs.metrics.Snapshot();
  EXPECT_GT(Counter(metrics, "sampler.configs_sampled"), 0);
  EXPECT_EQ(Counter(metrics, "sampler.configs_sampled"),
            CountKind(events, TraceKind::kConfigSampled));
  EXPECT_EQ(Counter(metrics, "scheduler.promotions"),
            CountKind(events, TraceKind::kPromotion));
  // The MFES sampler instruments its surrogate fits and acquisition
  // optimizations as spans + histograms.
  EXPECT_EQ(Counter(metrics, "sampler.fits"),
            metrics.histograms.count("sampler.fit_seconds") > 0
                ? metrics.histograms.at("sampler.fit_seconds").count
                : 0);

  std::ostringstream json;
  EXPECT_TRUE(WriteChromeTrace(obs.trace, &json).ok());
}

TEST(ObsTest, ThreadClusterExportsValidTrace) {
  CountingOnes problem;
  MeasurementStore store(2);
  RandomSampler sampler(&problem.space(), &store, 5);
  BracketSchedulerOptions options;
  options.ladder.eta = 3.0;
  options.ladder.num_levels = 2;
  options.ladder.max_resource = 81.0;
  options.selector.policy = BracketPolicy::kRoundRobin;
  SyncBracketScheduler scheduler(&problem.space(), &store, &sampler, nullptr,
                                 options);

  Observability obs;
  ThreadClusterOptions cluster_options;
  cluster_options.num_workers = 2;
  cluster_options.time_budget_seconds = 10.0;
  cluster_options.max_trials = 12;
  cluster_options.seed = 3;
  cluster_options.obs.sink = &obs;
  ThreadCluster cluster(cluster_options);
  RunResult result = cluster.Run(&scheduler, problem);
  ASSERT_GT(result.history.num_trials(), 0u);

  std::vector<TraceEvent> events = obs.trace.Snapshot();
  ExpectLaunchTerminalPairing(events);
  MetricsSnapshot metrics = obs.metrics.Snapshot();
  EXPECT_EQ(Counter(metrics, "jobs.completed"),
            static_cast<int64_t>(result.history.num_trials()));

  std::ostringstream json;
  ASSERT_TRUE(WriteChromeTrace(obs.trace, &json).ok());
  std::ostringstream csv;
  ASSERT_TRUE(WriteWorkerTimelineCsv(obs.trace, &csv).ok());
}

}  // namespace
}  // namespace hypertune
