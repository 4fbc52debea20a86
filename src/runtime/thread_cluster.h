#ifndef HYPERTUNE_RUNTIME_THREAD_CLUSTER_H_
#define HYPERTUNE_RUNTIME_THREAD_CLUSTER_H_

#include "src/problems/problem.h"
#include "src/runtime/attempt_ledger.h"
#include "src/runtime/scheduler_interface.h"

namespace hypertune {

/// Options for the real-concurrency backend: the shared BackendOptions
/// (wall-clock budget; the observer runs under the run lock) plus the
/// sleep model and the fault domain.
struct ThreadClusterOptions : BackendOptions {
  /// Each evaluation additionally sleeps cost_seconds * this factor, so the
  /// synthetic problems' cost model manifests as real elapsed time (set to 0
  /// to run evaluations back-to-back).
  double cost_sleep_scale = 0.0;
  /// Whole-worker fault domain (node death/recovery, quarantine). Lifetimes
  /// are wall-clock seconds here; draws are keyed on (seed, worker_id,
  /// incarnation) just like the simulator's.
  WorkerFaultOptions worker_faults;
  /// Speculative straggler re-execution (defaults: off). Idle workers scan
  /// for straggling attempts instead of spinning at a barrier.
  SpeculationOptions speculation;
};

/// Multi-threaded execution backend running one OS thread per worker.
///
/// Exercises exactly the same SchedulerInterface contract as
/// SimulatedCluster, demonstrating that the schedulers are genuinely
/// asynchronous: scheduler calls are serialized by an internal mutex while
/// evaluations run concurrently. Trial timestamps are wall-clock seconds
/// since the start of the run.
///
/// Faults are injected in the real worker threads: a doomed attempt sleeps
/// until its crash point (or the watchdog timeout) and never produces a
/// result; OnJobFailed then decides between requeue — the job waits out its
/// backoff in a retry queue that any worker may pick up — and abandonment.
///
/// With worker faults enabled, each worker thread lives out seeded
/// incarnations: when its wall-clock uptime expires it orphans any
/// in-flight attempt (reported as FailureKind::kWorkerLost and requeued
/// immediately, never consuming the job's retry budget), then either exits
/// for good (permanent death) or sleeps out its downtime and rejoins as the
/// next incarnation. Workers whose attempts repeatedly fail for job-level
/// reasons sit out a quarantine window. With speculation enabled, a worker
/// that finds no work duplicates the longest-overdue straggling attempt
/// instead of idling; first finisher wins, the loser is cancelled via a
/// kill flag checked inside its sliced sleep, and schedulers never observe
/// duplicate copies.
class ThreadCluster {
 public:
  explicit ThreadCluster(ThreadClusterOptions options) : options_(options) {}

  /// Blocks until the budget elapses, the trial cap is hit, or the
  /// scheduler is exhausted with no work in flight.
  RunResult Run(SchedulerInterface* scheduler, const TuningProblem& problem);

  const ThreadClusterOptions& options() const { return options_; }

 private:
  ThreadClusterOptions options_;
};

}  // namespace hypertune

#endif  // HYPERTUNE_RUNTIME_THREAD_CLUSTER_H_
