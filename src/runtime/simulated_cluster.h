#ifndef HYPERTUNE_RUNTIME_SIMULATED_CLUSTER_H_
#define HYPERTUNE_RUNTIME_SIMULATED_CLUSTER_H_

#include "src/problems/problem.h"
#include "src/runtime/attempt_ledger.h"
#include "src/runtime/fault_injector.h"
#include "src/runtime/scheduler_interface.h"

namespace hypertune {

/// Options for a SimulatedCluster run: the shared BackendOptions plus the
/// simulator's evaluation-time model and fault domain.
struct ClusterOptions : BackendOptions {
  /// Log-normal sigma of multiplicative evaluation-time noise; 0 disables
  /// straggler injection.
  double straggler_sigma = 0.0;
  /// Whole-worker fault domain: seeded node death/recovery, permanent
  /// losses, and the quarantine policy for suspect workers (defaults: off).
  WorkerFaultOptions worker_faults;
  /// Speculative straggler re-execution (defaults: off).
  SpeculationOptions speculation;
  /// How much per-trial detail the run's TrialHistory keeps. kAggregates
  /// drops per-trial records (keeping counters and the improvement-only
  /// anytime curve) so mega-scale simulations run in O(1) memory per trial.
  TrialRetention retention = TrialRetention::kFull;
};

/// Discrete-event distributed execution backend with a virtual clock.
///
/// Semantics match a real cluster of `num_workers` identical machines:
/// an idle worker pulls a job from the scheduler; evaluation occupies the
/// worker for the problem's (incremental) cost, optionally inflated by
/// log-normal straggler noise; on completion the scheduler is notified and
/// every idle worker retries. A scheduler returning nullopt leaves workers
/// idle — which is exactly the synchronization-barrier waste of Figure 1.
///
/// With faults enabled, attempts can crash at a uniform point of their
/// duration or be killed by the per-job timeout; the worker time burned is
/// charged as busy (and wasted), the scheduler is asked via OnJobFailed
/// whether to requeue, and requeued jobs re-enter the event queue after the
/// configured backoff. All fault draws are keyed on (seed, job_id, attempt),
/// so identical seeds replay the identical crash/timeout schedule.
///
/// With worker faults enabled, whole workers die and recover on a seeded
/// lifetime schedule keyed on (seed, worker_id, incarnation). A dying
/// worker orphans its in-flight attempt, which is reported to the scheduler
/// as FailureKind::kWorkerLost and requeued immediately without consuming
/// the job's retry budget. Workers whose attempts repeatedly fail for
/// job-level reasons are quarantined (withheld from the pull loop for a
/// backoff window). With speculation enabled, an attempt whose elapsed time
/// exceeds speculation_factor x the running median cost at its fidelity is
/// duplicated on an idle worker — first finisher wins, the loser is
/// cancelled and its time charged as speculative waste. Schedulers never
/// see duplicates: exactly one completion (or final failure) is reported
/// per job.
///
/// The run stops when the virtual clock would pass the budget, when the
/// scheduler is exhausted with no jobs in flight, or when `max_trials`
/// completions were recorded.
class SimulatedCluster {
 public:
  explicit SimulatedCluster(ClusterOptions options) : options_(options) {}

  /// Executes `scheduler` against `problem`. The scheduler must be freshly
  /// constructed (this method does not reset it).
  RunResult Run(SchedulerInterface* scheduler, const TuningProblem& problem);

  const ClusterOptions& options() const { return options_; }

 private:
  ClusterOptions options_;
};

}  // namespace hypertune

#endif  // HYPERTUNE_RUNTIME_SIMULATED_CLUSTER_H_
