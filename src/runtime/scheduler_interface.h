#ifndef HYPERTUNE_RUNTIME_SCHEDULER_INTERFACE_H_
#define HYPERTUNE_RUNTIME_SCHEDULER_INTERFACE_H_

#include <optional>

#include "src/common/status.h"
#include "src/obs/observability.h"
#include "src/runtime/job.h"
#include "src/runtime/wire_format.h"

namespace hypertune {

/// Pull-based scheduling contract shared by every method in this library
/// (SHA, ASHA, D-ASHA, Hyperband variants, batch BO) and by every execution
/// backend (SimulatedCluster, ThreadCluster and ProcessCluster).
///
/// The backend drives the scheduler:
///   - when a worker becomes idle it calls NextJob();
///   - std::nullopt means "no work right now" — for synchronous methods this
///     *is* the synchronization barrier (the worker idles until another
///     worker's completion unblocks a promotion round);
///   - when an evaluation finishes the backend calls OnJobComplete().
///
/// Thread-safety: schedulers are NOT internally synchronized; ThreadCluster
/// serializes calls with its own mutex, SimulatedCluster is single-threaded.
class SchedulerInterface {
 public:
  virtual ~SchedulerInterface() = default;

  /// Next evaluation job, or nullopt when no job can be issued yet (barrier)
  /// or the method is exhausted (see Exhausted()). Job ids ascend: each
  /// issued id is above every id issued before it (minting `next_id++`
  /// meets this), and a job is issued at attempt 1.
  virtual std::optional<Job> NextJob() = 0;

  /// Reports a finished evaluation of a job previously issued by NextJob().
  virtual void OnJobComplete(const Job& job, const EvalResult& result) = 0;

  /// Reports a failed evaluation attempt (worker crash, timeout, or whole-
  /// worker loss) of a job previously issued by NextJob(). Returning true
  /// asks the backend to requeue the *same* job (same job_id, attempt + 1,
  /// after the configured backoff); returning false abandons the trial,
  /// which the backend then records as failed in the TrialHistory.
  ///
  /// The default policy requeues while the backend still grants retries and
  /// abandons afterwards — except for FailureKind::kWorkerLost, which is
  /// always requeued: a node death is the cluster's fault, not the job's,
  /// so the backend neither consumes the job's retry budget nor applies a
  /// retry backoff (the orphan re-enters the queue immediately). Schedulers
  /// that track in-flight work MUST override this, delegate the retry
  /// decision to the base implementation, and on abandonment update their
  /// accounting so the dead job no longer counts as outstanding — a
  /// synchronous rung must drain its barrier around the failed member
  /// instead of waiting for a completion that never comes.
  ///
  /// Speculative duplicate attempts (see SpeculationOptions) are invisible
  /// here: the backend only reports a job-level failure when its *last*
  /// live copy fails, and only one completion is ever delivered per job.
  virtual bool OnJobFailed(const Job& job, const FailureInfo& info) {
    (void)job;
    if (info.kind == FailureKind::kWorkerLost) return true;
    return info.retries_remaining > 0;
  }

  /// True when the scheduler will never issue another job regardless of
  /// future completions (e.g. a single SHA bracket that fully drained).
  /// Backends use this to distinguish a barrier from termination when no
  /// evaluations are in flight. Must be monotone: once true, always true.
  virtual bool Exhausted() const { return false; }

  /// Audits the scheduler's internal invariants (rung accounting, batch
  /// bounds) and aborts via HT_CHECK on corruption. The
  /// SchedulerContractChecker decorator calls this after every contract
  /// event, so a run with contract checking enabled validates scheduler
  /// state continuously. The default is a no-op for schedulers without
  /// internal bookkeeping.
  virtual void CheckInvariants() const {}

  /// Installs the run's observability sink (null disables, the default).
  /// Called by the execution backend before the first NextJob(); schedulers
  /// that own a sampler forward the sink to it. Purely observational: a
  /// scheduler's decisions must be identical with and without a sink.
  virtual void SetObservability(Observability* sink) { (void)sink; }

  /// Serializes the scheduler's decision state (rungs, counters, sampler
  /// RNG) onto `enc` in the versioned wire format, as a pure function of
  /// that state and the encoder.
  ///
  /// Into a plain encoder it writes a *full image*: a freshly constructed
  /// scheduler with identical construction parameters that Restore()s it
  /// must make bit-identical decisions from then on. When the encoder
  /// carries a snapshot base (WireEncoder::snapshot_base, the bytes of an
  /// earlier snapshot of this scheduler), a scheduler may instead write a
  /// *delta*: only what changed since the base, which Restore() applies on
  /// top of exactly the state the base restores to. Schedulers without
  /// deltas ignore the base. Decorators forward the encoder untouched.
  ///
  /// Snapshots feed the write-ahead journal's periodic checkpoint records
  /// (RunJournal::MaybeCheckpoint) and the thread backend's warm starts.
  /// The default declines — journal checkpointing silently skips
  /// schedulers without snapshot support.
  [[nodiscard]] virtual Status Snapshot(WireEncoder* enc) const {
    (void)enc;
    return Status::Unimplemented("scheduler does not snapshot");
  }

  /// Restores a full image produced by Snapshot() on an identically
  /// configured, freshly constructed scheduler, or applies a delta on top
  /// of the state its base restores to. Rejects malformed bytes, and a
  /// delta on any other state, with a non-OK Status and leaves the
  /// scheduler unchanged.
  [[nodiscard]] virtual Status Restore(WireDecoder* dec) {
    (void)dec;
    return Status::Unimplemented("scheduler does not snapshot");
  }
};

}  // namespace hypertune

#endif  // HYPERTUNE_RUNTIME_SCHEDULER_INTERFACE_H_
