#ifndef HYPERTUNE_RUNTIME_ATTEMPT_LEDGER_H_
#define HYPERTUNE_RUNTIME_ATTEMPT_LEDGER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/rank_tree.h"
#include "src/obs/observability.h"
#include "src/runtime/fault_injector.h"
#include "src/runtime/job.h"
#include "src/runtime/scheduler_contract.h"
#include "src/runtime/scheduler_interface.h"
#include "src/runtime/trial_history.h"

namespace hypertune {

class RunJournal;

/// Observer invoked after every completed trial (progress reporting,
/// live dashboards, external early-stopping). The attempt ledger calls it
/// on the simulator's driving thread, under ThreadCluster's run lock, or on
/// ProcessCluster's supervisor thread — keep it cheap and do not call back
/// into the cluster.
using TrialObserver = std::function<void(const TrialRecord&)>;

/// Options every execution backend shares. ClusterOptions,
/// ThreadClusterOptions and ProcessClusterOptions inherit them and add the
/// knobs of their own execution mechanism.
struct BackendOptions {
  int num_workers = 8;
  /// Virtual (simulator) or wall-clock (threads, processes) budget in
  /// seconds.
  double time_budget_seconds = 3600.0;
  /// Run seed: drives evaluation noise and every fault draw.
  uint64_t seed = 0;
  /// Stop after this many completed trials (<= 0: unlimited).
  int64_t max_trials = -1;
  /// Seeded crash/timeout injection and the retry policy (defaults: off).
  /// Draws are keyed on (seed, job_id, attempt), so which attempts fail is
  /// reproducible on every backend.
  FaultOptions faults;
  /// Optional per-completion callback (see TrialObserver).
  TrialObserver observer;
  /// Audit the scheduler contract on every call by wrapping the scheduler
  /// in a SchedulerContractChecker (aborts with an event dump on the first
  /// violation). On by default — the checker perturbs no decision and no
  /// RNG, so checked runs are bit-identical to unchecked ones; turn it off
  /// for microbenchmarks that measure raw scheduler overhead.
  bool check_contract = true;
  /// Observability sink (trace events + metrics). Off by default; recording
  /// consumes no random numbers and perturbs no decision, so instrumented
  /// runs stay bit-identical to uninstrumented ones. Events are stamped
  /// with the backend's clock: virtual time on the simulator, run-relative
  /// wall time on threads and processes.
  ObservabilityOptions obs;
  /// Optional write-ahead journal (borrowed; may be null). When set, every
  /// state transition — scheduler decision, launch, completion, failure,
  /// requeue, worker death/recovery, quarantine, speculation — is appended
  /// (and flushed) *before* the transition is applied. A simulator run is
  /// resumed from it bit-identically (see core/run_recovery.h); thread and
  /// process interleavings are not reproducible, so their journals serve
  /// durability (store recovery, post-mortems). Journal hooks consume no
  /// random numbers and perturb no decision. Deliberately excluded from
  /// ClusterFingerprint for the same reason.
  RunJournal* journal = nullptr;
};

/// Aggregate outcome of a cluster run.
struct RunResult {
  TrialHistory history;
  /// Backend time when the run stopped.
  double elapsed_seconds = 0.0;
  /// Sum over workers of busy seconds (evaluation time, including time
  /// burned by attempts that later crashed or timed out).
  double busy_seconds = 0.0;
  /// Sum over workers of idle seconds inside [0, elapsed].
  double idle_seconds = 0.0;
  /// Worker utilization in [0, 1]: busy / (busy + idle).
  double utilization = 0.0;
  /// Attempts that crashed or timed out (each retry that fails counts).
  int64_t failed_attempts = 0;
  /// Failed attempts that were requeued for another try.
  int64_t retries = 0;
  /// Jobs abandoned after exhausting their retries (== history.failures()).
  int64_t failed_trials = 0;
  /// Worker seconds burned by failed attempts.
  double wasted_seconds = 0.0;

  // --- Failure-kind breakdown of failed_attempts. ---
  /// Attempts that crashed (job-level; consumes retry budget).
  int64_t crash_attempts = 0;
  /// Attempts killed by the per-job timeout (job-level; consumes budget).
  int64_t timeout_attempts = 0;
  /// Attempts orphaned by a worker death (worker-level; never consumes the
  /// job's retry budget — always requeued immediately).
  int64_t worker_lost_attempts = 0;

  // --- Worker fault-domain accounting. ---
  /// Worker death events over the run (a worker can die more than once).
  int64_t worker_deaths = 0;
  /// Workers that died permanently and never rejoined.
  int64_t workers_lost_permanently = 0;
  /// Quarantine windows entered by suspect workers.
  int64_t quarantines = 0;
  /// Sum over workers of seconds spent dead or quarantined inside
  /// [0, elapsed] (informational; not part of busy/idle).
  double worker_down_seconds = 0.0;

  // --- Speculative re-execution accounting. ---
  /// Duplicate copies launched for straggling attempts.
  int64_t speculative_attempts = 0;
  /// Duplicates that finished before their straggling primary.
  int64_t speculative_wins = 0;
  /// Copies retired while their sibling lived (cancelled losers, crashed
  /// copies, copies orphaned by worker death).
  int64_t speculative_losses = 0;
  /// Worker seconds burned by losing speculative copies.
  double speculative_wasted_seconds = 0.0;

  /// Simulator events processed (queue pops), SimulatedCluster only. The
  /// denominator-free throughput measure for scalability benchmarks:
  /// events / wall seconds is the event core's processing rate.
  int64_t events_processed = 0;

  /// Derives idle_seconds and utilization from elapsed/busy. Utilization is
  /// busy / (busy + idle) and defined as 0 for a zero-trial run (no time
  /// elapsed), never NaN.
  void Finalize(int num_workers);
};

/// One attempt-lifecycle state change. Each kind names one journal record,
/// one trace event, at most one metric and the RunResult fields it moves.
enum class TransitionKind : uint8_t {
  kDecision,        ///< the scheduler issued a fresh job
  kLaunch,          ///< a copy of an attempt started on a worker
  kComplete,        ///< the first copy to finish delivered the result
  kFailed,          ///< the job's last live copy crashed, timed out or was lost
  kRequeue,         ///< the scheduler granted another attempt
  kAbandon,         ///< the scheduler gave the job up
  kCopyLost,        ///< a copy ended while its sibling raced on
  kSpeculate,       ///< a straggling attempt earned a duplicate
  kWorkerDeath,     ///< a worker died
  kWorkerRecover,   ///< a dead worker rejoined
  kQuarantineBegin, ///< a worker was benched after repeated job failures
  kQuarantineEnd,   ///< a quarantined worker rejoined
  kTruncated,       ///< the run ended while a copy was still running
};

/// The value of one state change: what AttemptLedger::Emit writes to the
/// journal, the trace, the metrics and the RunResult. Fields a kind does
/// not use keep their defaults (worker -1 when no worker is involved).
struct Transition {
  Transition(TransitionKind kind, double now, int worker,
             const Job* job = nullptr)
      : kind(kind), now(now), worker(worker), job(job) {}

  TransitionKind kind;
  /// Backend clock seconds when the change happened.
  double now;
  int worker;
  /// The job; for kRequeue its next attempt.
  const Job* job;
  FailureKind failure = FailureKind::kCrash;
  /// The copy is a speculative duplicate (launch, completion, lost copy,
  /// truncation).
  bool speculative = false;
  /// The worker never rejoins (death).
  bool permanent = false;
  /// Planned occupancy (launch), attempt duration (completion), burned
  /// seconds (failure, lost copy, abandonment), retry backoff (requeue) or
  /// quarantine length.
  double seconds = 0.0;
  /// When the attempt started (completion, abandonment).
  double start_time = 0.0;
  const EvalResult* eval = nullptr;
};

/// What a backend does after a failed attempt or a worker death.
struct AttemptEnd {
  /// The job's next attempt when the scheduler granted a retry. The
  /// backend parks it for `retry_delay` seconds (0: runnable at once).
  std::optional<Job> retry;
  double retry_delay = 0.0;
  /// The worker entered quarantine: hold it out of the pull loop for the
  /// quarantine window, then call QuarantineEnd.
  bool quarantined = false;
};

/// The attempt lifecycle every execution backend shares.
///
/// A backend supplies a clock and an execution mechanism — the simulator's
/// event queue, worker threads, or worker subprocesses — and reports to
/// the ledger what happened on which worker. The ledger applies the run's
/// policy and writes every state change to its sinks:
///
///   * the retry budget and the requeue-or-abandon decision (worker loss
///     never spends budget);
///   * which workers run a copy of each job, first-finisher-wins, the
///     accounting for a lost copy, and the contract checker's speculation
///     notes;
///   * the per-level duration medians that mark stragglers;
///   * each worker's failure streak, quarantine and down windows;
///   * the unresolved-job and completion counts, the trial cap and the
///     "no work left" test;
///   * the run's RunResult, trial history, observer and checkpoints.
///
/// Every change becomes one Transition, and Emit() writes it to the
/// journal, the trace, the metrics and the RunResult in the order the
/// journal's write-ahead contract needs. Metrics therefore equal RunResult
/// counters by construction. With obs and journal off a transition
/// allocates nothing.
///
/// Not internally synchronized: ThreadCluster holds it under its run lock.
class AttemptLedger {
 public:
  /// Wraps `scheduler` in the contract checker when
  /// options.check_contract, installs `clock` on the trace and hands the
  /// sink to the scheduler and the journal. `full_resource` marks
  /// full-fidelity trials in the history.
  AttemptLedger(const BackendOptions& options,
                const WorkerFaultOptions& worker_faults,
                const SpeculationOptions& speculation,
                SchedulerInterface* scheduler, double full_resource,
                std::function<double()> clock,
                TrialRetention retention = TrialRetention::kFull);
  AttemptLedger(const AttemptLedger&) = delete;
  AttemptLedger& operator=(const AttemptLedger&) = delete;

  // --- Queries.
  /// True while a copy of some attempt runs on `worker`.
  bool Busy(int worker) const { return workers_[worker].busy; }
  /// The attempt on `worker` (valid while Busy).
  const Job& RunningJob(int worker) const { return workers_[worker].job; }
  double StartTime(int worker) const { return workers_[worker].start_time; }
  bool Quarantined(int worker) const { return workers_[worker].quarantined; }
  /// True when `worker` runs a job that has not had its one duplicate.
  bool CanSpeculate(int worker) const;
  /// Seconds after which an attempt at `level` counts as a straggler:
  /// speculation_factor x the level's median completed duration, or
  /// +infinity before min_samples completions (or with speculation off).
  double StragglerThreshold(int level) const;
  /// The worker running the overdue, not yet duplicated attempt with the
  /// smallest job id, or -1.
  int FindStraggler(double now) const;
  /// No job is unresolved and the scheduler is exhausted.
  bool NoWorkLeft() const;
  /// max_trials completions were recorded.
  bool TrialCapReached() const {
    return max_trials_ > 0 && completed_ >= max_trials_;
  }
  /// A journal append failed or a replay diverged; applying further
  /// unjournaled transitions would defeat the write-ahead guarantee, so
  /// the backend stops.
  bool JournalFailed() const;

  // --- Transitions, each reported log-then-apply at backend time `now`.
  /// Asks the scheduler for a fresh job and journals the decision.
  std::optional<Job> Decide(double now);
  /// A copy of `job` starts on idle `worker`, planned to occupy it for
  /// `planned_seconds`.
  void Launch(int worker, Job job, bool speculative, double planned_seconds,
              double now);
  /// Marks the attempt on `worker` duplicated and returns the job to launch
  /// as its speculative copy.
  Job Speculate(int worker, double now);
  /// The copy on `worker` finished first: records the trial, cancels a
  /// racing sibling and reports the result to the scheduler. Returns the
  /// worker whose losing copy it cancelled, or -1.
  int Complete(int worker, EvalResult eval, double now);
  /// The copy on `worker` crashed or timed out. A copy whose sibling races
  /// on is lost silently; otherwise the scheduler decides between requeue
  /// and abandonment. Either way the worker's failure streak grows and may
  /// trip quarantine.
  AttemptEnd Fail(int worker, FailureKind kind, double now);
  /// `worker` died. Closes a quarantine window, orphans its running copy
  /// as `orphan` (kWorkerLost unless the backend knows better) and opens a
  /// down window.
  AttemptEnd WorkerDeath(int worker, bool permanent, double now,
                         FailureKind orphan = FailureKind::kWorkerLost);
  void WorkerRecover(int worker, double now);
  void QuarantineEnd(int worker, double now);
  /// The run was cut off at `until`: charges every running copy as busy up
  /// to then. The copies stay running for Finish's truncation events.
  void ChargeRunning(double until);
  /// Ends the run at backend time `elapsed`: closes open down windows,
  /// finalizes and journals the result, truncates running copies in the
  /// trace, sets the run gauges and freezes the trace clock.
  RunResult Finish(double elapsed);

 private:
  /// A worker: the copy it runs and its fault-domain state.
  struct WorkerSlot {
    Job job;
    double start_time = 0.0;
    bool busy = false;
    bool speculative = false;
    /// Dead or quarantined since `down_since`.
    bool down = false;
    bool quarantined = false;
    double down_since = 0.0;
    /// Consecutive job-level failures (the quarantine trigger).
    int failure_streak = 0;
  };

  /// An unresolved job. At most one duplicate runs per job, so two copy
  /// slots suffice.
  struct JobEntry {
    /// Workers running a copy of the current attempt; copies[0] is -1 only
    /// when copies[1] is.
    int copies[2] = {-1, -1};
    /// Job-level failures so far; they spend the retry budget.
    int failures = 0;
    /// The job used its one speculative duplicate.
    bool duplicated = false;
  };

  /// Writes `t` to the journal, the RunResult, the trace and the metrics.
  void Emit(const Transition& t);
  /// Stops the copy on `worker`; returns its job's entry.
  JobEntry& Retire(int worker);
  /// Ends the failed copy on `worker`: a lost copy, or a failed attempt
  /// the scheduler requeues or abandons.
  AttemptEnd EndFailedCopy(int worker, FailureKind kind, double now);

  const int num_workers_;
  const uint64_t seed_;
  const int64_t max_trials_;
  const FaultOptions faults_;
  const TrialObserver observer_;
  const bool check_contract_;
  Observability* const obs_;
  RunJournal* const journal_;
  const WorkerFaultOptions worker_faults_;
  const SpeculationOptions speculation_;
  const double full_resource_;

  SchedulerContractChecker checker_;
  SchedulerInterface* const scheduler_;
  RunResult result_;
  std::vector<WorkerSlot> workers_;
  std::unordered_map<int64_t, JobEntry> jobs_;
  /// Completed-attempt durations per fidelity level (only kept with
  /// speculation on), in a rank tree so the median is O(log n) to read.
  std::unordered_map<int, RankTree> level_durations_;
  /// Issued jobs not yet completed or abandoned, running or waiting out a
  /// retry backoff.
  int64_t unresolved_ = 0;
  int64_t completed_ = 0;
};

}  // namespace hypertune

#endif  // HYPERTUNE_RUNTIME_ATTEMPT_LEDGER_H_
