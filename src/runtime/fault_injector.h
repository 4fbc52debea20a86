#ifndef HYPERTUNE_RUNTIME_FAULT_INJECTOR_H_
#define HYPERTUNE_RUNTIME_FAULT_INJECTOR_H_

#include <cstdint>

#include "src/runtime/job.h"

namespace hypertune {

/// Seeded fault model shared by every execution backend: worker crashes at
/// a uniform point of the evaluation, a per-job watchdog timeout, and a
/// bounded retry policy with exponential backoff. All knobs default to "no
/// faults", in which case no backend draws a single random number from the
/// fault stream and runs are bit-identical to the fault-free code path.
struct FaultOptions {
  /// Per-attempt probability that the worker crashes partway through the
  /// evaluation (the crash point is uniform over the attempt's duration).
  double crash_probability = 0.0;
  /// Kills any attempt that would occupy its worker for longer than this
  /// many seconds (virtual on SimulatedCluster, wall on ThreadCluster);
  /// <= 0 disables the watchdog.
  double timeout_seconds = 0.0;
  /// Retries granted per job before the trial is abandoned and reported
  /// failed to the scheduler. Only job-level failures (crash, timeout)
  /// consume the budget; worker loss (FailureKind::kWorkerLost) never does.
  int max_retries = 2;
  /// Base delay before a retry starts; the retry after failed attempt n
  /// waits 2^(n-1) times this (0 = immediate requeue). The exponent is
  /// capped (see RetryDelay) so huge attempt numbers cannot overflow.
  double retry_backoff_seconds = 0.0;
  /// Upper bound on any single retry delay; <= 0 leaves the exponential
  /// backoff uncapped (beyond the internal exponent cap).
  double max_retry_delay_seconds = 0.0;
  /// Deterministic jitter fraction in [0, 1]: the delay is scaled by a
  /// factor uniform in [1 - jitter/2, 1 + jitter/2], keyed on
  /// (seed, job_id, attempt), to de-synchronize retry thundering herds.
  /// 0 (the default) draws nothing and keeps existing runs bit-identical.
  double retry_jitter = 0.0;
};

/// Whole-worker fault model: workers are first-class entities with identity
/// and a seeded lifetime. Each incarnation of a worker lives for an
/// exponential uptime (mean `mttf_seconds`), then dies — orphaning its
/// in-flight attempt, which is reported as FailureKind::kWorkerLost and
/// requeued immediately without consuming the job's retry budget. A death
/// is permanent with probability `permanent_death_probability`; otherwise
/// the worker rejoins after an exponential downtime (mean `mttr_seconds`).
/// All draws are keyed on (seed, worker_id, incarnation), so fault
/// schedules replay deterministically and fault-off runs draw nothing.
struct WorkerFaultOptions {
  /// Mean time to failure of a worker incarnation; <= 0 disables whole-
  /// worker faults entirely (workers are immortal, as before this model).
  double mttf_seconds = 0.0;
  /// Mean downtime before a non-permanent death recovers; <= 0 recovers
  /// instantly (the death still orphans the in-flight attempt).
  double mttr_seconds = 0.0;
  /// Per-death probability that the worker never rejoins the cluster.
  double permanent_death_probability = 0.0;
  /// Quarantine policy: a worker whose attempts keep failing for job-level
  /// reasons (crash/timeout — not worker death) is suspected unhealthy and
  /// removed from the pull loop for `quarantine_seconds` after this many
  /// *consecutive* job-level failures. <= 0 disables quarantine. The
  /// counter resets on any successful completion and on rebirth.
  int quarantine_failures = 0;
  /// Backoff window a quarantined worker sits out before pulling again.
  double quarantine_seconds = 0.0;

  /// True when whole-worker faults are active.
  bool enabled() const { return mttf_seconds > 0.0; }
};

/// Speculative straggler re-execution: when an attempt's elapsed time
/// exceeds `speculation_factor` times the running median completed-attempt
/// duration at its fidelity level, the backend launches a duplicate of the
/// attempt on an idle worker. The first copy to finish wins (its result is
/// the one delivered to the scheduler); the loser is cancelled and its
/// worker time is charged as speculative waste. At most one duplicate is
/// ever launched per job.
struct SpeculationOptions {
  /// Elapsed / median threshold that marks an attempt a straggler;
  /// <= 0 disables speculation.
  double speculation_factor = 0.0;
  /// Completed attempts required at a fidelity level before its median is
  /// trusted for straggler detection.
  int min_samples = 3;

  /// True when speculative re-execution is active.
  bool enabled() const { return speculation_factor > 0.0; }
};

/// Stream salt the speculating backends pass to PlanAttempt for duplicate
/// copies, so a duplicate draws crash/timeout outcomes independent of its
/// primary (same (seed, job, attempt), different stream).
inline constexpr uint64_t kSpeculativeStreamSalt = 0x5BEC0DE5ULL;

/// Resolution of one evaluation attempt under the fault model.
struct AttemptPlan {
  /// True when the attempt fails (crash or timeout) instead of completing.
  bool failed = false;
  FailureKind kind = FailureKind::kCrash;
  /// Worker-occupancy seconds of the attempt: the nominal duration when it
  /// completes, less when a fault cuts it short.
  double duration = 0.0;
};

/// One incarnation of a worker's lifetime under WorkerFaultOptions.
struct WorkerLifetime {
  /// Seconds from (re)birth until this incarnation dies; +infinity when
  /// whole-worker faults are disabled.
  double uptime_seconds = 0.0;
  /// True when this death is permanent (the worker never rejoins).
  bool permanent = false;
  /// Seconds the worker stays down before rejoining (ignored if permanent).
  double downtime_seconds = 0.0;
};

/// Decides whether an attempt with the given nominal duration completes,
/// crashes, or times out, and how long the worker is occupied either way.
/// The draw depends only on (run_seed, job_id, attempt, stream_salt) —
/// never on scheduling order or thread interleaving — so the simulator
/// stays deterministic under any event ordering and every backend shares
/// one model. `stream_salt` separates fault streams of duplicate attempts
/// (speculative copies) from their primaries; the default 0 is the primary
/// stream and matches the pre-speculation draws bit-for-bit.
AttemptPlan PlanAttempt(const FaultOptions& faults, uint64_t run_seed,
                        const Job& job, double nominal_duration,
                        uint64_t stream_salt = 0);

/// Plans one worker incarnation: uptime until death, whether that death is
/// permanent, and the downtime before recovery. Keyed on
/// (run_seed, worker_id, incarnation) so the whole cluster's failure
/// schedule replays deterministically. Draws nothing when worker faults
/// are disabled (uptime is +infinity).
WorkerLifetime PlanWorkerLifetime(const WorkerFaultOptions& faults,
                                  uint64_t run_seed, int worker_id,
                                  int64_t incarnation);

/// Backoff before re-running `failed_job` (whose 1-based `attempt` just
/// failed): retry_backoff_seconds * 2^(attempt - 1), with the exponent
/// capped, the result clamped to max_retry_delay_seconds (when > 0), and
/// optional deterministic jitter keyed on (run_seed, job_id, attempt).
double RetryDelay(const FaultOptions& faults, uint64_t run_seed,
                  const Job& failed_job);

}  // namespace hypertune

#endif  // HYPERTUNE_RUNTIME_FAULT_INJECTOR_H_
