#ifndef HYPERTUNE_RUNTIME_SCHEDULER_CONTRACT_H_
#define HYPERTUNE_RUNTIME_SCHEDULER_CONTRACT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/runtime/scheduler_interface.h"

namespace hypertune {

/// Tuning knobs of the contract checker.
struct ContractCheckerOptions {
  /// Abort (with a structured dump of the recent event sequence) on the
  /// first violation. When false, violations are collected and readable
  /// via violations() — used by the checker's own negative-path tests.
  bool abort_on_violation = true;
};

/// Decorator that audits the pull-based SchedulerInterface contract on
/// every call before forwarding to the wrapped scheduler:
///
///   * NextJob() must mint a fresh job id at attempt 1, and ids ascend:
///     each is above every id issued before it (a reused id and an id below
///     the last issued one are separate violations);
///   * no job may be issued after Exhausted() was observed true, and
///     Exhausted() itself must be monotone (never flips back to false);
///   * OnJobComplete / OnJobFailed must reference a job that was issued
///     and is still unresolved — never an unknown id, a completed trial,
///     or an abandoned one;
///   * attempt numbers must be exactly the attempt the runtime is running:
///     attempt 1 on first execution, then +1 after every requeue granted
///     by OnJobFailed (stale or skipped attempt numbers are violations);
///   * outstanding-job accounting must stay consistent: issued minus
///     resolved equals the number of unresolved jobs the checker tracks;
///   * speculative duplicates follow first-finisher-wins: the backend
///     announces a duplicate via NoteSpeculativeLaunch (at most one per
///     job, only while the job is outstanding at the same attempt), must
///     retire it via NoteSpeculativeCopyLost before or right after the
///     winning completion, and must never report a job-level failure
///     through OnJobFailed while a duplicate is still live.
///
/// After every event the wrapped scheduler's CheckInvariants() hook runs,
/// so scheduler-internal accounting (rung targets vs. members resolved,
/// promoted ⊆ completed, batch-size bounds) is validated continuously.
///
/// Every execution backend installs this wrapper by default (the attempt
/// ledger does it; see BackendOptions::check_contract), which turns the
/// whole test suite into a contract-conformance suite. The
/// checker keeps no RNG and perturbs no decision, so checked runs are
/// bit-identical to unchecked ones. It is cheap enough to leave on: an
/// event is a fixed-size record in a ring of the last 64, turned into text
/// only when EventTrace() (the abort dump) reads it or a trace sink mirrors
/// it, and the jobs sit in a table in issue order, found at their id's
/// offset from the first id (by binary search once ids have gaps).
///
/// Thread-compatibility matches the schedulers themselves: not internally
/// synchronized; ThreadCluster serializes calls under its run mutex.
class SchedulerContractChecker : public SchedulerInterface {
 public:
  explicit SchedulerContractChecker(SchedulerInterface* inner,
                                    ContractCheckerOptions options = {});

  std::optional<Job> NextJob() override;
  void OnJobComplete(const Job& job, const EvalResult& result) override;
  bool OnJobFailed(const Job& job, const FailureInfo& info) override;
  bool Exhausted() const override;
  void CheckInvariants() const override;
  /// Mirrors every contract event into the trace (TraceKind::kContract) and
  /// forwards the sink to the wrapped scheduler.
  void SetObservability(Observability* sink) override;
  /// Forwards to the wrapped scheduler: a checkpoint of a checked run
  /// serializes the real scheduler's state (the checker's audit log is
  /// derived observation, not decision state).
  [[nodiscard]] Status Snapshot(WireEncoder* enc) const override;
  /// Refused: the checker's audit state (issued/outstanding job tracking)
  /// cannot be reconstructed from a scheduler snapshot, so a restored inner
  /// scheduler behind a fresh checker would trip spurious violations.
  /// Restore the wrapped scheduler directly, then wrap it.
  [[nodiscard]] Status Restore(WireDecoder* dec) override;

  /// Backend-only audit hooks for speculative re-execution (the wrapped
  /// scheduler never sees duplicates, so these are not part of
  /// SchedulerInterface). The backend calls NoteSpeculativeLaunch when it
  /// starts a duplicate copy of an outstanding job, and
  /// NoteSpeculativeCopyLost when either copy is retired while its sibling
  /// lives (cancelled loser, crashed copy, or copy orphaned by a worker
  /// death). Neither call perturbs any decision or RNG.
  void NoteSpeculativeLaunch(const Job& job);
  void NoteSpeculativeCopyLost(const Job& job);

  /// Violations collected so far (empty unless abort_on_violation=false).
  const std::vector<std::string>& violations() const { return violations_; }

  /// Jobs issued and not yet completed or abandoned.
  int64_t outstanding_jobs() const { return outstanding_; }

  /// Jobs issued over the whole run.
  int64_t jobs_issued() const { return static_cast<int64_t>(jobs_.size()); }

  /// The recent event sequence, newest last (what the abort path dumps).
  std::string EventTrace() const;

 private:
  enum class TrialState : uint8_t { kOutstanding, kCompleted, kAbandoned };

  /// One issued job; jobs_ keeps them sorted by id.
  struct TrackedJob {
    int64_t job_id = -1;
    /// Attempt number the runtime is currently executing (bumped when the
    /// scheduler grants a requeue).
    int current_attempt = 1;
    TrialState state = TrialState::kOutstanding;
    /// True while a speculative duplicate of the current attempt is live
    /// (set by NoteSpeculativeLaunch, cleared by NoteSpeculativeCopyLost).
    bool duplicated = false;
  };

  enum class EventKind : uint8_t {
    kNoJob,
    kIssued,
    kCompleted,
    kFailed,
    kSpeculativeLaunch,
    kSpeculativeCopyLost,
  };

  /// A contract event as recorded; FormatEvent() renders its text. The
  /// fields marked with a kind are read for that kind only.
  struct Event {
    Event() = default;
    Event(EventKind event_kind, const Job& job)
        : job_id(job.job_id),
          attempt(job.attempt),
          level(job.level),
          bracket(job.bracket),
          kind(event_kind) {}

    int64_t job_id = -1;
    double objective = 0.0;  // kCompleted
    int attempt = 0;
    int level = 0;                              // kIssued
    int bracket = 0;                            // kIssued
    int retries_remaining = 0;                  // kFailed
    FailureKind failure = FailureKind::kCrash;  // kFailed
    EventKind kind = EventKind::kNoJob;
    bool requeue = false;  // kFailed
  };

  /// How many recent events the dump keeps.
  static constexpr size_t kTraceCapacity = 64;

  void RecordEvent(const Event& event);
  static std::string FormatEvent(const Event& event);
  /// The tracked job with this id, or null when it was never issued.
  TrackedJob* FindJob(int64_t job_id);
  /// The first tracked job whose id is not below `job_id`.
  std::vector<TrackedJob>::iterator LowerBound(int64_t job_id);
  void Violation(const std::string& message);
  static const char* StateName(TrialState state);

  SchedulerInterface* inner_;
  ContractCheckerOptions options_;
  std::vector<TrackedJob> jobs_;
  int64_t outstanding_ = 0;
  /// Latched once Exhausted() returns true (mutable: latching happens in
  /// the const Exhausted() override).
  mutable bool exhausted_observed_ = false;
  /// The last kTraceCapacity events; event number n (from 0) sits in slot
  /// n % kTraceCapacity.
  std::array<Event, kTraceCapacity> trace_{};
  uint64_t events_recorded_ = 0;
  std::vector<std::string> violations_;
  Observability* obs_ = nullptr;  // null = observability off
};

}  // namespace hypertune

#endif  // HYPERTUNE_RUNTIME_SCHEDULER_CONTRACT_H_
