#ifndef HYPERTUNE_CORE_RUN_RECOVERY_H_
#define HYPERTUNE_CORE_RUN_RECOVERY_H_

#include <string>

#include "src/common/status.h"
#include "src/problems/problem.h"
#include "src/runtime/journal.h"
#include "src/runtime/measurement_store.h"
#include "src/runtime/scheduler_interface.h"
#include "src/runtime/simulated_cluster.h"

namespace hypertune {

/// Crash recovery for journaled simulator runs.
///
/// A SimulatedCluster run is a pure function of its ClusterOptions, the
/// scheduler configuration, and the problem, so resuming a killed run means
/// re-executing it with the journal in replay-verify mode (see
/// runtime/journal.h): the regenerated record stream is byte-compared
/// against what the dead run logged — proving the resumed execution is the
/// same execution — and once the log is exhausted the journal switches to
/// live append and the run continues to completion. The final RunResult is
/// bit-identical to what the uninterrupted run would have produced (the
/// crash-point matrix in tests/journal_recovery_test.cc asserts this via
/// golden digests for every possible kill point).
///
/// Checkpoint fast path. Full replay re-executes every scheduler decision
/// from record 1, so resume cost scales with run length. When the journal
/// holds kCheckpoint records (periodic scheduler Snapshot()s, each a full
/// image or a delta against the previous one) and the caller supplies the
/// scheduler's freshly constructed MeasurementStore, resume instead
/// Restore()s the scheduler from the newest checkpoint chain — the newest
/// full image that restores, then the deltas after it — and serves every
/// prefix scheduler call *from the journal itself* through an internal
/// facade: NextJob decodes the next kDecision
/// record, OnJobFailed reads the following kRequeue/kAbandon verdict,
/// Snapshot echoes the stored checkpoint bytes, and the store is mirrored
/// record-by-record (AddPending on decisions, RemovePending+Add on
/// completions) so the restored scheduler resumes over exactly the store
/// state it snapshotted against. The simulator still re-executes the prefix
/// events — every regenerated record is byte-verified as in full replay, so
/// divergence detection is undiminished — but sampler fits and scheduler
/// decisions are only computed for the suffix. A delta that fails
/// Restore() (which leaves the scheduler unchanged on failure) ends the
/// chain at its predecessor, a full image that fails falls back to the
/// chain before it, and a journal with no restorable checkpoint falls back
/// to full replay. Both paths produce bit-identical
/// RunResults; scheduler-internal trace events (promotions, sampler fits)
/// are elided for the prefix on the fast path.

struct ResumeOptions {
  /// The freshly constructed (empty) MeasurementStore the scheduler under
  /// resume was built over. Required for the checkpoint fast path — the
  /// facade mirrors the journal's measurements into it so the restored
  /// scheduler sees the store state its snapshot was taken against. When
  /// null, resume always uses full replay.
  MeasurementStore* store = nullptr;
};

/// Resumes a killed run from its journal file. `options` and `scheduler`
/// must be configured identically to the run that wrote the journal (the
/// scheduler freshly constructed); the fingerprint check rejects anything
/// else. A torn tail is truncated from the file before replay, and new
/// records are appended to it as the run proceeds past the crash point.
/// `options.journal` is overwritten internally and need not be set.
[[nodiscard]] Result<RunResult> ResumeRun(const std::string& journal_path,
                            ClusterOptions options,
                            SchedulerInterface* scheduler,
                            const TuningProblem& problem,
                            JournalOptions journal_options = {},
                            ResumeOptions resume = {});

/// ResumeRun for an in-memory journal byte stream (crash-point tests).
/// When `final_journal` is non-null it receives the resumed journal's full
/// byte stream (verified prefix + newly appended records).
[[nodiscard]]
Result<RunResult> ResumeRunFromBytes(const std::string& journal_bytes,
                                     ClusterOptions options,
                                     SchedulerInterface* scheduler,
                                     const TuningProblem& problem,
                                     JournalOptions journal_options = {},
                                     std::string* final_journal = nullptr,
                                     ResumeOptions resume = {});

/// Rebuilds completed measurements from a resumed journal's kComplete
/// records into `store` (level + configuration + objective). Pending
/// entries are transient worker state and are not recoverable. Useful for
/// warm-starting a *different* run from a dead run's partial history
/// without re-executing it.
[[nodiscard]] Status RecoverStoreFromJournal(const RunJournal& journal,
                               MeasurementStore* store);

}  // namespace hypertune

#endif  // HYPERTUNE_CORE_RUN_RECOVERY_H_
