#ifndef HYPERTUNE_COMMON_LOCK_ORDER_H_
#define HYPERTUNE_COMMON_LOCK_ORDER_H_

/// The global mutex acquisition order, and the deterministic lock-order
/// checker ("lockdep") that enforces it.
///
/// Clang's thread-safety analysis proves that guarded state is only touched
/// under its lock, but it cannot prove the *order* in which two locks are
/// taken — the bug class behind every classic AB/BA deadlock. This header
/// closes that hole in two layers:
///
///   1. A documented total order. Every long-lived mutex in the library is
///      constructed with a LockRank from the table below plus a short name.
///      Along any legal call path, ranks strictly increase as locks are
///      acquired: an outer lock always has a lower rank than any lock taken
///      while it is held. Holding two locks of the same rank is equally
///      illegal (the 16 store pending shards share a rank precisely because
///      no path may nest them).
///
///   2. A per-thread runtime checker. When compiled in (HYPERTUNE_LOCKDEP,
///      on by default outside Release builds), Mutex::Lock records ranked
///      acquisitions on a thread-local stack and aborts — naming both locks
///      — the moment a thread acquires a ranked mutex at or below the
///      highest rank it already holds. The check consumes no wall clock and
///      no randomness, so checker-on and checker-off runs are bit-identical
///      (golden-history digests pin this); in Release builds the hook
///      compiles away to nothing.
///
/// The current order, outermost (acquired first) to innermost:
///
///   rank | name                | mutex
///   -----+---------------------+------------------------------------------
///    100 | cluster.run_state   | ThreadCluster RunState::mu — the backend
///        |                     | lock serializing scheduler calls; held
///        |                     | while journaling, storing, and tracing
///    150 | process.inbox       | ProcessCluster inbox mutex — per-worker
///        |                     | reader threads hand inbound wire frames
///        |                     | to the supervisor loop through it
///    160 | process.worker_io   | hypertune_worker's socket-write mutex
///        |                     | (heartbeat thread vs. result writes; lives
///        |                     | in the worker process, never nested with
///        |                     | driver locks)
///    200 | thread_pool.queue   | ThreadPool::mu_ — ParallelFor's item
///        |                     | claims and join; forest fits take it
///        |                     | under cluster.run_state, and helpers
///        |                     | hold no other lock
///    300 | journal.stream      | RunJournal::mu_ — held while the commit
///        |                     | path records journal trace events/metrics
///    400 | store.groups        | MeasurementStore::mu_ (measurement groups)
///    500 | store.pending_shard | MeasurementStore::PendingShard::mu, one
///        |                     | per shard; never nested with each other
///        |                     | or with store.groups (leaf by design)
///    600 | obs.trace           | TraceRecorder::mu_
///    700 | obs.metrics         | MetricsRegistry::mu_
///    800 | log.sink            | logging sink mutex — innermost, because
///        |                     | HT_LOG must be callable under any lock
///
/// Adding a mutex: pick the rank from this table matching where it sits in
/// the call graph (a new value between existing ones is fine — the gaps are
/// deliberate), document it here, and construct it ranked. Unranked mutexes
/// (default constructor) are exempt from the checker; short-lived test
/// locals may stay unranked, library mutexes must not — tools/analyze.py's
/// guarded-member pass keeps the inventory honest.
#include "src/common/thread_annotations_defs.h"

/// Build gate for the runtime checker. CMake passes an explicit 0/1 for the
/// whole build (HYPERTUNE_LOCKDEP option: AUTO compiles it in everywhere
/// except Release/MinSizeRel); this fallback keeps standalone compiles —
/// clang-tidy, editors without the compilation database — sensible.
#if !defined(HYPERTUNE_LOCKDEP)
#if defined(NDEBUG)
#define HYPERTUNE_LOCKDEP 0
#else
#define HYPERTUNE_LOCKDEP 1
#endif
#endif

namespace hypertune {

/// The rank table. Values are the total acquisition order: lower rank =
/// acquired earlier (outer), and every nested acquisition must strictly
/// increase the rank. kUnranked mutexes do not participate.
enum class LockRank : int {
  kUnranked = 0,
  kClusterRunState = 100,
  kProcessInbox = 150,
  kProcessWorkerIo = 160,
  kThreadPool = 200,
  kJournal = 300,
  kStoreGroups = 400,
  kStorePendingShard = 500,
  kTraceRecorder = 600,
  kMetricsRegistry = 700,
  kLogSink = 800,
};

/// Stable name of a rank level ("cluster.run_state", ...); "unranked" for
/// kUnranked, "?" for values outside the table.
const char* LockRankName(LockRank rank);

/// Compile-time mirror of the order for Clang's thread-safety analysis.
///
/// TSA's ACQUIRED_BEFORE/ACQUIRED_AFTER attributes bind to *declarations*,
/// not to runtime objects, so the instance mutexes above (one per store
/// shard, one per journal, one per run) cannot carry the cross-class order
/// directly — there is no declaration of the "other" lock in scope. These
/// zero-size phantom capabilities give the table a declaration-level
/// encoding TSA can see: each level is ACQUIRED_AFTER the previous one,
/// forming the same chain as the rank values. A future global mutex slots
/// into the chain by declaring itself ACQUIRED_AFTER the level above it.
/// Instance-precise enforcement is lockdep's job below.
class CAPABILITY("lock_rank") LockRankLevel {};
extern LockRankLevel rank_cluster_run_state;
extern LockRankLevel rank_process_inbox ACQUIRED_AFTER(rank_cluster_run_state);
extern LockRankLevel rank_process_worker_io ACQUIRED_AFTER(rank_process_inbox);
extern LockRankLevel rank_thread_pool ACQUIRED_AFTER(rank_process_worker_io);
extern LockRankLevel rank_journal ACQUIRED_AFTER(rank_thread_pool);
extern LockRankLevel rank_store_groups ACQUIRED_AFTER(rank_journal);
extern LockRankLevel rank_store_pending_shard ACQUIRED_AFTER(rank_store_groups);
extern LockRankLevel rank_trace_recorder
    ACQUIRED_AFTER(rank_store_pending_shard);
extern LockRankLevel rank_metrics_registry ACQUIRED_AFTER(rank_trace_recorder);
extern LockRankLevel rank_log_sink ACQUIRED_AFTER(rank_metrics_registry);

namespace lockdep {

/// True when the checker is compiled into this build (HYPERTUNE_LOCKDEP).
bool CompiledIn();

/// Runtime kill switch, default on in checked builds. Tests flip it to
/// prove the disabled checker is a no-op; library code never touches it.
void SetEnabledForTesting(bool enabled);

/// Ranked locks the calling thread currently holds (0 when the checker is
/// compiled out or disabled). Test-only introspection.
int HeldRankedLocks();

/// Called by Mutex::Lock before blocking (checked builds only). Aborts with
/// both lock names when `rank` is at or below the highest rank already held
/// by this thread; records the acquisition otherwise. kUnranked is a no-op.
void OnAcquire(LockRank rank, const char* name);

/// Called by Mutex::Unlock after releasing (checked builds only). Drops the
/// most recent matching acquisition from the thread's stack.
void OnRelease(LockRank rank, const char* name);

}  // namespace lockdep
}  // namespace hypertune

#endif  // HYPERTUNE_COMMON_LOCK_ORDER_H_
