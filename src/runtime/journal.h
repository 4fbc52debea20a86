#ifndef HYPERTUNE_RUNTIME_JOURNAL_H_
#define HYPERTUNE_RUNTIME_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/obs/observability.h"
#include "src/runtime/job.h"
#include "src/runtime/scheduler_interface.h"
#include "src/runtime/simulated_cluster.h"
#include "src/runtime/wire_format.h"

namespace hypertune {

/// Write-ahead journal for cluster runs.
///
/// Every execution backend, through its attempt ledger, appends one framed
/// wire record (see runtime/wire_format.h) *before* applying each state
/// transition — scheduler decisions, launches, completions, failures,
/// requeues, abandonments, worker deaths/recoveries, quarantines,
/// speculative launches — the same log-then-apply layering production
/// schedulers use for their changelogs. Periodic checkpoint records embed the scheduler's
/// Snapshot() bytes so accumulated decision state is pinned, not just the
/// event stream.
///
/// Recovery exploits that a SimulatedCluster run is a pure function of its
/// options: resuming means re-running the simulation with the journal in
/// *replay-verify* mode. Every hook re-encodes its record and byte-compares
/// it against the next loaded record; any divergence latches a DataLoss
/// status and stops the run (the journal does not belong to this execution).
/// When the loaded records are exhausted the journal switches to live
/// append and the run continues — bit-identically, because the re-execution
/// regenerated exactly the prefix the journal witnessed. A torn or corrupt
/// tail (the record being written when the driver died) is detected by CRC
/// at open, dropped precisely, surfaced as an obs trace event + counters,
/// and truncated from the file so the resumed run appends from the last
/// clean byte.

/// Journal format version, written into the run header. Version 2 made
/// checkpoints a full image or a delta against the previous checkpoint
/// (see RunJournal::MaybeCheckpoint); version 3 gave both one encoding, a
/// full image being the change since empty rung logs; version 4 writes
/// each Rng in a snapshot as binary engine state (Rng::SerializeState);
/// version 5 drops the async scheduler's in-flight section, since every
/// job carries its bracket. A resume rejects any other version with a
/// Status that names both.
inline constexpr uint32_t kJournalFormatVersion = 5;

/// Tag byte identifying each journal record (first payload byte).
enum class JournalRecord : uint8_t {
  kRunHeader = 1,
  kDecision = 2,
  kLaunch = 3,
  kComplete = 4,
  kFailed = 5,
  kRequeue = 6,
  kAbandon = 7,
  kWorkerDeath = 8,
  kWorkerRecover = 9,
  kQuarantineBegin = 10,
  kQuarantineEnd = 11,
  kSpeculate = 12,
  kCheckpoint = 13,
  kRunEnd = 14,
};

/// Stable lowercase identifier ("decision", "complete", ...).
const char* JournalRecordName(JournalRecord type);

/// Hash of every run-defining knob in ClusterOptions (workers, budget,
/// seed, fault/speculation model, retention). Written into the journal's
/// run header and checked at resume, so a journal can never be replayed
/// against a differently configured run.
uint64_t ClusterFingerprint(const ClusterOptions& options);

/// Golden-history digest of a finished run: the same FNV-1a folding over
/// trials, curve points, failures, and fault counters that the golden
/// history tests pin. The journal's kRunEnd record carries it, and the
/// crash-point matrix asserts resumed runs reproduce it bit-for-bit.
uint64_t RunResultDigest(const RunResult& result);

/// Decoded payload of a kComplete journal record — enough to rebuild a
/// measurement store or trial history from the log alone.
struct CompleteRecord {
  Job job;
  EvalResult result;
  int worker = -1;
  double start_time = 0.0;
  double now = 0.0;
};

/// Decoded payload of a kCheckpoint journal record: the scheduler's
/// Snapshot() bytes (a full image or a delta) plus the completion count and
/// clock at which it was taken. The checkpoint fast path
/// (core/run_recovery) restores the newest full image and the deltas after
/// it instead of re-deciding the whole prefix.
struct CheckpointRecord {
  double now = 0.0;
  int64_t completions = 0;
  std::string snapshot;
};

/// Reads the tag byte of a journal record payload.
[[nodiscard]]
Status JournalRecordTypeOf(const std::string& payload, JournalRecord* out);

/// Decodes a kComplete payload (rejects other record types).
[[nodiscard]]
Status DecodeCompleteRecord(const std::string& payload, CompleteRecord* out);

/// Decodes a kCheckpoint payload (rejects other record types).
[[nodiscard]]
Status DecodeCheckpointRecord(const std::string& payload,
                              CheckpointRecord* out);

/// How aggressively a file-backed journal pushes appended records to
/// stable storage. Under every policy each record goes to the OS in one
/// write(2) before the transition it logs is applied; fsync is the extra
/// page-cache barrier.
enum class FsyncPolicy : uint8_t {
  kNone = 0,          // write only; a power loss may drop the OS-cached tail
  kOnCheckpoint = 1,  // fsync after kCheckpoint and kRunEnd records
  kEveryRecord = 2,   // fsync after every append (durability over latency)
};

struct JournalOptions {
  /// Completions between scheduler-snapshot checkpoint records; <= 0
  /// disables checkpointing (the event stream alone still suffices for
  /// replay-verify recovery). Schedulers whose Snapshot() declines are
  /// skipped silently. Whether a checkpoint is a full image or a delta
  /// follows from the completion counts alone (MaybeCheckpoint).
  int64_t checkpoint_interval = 64;

  /// Durability knob for file-backed journals (ignored in-memory). A crash
  /// between append and sync can still only lose a *suffix*: the CRC scan
  /// at resume truncates any partially persisted tail to a valid prefix.
  FsyncPolicy fsync_policy = FsyncPolicy::kNone;
};

/// Append/replay handle for one run's write-ahead journal. Created fresh
/// (Create / CreateInMemory) or from the bytes of a killed run's journal
/// (OpenForResume / ResumeFromBytes), then handed to the backend via
/// ClusterOptions::journal. Methods are internally synchronized so the
/// thread backend's workers may append concurrently. A file-backed journal
/// writes every record to its file with one write(2), framed in a reused
/// buffer, and keeps no copy of the stream; only an in-memory journal holds
/// it, in bytes(). Both keep the last checkpoint's snapshot, the base of
/// the next delta.
class RunJournal {
 public:
  /// Fresh file-backed journal; truncates `path` and writes the run header.
  [[nodiscard]] static Result<std::unique_ptr<RunJournal>> Create(
      const std::string& path, uint64_t fingerprint,
      JournalOptions options = {});

  /// Fresh in-memory journal (tests, benchmarks); bytes() is the stream.
  static std::unique_ptr<RunJournal> CreateInMemory(
      uint64_t fingerprint, JournalOptions options = {});

  /// Opens an existing journal for replay-verify resume. Validates the run
  /// header against `fingerprint`, drops (and truncates from the file) any
  /// torn tail — emitting kJournalTornTail plus counters on `obs` — and
  /// positions the journal to verify the loaded records against the
  /// re-executed run before switching to live append.
  [[nodiscard]] static Result<std::unique_ptr<RunJournal>> OpenForResume(
      const std::string& path, uint64_t fingerprint,
      const ObservabilityOptions& obs, JournalOptions options = {});

  /// OpenForResume for an in-memory byte stream (crash-point tests).
  [[nodiscard]] static Result<std::unique_ptr<RunJournal>> ResumeFromBytes(
      const std::string& bytes, uint64_t fingerprint,
      const ObservabilityOptions& obs, JournalOptions options = {});

  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;
  ~RunJournal();

  /// Installs the run's observability sink (the attempt ledger calls this
  /// at run start so journal flush/replay events land in the run's trace).
  void SetObservability(const ObservabilityOptions& obs);

  // --- Transition hooks, called log-then-apply by the attempt ledger only
  // (tools/lint.py enforces it). Each encodes one record and either
  // appends it or (while replaying) byte-verifies it against the loaded
  // stream. All `now` arguments are backend clock seconds (virtual on the
  // simulator).
  void Decision(const Job& job, double now) EXCLUDES(mu_);
  void Launch(int64_t job_id, int attempt, int worker, bool speculative,
              double duration, double now) EXCLUDES(mu_);
  void Complete(const Job& job, const EvalResult& result, int worker,
                double start_time, double now) EXCLUDES(mu_);
  void Failed(int64_t job_id, int attempt, FailureKind kind, int worker,
              double wasted_seconds, double now) EXCLUDES(mu_);
  void Requeue(int64_t job_id, int next_attempt, double ready_time,
               double now) EXCLUDES(mu_);
  void Abandon(int64_t job_id, int attempt, double now) EXCLUDES(mu_);
  void WorkerDeath(int worker, bool permanent, double now) EXCLUDES(mu_);
  void WorkerRecover(int worker, double now) EXCLUDES(mu_);
  void QuarantineBegin(int worker, double until, double now) EXCLUDES(mu_);
  void QuarantineEnd(int worker, double now) EXCLUDES(mu_);
  void Speculate(int64_t job_id, int worker, double now) EXCLUDES(mu_);

  /// Emits a kCheckpoint record embedding `scheduler`'s Snapshot() bytes
  /// every `checkpoint_interval` completions (and records a kJournalFlush
  /// trace event). No-op when the scheduler declines to snapshot. The
  /// first checkpoint asks for a full image, and so does every checkpoint
  /// at which completions have at least doubled since the last full one;
  /// every other checkpoint offers the previous checkpoint's snapshot as
  /// the base of a delta. Full images then sum to at most twice the newest
  /// one, so the journal grows linearly with the run, and a restore reads
  /// one full image plus deltas covering at most half the run.
  void MaybeCheckpoint(const SchedulerInterface& scheduler,
                       int64_t completions, double now) EXCLUDES(mu_);

  /// Seals the journal with the run's golden digest.
  void RunEnd(const RunResult& result) EXCLUDES(mu_);

  /// False once any append failed or replay-verify diverged; the backends
  /// stop the run rather than apply unjournaled transitions.
  bool ok() const EXCLUDES(mu_);
  [[nodiscard]] Status status() const EXCLUDES(mu_);

  /// True while loaded records are still being verified against the
  /// re-executed run (resume in progress).
  bool replaying() const EXCLUDES(mu_);

  int64_t records_appended() const EXCLUDES(mu_);
  /// Records dropped as a torn/corrupt tail at open (0 or the tail count).
  int64_t records_dropped() const { return records_dropped_; }
  int64_t bytes_dropped() const { return bytes_dropped_; }
  int64_t checkpoints_emitted() const EXCLUDES(mu_);
  /// fsync barriers issued (file-backed journals under a non-none policy).
  int64_t fsyncs() const EXCLUDES(mu_);

  /// Index into loaded_records() of the next record awaiting replay
  /// verification (== loaded_records().size() once replay has finished or
  /// for fresh journals). The checkpoint fast path keys its
  /// prefix-vs-suffix switch off this cursor.
  size_t replay_position() const EXCLUDES(mu_);

  /// Full serialized stream of an in-memory journal: the verified prefix
  /// plus everything appended. Aborts on a file-backed journal, whose
  /// stream is its file.
  std::string bytes() const EXCLUDES(mu_);

  /// Records loaded at resume (payloads, framing stripped), run header
  /// included. Empty for fresh journals. Store recovery walks these for
  /// kComplete records.
  const std::vector<std::string>& loaded_records() const {
    return loaded_;
  }

  const JournalOptions& options() const { return options_; }

 private:
  RunJournal(JournalOptions options, bool in_memory)
      : options_(options), in_memory_(in_memory) {}

  [[nodiscard]] static Result<std::unique_ptr<RunJournal>> ResumeCommon(
      const std::string& bytes, uint64_t fingerprint,
      const ObservabilityOptions& obs, JournalOptions options,
      bool in_memory);

  void WriteHeader(uint64_t fingerprint) EXCLUDES(mu_);
  /// Appends or replay-verifies one encoded payload.
  void Commit(std::string payload) EXCLUDES(mu_);
  void CommitLocked(std::string payload) REQUIRES(mu_);
  /// Issues the fsync barrier mandated by `fsync_policy` for a record with
  /// tag `tag` (no-op when the policy does not require one).
  void MaybeFsyncLocked(uint8_t tag) REQUIRES(mu_);

  const JournalOptions options_;
  const bool in_memory_;
  ObservabilityOptions obs_;  // set for resumed journals; null otherwise
  int64_t records_dropped_ = 0;
  int64_t bytes_dropped_ = 0;

  mutable Mutex mu_{LockRank::kJournal, "journal.stream"};
  Status status_ GUARDED_BY(mu_);
  std::vector<std::string> loaded_;  // written once before the run
  size_t replay_cursor_ GUARDED_BY(mu_) = 0;
  std::string buffer_ GUARDED_BY(mu_);  // in-memory stream, header included
  int fd_ GUARDED_BY(mu_) = -1;         // file-backed: writes and fsyncs
  std::string frame_ GUARDED_BY(mu_);   // file-backed: the record to write
  int64_t appended_ GUARDED_BY(mu_) = 0;
  int64_t verified_ GUARDED_BY(mu_) = 0;
  int64_t checkpoints_ GUARDED_BY(mu_) = 0;
  int64_t fsyncs_ GUARDED_BY(mu_) = 0;
  int64_t last_checkpoint_completions_ GUARDED_BY(mu_) = 0;
  int64_t last_full_completions_ GUARDED_BY(mu_) = 0;
  /// Snapshot bytes of the last checkpoint appended, verified or echoed;
  /// null before the first.
  std::shared_ptr<const std::string> last_snapshot_ GUARDED_BY(mu_);
};

}  // namespace hypertune

#endif  // HYPERTUNE_RUNTIME_JOURNAL_H_
