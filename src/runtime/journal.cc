#include "src/runtime/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "src/common/logging.h"

namespace hypertune {

namespace {

/// FNV-1a folding shared by ClusterFingerprint and RunResultDigest (and
/// pinned by the golden-history tests — the digest definitions must match
/// bit-for-bit).
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
};

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR.
bool WriteFully(int fd, const std::string& bytes) {
  const char* data = bytes.data();
  size_t left = bytes.size();
  while (left > 0) {
    const ssize_t written = ::write(fd, data, left);
    if (written < 0 && errno == EINTR) continue;
    if (written <= 0) return false;
    data += written;
    left -= static_cast<size_t>(written);
  }
  return true;
}

}  // namespace

const char* JournalRecordName(JournalRecord type) {
  switch (type) {
    case JournalRecord::kRunHeader:
      return "run_header";
    case JournalRecord::kDecision:
      return "decision";
    case JournalRecord::kLaunch:
      return "launch";
    case JournalRecord::kComplete:
      return "complete";
    case JournalRecord::kFailed:
      return "failed";
    case JournalRecord::kRequeue:
      return "requeue";
    case JournalRecord::kAbandon:
      return "abandon";
    case JournalRecord::kWorkerDeath:
      return "worker_death";
    case JournalRecord::kWorkerRecover:
      return "worker_recover";
    case JournalRecord::kQuarantineBegin:
      return "quarantine_begin";
    case JournalRecord::kQuarantineEnd:
      return "quarantine_end";
    case JournalRecord::kSpeculate:
      return "speculate";
    case JournalRecord::kCheckpoint:
      return "checkpoint";
    case JournalRecord::kRunEnd:
      return "run_end";
  }
  return "?";
}

uint64_t ClusterFingerprint(const ClusterOptions& options) {
  Fnv fnv;
  fnv.Mix(static_cast<uint64_t>(options.num_workers));
  fnv.MixDouble(options.time_budget_seconds);
  fnv.Mix(options.seed);
  fnv.MixDouble(options.straggler_sigma);
  fnv.Mix(static_cast<uint64_t>(options.max_trials));
  fnv.MixDouble(options.faults.crash_probability);
  fnv.MixDouble(options.faults.timeout_seconds);
  fnv.Mix(static_cast<uint64_t>(options.faults.max_retries));
  fnv.MixDouble(options.faults.retry_backoff_seconds);
  fnv.MixDouble(options.faults.max_retry_delay_seconds);
  fnv.MixDouble(options.faults.retry_jitter);
  fnv.MixDouble(options.worker_faults.mttf_seconds);
  fnv.MixDouble(options.worker_faults.mttr_seconds);
  fnv.MixDouble(options.worker_faults.permanent_death_probability);
  fnv.Mix(static_cast<uint64_t>(options.worker_faults.quarantine_failures));
  fnv.MixDouble(options.worker_faults.quarantine_seconds);
  fnv.MixDouble(options.speculation.speculation_factor);
  fnv.Mix(static_cast<uint64_t>(options.speculation.min_samples));
  fnv.Mix(static_cast<uint64_t>(options.retention));
  return fnv.hash;
}

uint64_t RunResultDigest(const RunResult& result) {
  Fnv fnv;
  for (const TrialRecord& t : result.history.trials()) {
    fnv.Mix(static_cast<uint64_t>(t.job.job_id));
    fnv.Mix(static_cast<uint64_t>(t.job.level));
    fnv.Mix(static_cast<uint64_t>(t.job.bracket));
    fnv.Mix(static_cast<uint64_t>(t.worker));
    fnv.MixDouble(t.job.resource);
    fnv.MixDouble(t.job.resume_from);
    fnv.MixDouble(t.start_time);
    fnv.MixDouble(t.end_time);
    fnv.MixDouble(t.result.objective);
    fnv.MixDouble(t.result.test_objective);
    fnv.MixDouble(t.result.cost_seconds);
    for (size_t d = 0; d < t.job.config.size(); ++d) {
      fnv.MixDouble(t.job.config[d]);
    }
  }
  for (const CurvePoint& p : result.history.curve()) {
    fnv.MixDouble(p.time);
    fnv.MixDouble(p.best_objective);
    fnv.MixDouble(p.best_full_fidelity);
    fnv.MixDouble(p.incumbent_test);
  }
  for (const TrialRecord& t : result.history.trials()) {
    fnv.Mix(t.speculative ? 1u : 0u);
  }
  for (const TrialRecord& t : result.history.failures()) {
    fnv.Mix(static_cast<uint64_t>(t.job.job_id));
    fnv.Mix(static_cast<uint64_t>(t.job.level));
    fnv.Mix(static_cast<uint64_t>(t.worker));
    fnv.Mix(static_cast<uint64_t>(t.failure_kind));
    fnv.MixDouble(t.start_time);
    fnv.MixDouble(t.end_time);
  }
  fnv.Mix(static_cast<uint64_t>(result.failed_attempts));
  fnv.Mix(static_cast<uint64_t>(result.retries));
  fnv.Mix(static_cast<uint64_t>(result.failed_trials));
  fnv.Mix(static_cast<uint64_t>(result.crash_attempts));
  fnv.Mix(static_cast<uint64_t>(result.timeout_attempts));
  fnv.Mix(static_cast<uint64_t>(result.worker_lost_attempts));
  fnv.Mix(static_cast<uint64_t>(result.worker_deaths));
  fnv.Mix(static_cast<uint64_t>(result.workers_lost_permanently));
  fnv.Mix(static_cast<uint64_t>(result.quarantines));
  fnv.Mix(static_cast<uint64_t>(result.speculative_attempts));
  fnv.Mix(static_cast<uint64_t>(result.speculative_wins));
  fnv.Mix(static_cast<uint64_t>(result.speculative_losses));
  fnv.MixDouble(result.wasted_seconds);
  fnv.MixDouble(result.worker_down_seconds);
  fnv.MixDouble(result.speculative_wasted_seconds);
  return fnv.hash;
}

Status JournalRecordTypeOf(const std::string& payload, JournalRecord* out) {
  WireDecoder dec(payload);
  uint8_t tag;
  HT_RETURN_IF_ERROR(dec.GetU8(&tag));
  if (tag < static_cast<uint8_t>(JournalRecord::kRunHeader) ||
      tag > static_cast<uint8_t>(JournalRecord::kRunEnd)) {
    return Status::InvalidArgument("journal: unknown record tag");
  }
  *out = static_cast<JournalRecord>(tag);
  return Status::Ok();
}

Status DecodeCheckpointRecord(const std::string& payload,
                              CheckpointRecord* out) {
  WireDecoder dec(payload);
  uint8_t tag;
  HT_RETURN_IF_ERROR(dec.GetU8(&tag));
  if (tag != static_cast<uint8_t>(JournalRecord::kCheckpoint)) {
    return Status::InvalidArgument("journal: not a checkpoint record");
  }
  CheckpointRecord rec;
  HT_RETURN_IF_ERROR(dec.GetF64(&rec.now));
  HT_RETURN_IF_ERROR(dec.GetI64(&rec.completions));
  HT_RETURN_IF_ERROR(dec.GetString(&rec.snapshot));
  HT_RETURN_IF_ERROR(dec.ExpectEnd("checkpoint record"));
  *out = std::move(rec);
  return Status::Ok();
}

Status DecodeCompleteRecord(const std::string& payload, CompleteRecord* out) {
  WireDecoder dec(payload);
  uint8_t tag;
  HT_RETURN_IF_ERROR(dec.GetU8(&tag));
  if (tag != static_cast<uint8_t>(JournalRecord::kComplete)) {
    return Status::InvalidArgument("journal: not a complete record");
  }
  CompleteRecord rec;
  HT_RETURN_IF_ERROR(dec.GetF64(&rec.now));
  HT_RETURN_IF_ERROR(DecodeJob(&dec, &rec.job));
  HT_RETURN_IF_ERROR(DecodeEvalResult(&dec, &rec.result));
  HT_RETURN_IF_ERROR(dec.GetI32(&rec.worker));
  HT_RETURN_IF_ERROR(dec.GetF64(&rec.start_time));
  HT_RETURN_IF_ERROR(dec.ExpectEnd("complete record"));
  *out = std::move(rec);
  return Status::Ok();
}

Result<std::unique_ptr<RunJournal>> RunJournal::Create(
    const std::string& path, uint64_t fingerprint, JournalOptions options) {
  std::unique_ptr<RunJournal> journal(
      new RunJournal(options, /*in_memory=*/false));
  {
    MutexLock lock(journal->mu_);
    journal->fd_ =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
    if (journal->fd_ < 0) {
      return Status::NotFound("journal: cannot open for writing: " + path);
    }
  }
  journal->WriteHeader(fingerprint);
  if (!journal->ok()) return journal->status();
  return journal;
}

std::unique_ptr<RunJournal> RunJournal::CreateInMemory(
    uint64_t fingerprint, JournalOptions options) {
  std::unique_ptr<RunJournal> journal(
      new RunJournal(options, /*in_memory=*/true));
  journal->WriteHeader(fingerprint);
  return journal;
}

Result<std::unique_ptr<RunJournal>> RunJournal::OpenForResume(
    const std::string& path, uint64_t fingerprint,
    const ObservabilityOptions& obs, JournalOptions options) {
  std::string bytes;
  HT_RETURN_IF_ERROR(ReadFileBytes(path, &bytes));
  Result<std::unique_ptr<RunJournal>> journal =
      ResumeCommon(bytes, fingerprint, obs, options, /*in_memory=*/false);
  if (!journal.ok()) return journal;
  // Drop the torn tail from the file itself so the resumed run appends from
  // the last clean byte. Safe under a double crash: only bytes the CRC scan
  // already rejected are discarded.
  if ((*journal)->bytes_dropped() > 0) {
    std::error_code ec;
    std::filesystem::resize_file(
        path, bytes.size() - static_cast<size_t>((*journal)->bytes_dropped()),
        ec);
    if (ec) {
      return Status::Internal("journal: cannot truncate torn tail of " +
                              path + ": " + ec.message());
    }
  }
  {
    MutexLock lock((*journal)->mu_);
    (*journal)->fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if ((*journal)->fd_ < 0) {
      return Status::NotFound("journal: cannot reopen for append: " + path);
    }
  }
  return journal;
}

Result<std::unique_ptr<RunJournal>> RunJournal::ResumeFromBytes(
    const std::string& bytes, uint64_t fingerprint,
    const ObservabilityOptions& obs, JournalOptions options) {
  return ResumeCommon(bytes, fingerprint, obs, options, /*in_memory=*/true);
}

Result<std::unique_ptr<RunJournal>> RunJournal::ResumeCommon(
    const std::string& bytes, uint64_t fingerprint,
    const ObservabilityOptions& obs, JournalOptions options, bool in_memory) {
  RecordScan scan = ScanRecords(bytes);
  if (scan.records.empty()) {
    return Status::DataLoss("journal: no intact records (" +
                            scan.tail.message() + ")");
  }

  // Validate the run header before anything else: a journal from a
  // differently configured run must never be replayed into this one.
  {
    WireDecoder dec(scan.records[0]);
    uint8_t tag;
    uint32_t version;
    uint64_t recorded;
    HT_RETURN_IF_ERROR(dec.GetU8(&tag));
    if (tag != static_cast<uint8_t>(JournalRecord::kRunHeader)) {
      return Status::InvalidArgument(
          "journal: first record is not a run header");
    }
    HT_RETURN_IF_ERROR(dec.GetU32(&version));
    if (version > kJournalFormatVersion) {
      return Status::InvalidArgument(
          "journal: written by a newer wire format version (" +
          std::to_string(version) + " > " +
          std::to_string(kJournalFormatVersion) + "); upgrade to read it");
    }
    if (version < kJournalFormatVersion) {
      return Status::InvalidArgument(
          "journal: format version " + std::to_string(version) +
          " predates this build's version " +
          std::to_string(kJournalFormatVersion) +
          ", whose checkpoints are encoded differently; it cannot be resumed");
    }
    HT_RETURN_IF_ERROR(dec.GetU64(&recorded));
    HT_RETURN_IF_ERROR(dec.ExpectEnd("run header"));
    if (recorded != fingerprint) {
      return Status::FailedPrecondition(
          "journal: run fingerprint mismatch — this journal belongs to a "
          "differently configured run");
    }
  }

  std::unique_ptr<RunJournal> journal(new RunJournal(options, in_memory));
  journal->obs_ = obs;
  journal->loaded_ = std::move(scan.records);
  journal->bytes_dropped_ =
      static_cast<int64_t>(bytes.size() - scan.clean_bytes);
  if (!scan.tail.ok()) {
    // The record being written when the driver died. Count it as one
    // dropped record (the partial frame) and surface it.
    journal->records_dropped_ = 1;
    if (obs.trace() != nullptr) {
      TraceEvent event;
      event.kind = TraceKind::kJournalTornTail;
      event.time = 0.0;
      event.name = scan.tail.message();
      event.value = static_cast<double>(journal->bytes_dropped_);
      obs.trace()->Record(std::move(event));
    }
    if (obs.metrics() != nullptr) {
      obs.metrics()->Increment("journal.torn_tail_records",
                               journal->records_dropped_);
      obs.metrics()->Increment("journal.torn_tail_bytes",
                               journal->bytes_dropped_);
    }
  }
  MutexLock lock(journal->mu_);
  if (in_memory) journal->buffer_ = bytes.substr(0, scan.clean_bytes);
  journal->replay_cursor_ = 1;  // header verified above
  journal->verified_ = 1;
  return journal;
}

RunJournal::~RunJournal() {
  MutexLock lock(mu_);
  if (fd_ >= 0) ::close(fd_);
}

void RunJournal::SetObservability(const ObservabilityOptions& obs) {
  obs_ = obs;
}

void RunJournal::MaybeFsyncLocked(uint8_t tag) {
  switch (options_.fsync_policy) {
    case FsyncPolicy::kNone:
      return;
    case FsyncPolicy::kOnCheckpoint:
      if (tag != static_cast<uint8_t>(JournalRecord::kCheckpoint) &&
          tag != static_cast<uint8_t>(JournalRecord::kRunEnd)) {
        return;
      }
      break;
    case FsyncPolicy::kEveryRecord:
      break;
  }
  if (::fsync(fd_) != 0) {
    status_ = Status::Internal("journal: fsync failed");
    return;
  }
  ++fsyncs_;
  if (obs_.metrics() != nullptr) {
    obs_.metrics()->Increment("journal.fsyncs");
  }
}

void RunJournal::WriteHeader(uint64_t fingerprint) {
  WireEncoder enc;
  enc.PutU8(static_cast<uint8_t>(JournalRecord::kRunHeader));
  enc.PutU32(kJournalFormatVersion);
  enc.PutU64(fingerprint);
  Commit(enc.Release());
}

void RunJournal::Commit(std::string payload) {
  MutexLock lock(mu_);
  CommitLocked(std::move(payload));
}

void RunJournal::CommitLocked(std::string payload) {
  if (!status_.ok()) return;  // latched: never append past a failure
  if (replay_cursor_ < loaded_.size()) {
    // Replay-verify: the re-executed run must regenerate the journal it is
    // resuming, byte for byte. Any divergence means this journal does not
    // describe this execution — stop before corrupting it.
    const std::string& expected = loaded_[replay_cursor_];
    if (payload != expected) {
      JournalRecord type = JournalRecord::kRunHeader;
      std::string name = JournalRecordTypeOf(expected, &type).ok()
                             ? JournalRecordName(type)
                             : "?";
      status_ = Status::DataLoss(
          "journal: replay diverged at record " +
          std::to_string(replay_cursor_) + " (expected " + name + ")");
      return;
    }
    ++replay_cursor_;
    ++verified_;
    if (replay_cursor_ == loaded_.size()) {
      // Replay finished; every append from here on extends the journal.
      if (obs_.trace() != nullptr) {
        TraceEvent event;
        event.kind = TraceKind::kJournalReplay;
        event.time = 0.0;
        event.value = static_cast<double>(verified_);
        obs_.trace()->Record(std::move(event));
      }
      if (obs_.metrics() != nullptr) {
        obs_.metrics()->Increment("journal.records_replayed", verified_);
      }
    }
    return;
  }
  if (in_memory_) {
    AppendRecord(payload, &buffer_);
  } else {
    frame_.clear();
    AppendRecord(payload, &frame_);
    if (!WriteFully(fd_, frame_)) {
      status_ = Status::Internal("journal: write to disk failed");
      return;
    }
    MaybeFsyncLocked(payload.empty() ? 0 : static_cast<uint8_t>(payload[0]));
    if (!status_.ok()) return;
  }
  ++appended_;
  if (obs_.metrics() != nullptr) {
    obs_.metrics()->Increment("journal.appended");
  }
}

void RunJournal::Decision(const Job& job, double now) {
  WireEncoder enc;
  enc.PutU8(static_cast<uint8_t>(JournalRecord::kDecision));
  enc.PutF64(now);
  EncodeJob(job, &enc);
  Commit(enc.Release());
}

void RunJournal::Launch(int64_t job_id, int attempt, int worker,
                        bool speculative, double duration, double now) {
  WireEncoder enc;
  enc.PutU8(static_cast<uint8_t>(JournalRecord::kLaunch));
  enc.PutF64(now);
  enc.PutI64(job_id);
  enc.PutI32(attempt);
  enc.PutI32(worker);
  enc.PutBool(speculative);
  enc.PutF64(duration);
  Commit(enc.Release());
}

void RunJournal::Complete(const Job& job, const EvalResult& result,
                          int worker, double start_time, double now) {
  WireEncoder enc;
  enc.PutU8(static_cast<uint8_t>(JournalRecord::kComplete));
  enc.PutF64(now);
  EncodeJob(job, &enc);
  EncodeEvalResult(result, &enc);
  enc.PutI32(worker);
  enc.PutF64(start_time);
  Commit(enc.Release());
}

void RunJournal::Failed(int64_t job_id, int attempt, FailureKind kind,
                        int worker, double wasted_seconds, double now) {
  WireEncoder enc;
  enc.PutU8(static_cast<uint8_t>(JournalRecord::kFailed));
  enc.PutF64(now);
  enc.PutI64(job_id);
  enc.PutI32(attempt);
  enc.PutU8(static_cast<uint8_t>(kind));
  enc.PutI32(worker);
  enc.PutF64(wasted_seconds);
  Commit(enc.Release());
}

void RunJournal::Requeue(int64_t job_id, int next_attempt, double ready_time,
                         double now) {
  WireEncoder enc;
  enc.PutU8(static_cast<uint8_t>(JournalRecord::kRequeue));
  enc.PutF64(now);
  enc.PutI64(job_id);
  enc.PutI32(next_attempt);
  enc.PutF64(ready_time);
  Commit(enc.Release());
}

void RunJournal::Abandon(int64_t job_id, int attempt, double now) {
  WireEncoder enc;
  enc.PutU8(static_cast<uint8_t>(JournalRecord::kAbandon));
  enc.PutF64(now);
  enc.PutI64(job_id);
  enc.PutI32(attempt);
  Commit(enc.Release());
}

void RunJournal::WorkerDeath(int worker, bool permanent, double now) {
  WireEncoder enc;
  enc.PutU8(static_cast<uint8_t>(JournalRecord::kWorkerDeath));
  enc.PutF64(now);
  enc.PutI32(worker);
  enc.PutBool(permanent);
  Commit(enc.Release());
}

void RunJournal::WorkerRecover(int worker, double now) {
  WireEncoder enc;
  enc.PutU8(static_cast<uint8_t>(JournalRecord::kWorkerRecover));
  enc.PutF64(now);
  enc.PutI32(worker);
  Commit(enc.Release());
}

void RunJournal::QuarantineBegin(int worker, double until, double now) {
  WireEncoder enc;
  enc.PutU8(static_cast<uint8_t>(JournalRecord::kQuarantineBegin));
  enc.PutF64(now);
  enc.PutI32(worker);
  enc.PutF64(until);
  Commit(enc.Release());
}

void RunJournal::QuarantineEnd(int worker, double now) {
  WireEncoder enc;
  enc.PutU8(static_cast<uint8_t>(JournalRecord::kQuarantineEnd));
  enc.PutF64(now);
  enc.PutI32(worker);
  Commit(enc.Release());
}

void RunJournal::Speculate(int64_t job_id, int worker, double now) {
  WireEncoder enc;
  enc.PutU8(static_cast<uint8_t>(JournalRecord::kSpeculate));
  enc.PutF64(now);
  enc.PutI64(job_id);
  enc.PutI32(worker);
  Commit(enc.Release());
}

void RunJournal::MaybeCheckpoint(const SchedulerInterface& scheduler,
                                 int64_t completions, double now) {
  if (options_.checkpoint_interval <= 0) return;
  std::shared_ptr<const std::string> base;
  {
    MutexLock lock(mu_);
    if (!status_.ok()) return;
    if (completions - last_checkpoint_completions_ <
        options_.checkpoint_interval) {
      return;
    }
    // Full image first and whenever completions have doubled since the
    // last one; otherwise a delta against the previous checkpoint.
    if (last_snapshot_ != nullptr &&
        completions < 2 * last_full_completions_) {
      base = last_snapshot_;
    }
  }
  // Snapshot outside the journal lock: the checkpoint fast path's prefix
  // facade (core/run_recovery) answers Snapshot() by consulting this
  // journal's replay cursor, which takes mu_.
  WireEncoder snapshot;
  snapshot.set_snapshot_base(base.get());
  Status snap = scheduler.Snapshot(&snapshot);
  if (!snap.ok()) return;  // scheduler declines; event stream still suffices
  MutexLock lock(mu_);
  if (!status_.ok()) return;
  if (completions - last_checkpoint_completions_ <
      options_.checkpoint_interval) {
    return;  // a concurrent caller checkpointed while we snapshotted
  }
  last_checkpoint_completions_ = completions;
  if (base == nullptr) last_full_completions_ = completions;
  const bool was_replaying = replay_cursor_ < loaded_.size();
  WireEncoder enc;
  enc.PutU8(static_cast<uint8_t>(JournalRecord::kCheckpoint));
  enc.PutF64(now);
  enc.PutI64(completions);
  enc.PutString(snapshot.bytes());
  CommitLocked(enc.Release());
  if (!status_.ok()) return;
  const double snapshot_bytes = static_cast<double>(snapshot.size());
  last_snapshot_ = std::make_shared<const std::string>(snapshot.Release());
  if (was_replaying) return;
  ++checkpoints_;
  if (obs_.trace() != nullptr) {
    TraceEvent event;
    event.kind = TraceKind::kJournalFlush;
    event.time = now;
    event.value = snapshot_bytes;
    obs_.trace()->Record(std::move(event));
  }
  if (obs_.metrics() != nullptr) {
    obs_.metrics()->Increment("journal.checkpoints");
  }
}

void RunJournal::RunEnd(const RunResult& result) {
  WireEncoder enc;
  enc.PutU8(static_cast<uint8_t>(JournalRecord::kRunEnd));
  enc.PutF64(result.elapsed_seconds);
  enc.PutU64(RunResultDigest(result));
  Commit(enc.Release());
}

bool RunJournal::ok() const {
  MutexLock lock(mu_);
  return status_.ok();
}

Status RunJournal::status() const {
  MutexLock lock(mu_);
  return status_;
}

bool RunJournal::replaying() const {
  MutexLock lock(mu_);
  return replay_cursor_ < loaded_.size();
}

int64_t RunJournal::records_appended() const {
  MutexLock lock(mu_);
  return appended_;
}

int64_t RunJournal::checkpoints_emitted() const {
  MutexLock lock(mu_);
  return checkpoints_;
}

int64_t RunJournal::fsyncs() const {
  MutexLock lock(mu_);
  return fsyncs_;
}

size_t RunJournal::replay_position() const {
  MutexLock lock(mu_);
  return replay_cursor_;
}

std::string RunJournal::bytes() const {
  HT_CHECK(in_memory_)
      << "RunJournal::bytes() serves in-memory journals; read the file of a "
         "file-backed one";
  MutexLock lock(mu_);
  return buffer_;
}

}  // namespace hypertune
