#include "src/core/run_recovery.h"

#include <memory>
#include <utility>
#include <vector>

namespace hypertune {
namespace {

/// Serves the pre-checkpoint prefix of a resumed run from the journal
/// itself, so the real scheduler never re-decides it. The simulator calls
/// this facade exactly where it would call the scheduler; while the
/// journal's replay cursor is at or before the restored checkpoint the
/// answers are decoded from the loaded records (which the subsequent
/// journal hook then re-encodes and byte-verifies — divergence detection is
/// identical to full replay), and once the cursor passes the checkpoint
/// every call delegates to the Restore()d real scheduler.
///
/// The shared MeasurementStore is mirrored while in the prefix — AddPending
/// on every issued decision, RemovePending + Add on every completion,
/// nothing on abandonment — which is exactly the store discipline all three
/// schedulers follow, so at the switch point the store holds the state the
/// checkpoint snapshot was taken against (snapshots deliberately exclude
/// store contents; see scheduler Snapshot() implementations).
class JournalPrefixScheduler : public SchedulerInterface {
 public:
  JournalPrefixScheduler(RunJournal* journal, SchedulerInterface* real,
                         MeasurementStore* store, size_t switch_index)
      : journal_(journal),
        real_(real),
        store_(store),
        switch_index_(switch_index) {}

  std::optional<Job> NextJob() override {
    if (!InPrefix()) return real_->NextJob();
    const std::string* next = Peek();
    if (next == nullptr) return std::nullopt;
    JournalRecord type;
    if (!JournalRecordTypeOf(*next, &type).ok() ||
        type != JournalRecord::kDecision) {
      // The real run issued no job at this point: a NextJob that returns a
      // job is immediately followed by its kDecision record, so a next
      // record of any other type proves this call answered nullopt.
      return std::nullopt;
    }
    WireDecoder dec(*next);
    uint8_t tag = 0;
    double now = 0.0;
    Job job;
    if (!dec.GetU8(&tag).ok() || !dec.GetF64(&now).ok() ||
        !DecodeJob(&dec, &job).ok()) {
      // Malformed decision record; answering nullopt makes the regenerated
      // stream diverge and replay-verify latch DataLoss.
      return std::nullopt;
    }
    if (store_ != nullptr && job.level >= 1 &&
        job.level <= store_->num_levels()) {
      store_->AddPending(job.config, job.level);
    }
    return job;
  }

  void OnJobComplete(const Job& job, const EvalResult& result) override {
    if (!InPrefix()) {
      real_->OnJobComplete(job, result);
      return;
    }
    if (store_ != nullptr) {
      store_->RemovePending(job.config, job.level);
      store_->Add(job.level, job.config, result.objective);
    }
  }

  bool OnJobFailed(const Job& job, const FailureInfo& info) override {
    if (!InPrefix()) return real_->OnJobFailed(job, info);
    // The kFailed record was just verified; the very next record is the
    // verdict the real scheduler gave (no hook runs in between).
    const std::string* next = Peek();
    if (next != nullptr) {
      JournalRecord type;
      if (JournalRecordTypeOf(*next, &type).ok() &&
          type == JournalRecord::kRequeue) {
        return true;
      }
    }
    // kAbandon — or a malformed journal, which the subsequent replay-verify
    // byte compare rejects either way. Abandoned configs stay pending for
    // median imputation, matching every scheduler's abandonment path.
    return false;
  }

  bool Exhausted() const override {
    // The prefix continues past this call in the journal, so the real run's
    // scheduler answered false whenever the backend consulted it here.
    if (!InPrefix()) return real_->Exhausted();
    return false;
  }

  void CheckInvariants() const override {
    if (!InPrefix()) real_->CheckInvariants();
  }

  void SetObservability(Observability* sink) override {
    real_->SetObservability(sink);
  }

  [[nodiscard]] Status Snapshot(WireEncoder* enc) const override {
    if (!InPrefix()) return real_->Snapshot(enc);
    // MaybeCheckpoint only resets its interval when Snapshot succeeds, so
    // echoing the stored bytes exactly when the next record is a checkpoint
    // — and declining otherwise — reproduces the real run's checkpoint
    // cadence bit-for-bit.
    const std::string* next = Peek();
    if (next != nullptr) {
      CheckpointRecord rec;
      if (DecodeCheckpointRecord(*next, &rec).ok()) {
        enc->PutRaw(rec.snapshot);
        return Status::Ok();
      }
    }
    return Status::Unimplemented(
        "fast path: the real run wrote no checkpoint here");
  }

 private:
  bool InPrefix() const {
    return journal_->replay_position() <= switch_index_;
  }

  const std::string* Peek() const {
    const size_t pos = journal_->replay_position();
    const std::vector<std::string>& loaded = journal_->loaded_records();
    if (pos >= loaded.size()) return nullptr;
    return &loaded[pos];
  }

  RunJournal* const journal_;
  SchedulerInterface* const real_;
  MeasurementStore* const store_;
  const size_t switch_index_;
};

struct FastPathPlan {
  bool engaged = false;
  size_t switch_index = 0;  // loaded-record index of the last one applied
  int64_t deltas_applied = 0;
};

Status RestoreCheckpoint(const std::string& record,
                         SchedulerInterface* scheduler) {
  CheckpointRecord rec;
  HT_RETURN_IF_ERROR(DecodeCheckpointRecord(record, &rec));
  WireDecoder dec(rec.snapshot);
  return scheduler->Restore(&dec);
}

/// Restores `scheduler` from the journal's newest checkpoint *chain*: the
/// newest checkpoint that restores on the fresh scheduler — a full image,
/// since a delta applies only on top of the state it extends — then the
/// checkpoints after it in order until one fails. Restore leaves the
/// scheduler unchanged on failure, so a torn or unrestorable delta walks
/// back to its predecessor, a rejected full image to the chain before it,
/// and with nothing restorable the caller falls back to full replay on the
/// still-fresh scheduler.
FastPathPlan PlanFastPath(const RunJournal& journal,
                          SchedulerInterface* scheduler) {
  const std::vector<std::string>& loaded = journal.loaded_records();
  FastPathPlan plan;
  std::vector<size_t> checkpoints;
  for (size_t i = 1; i < loaded.size(); ++i) {
    JournalRecord type;
    if (JournalRecordTypeOf(loaded[i], &type).ok() &&
        type == JournalRecord::kCheckpoint) {
      checkpoints.push_back(i);
    }
  }
  size_t next = checkpoints.size();
  while (next > 0 && !plan.engaged) {
    --next;
    if (RestoreCheckpoint(loaded[checkpoints[next]], scheduler).ok()) {
      plan.engaged = true;
      plan.switch_index = checkpoints[next];
    }
  }
  if (!plan.engaged) return plan;
  for (++next; next < checkpoints.size(); ++next) {
    if (!RestoreCheckpoint(loaded[checkpoints[next]], scheduler).ok()) break;
    plan.switch_index = checkpoints[next];
    ++plan.deltas_applied;
  }
  return plan;
}

Result<RunResult> RunWithJournal(std::unique_ptr<RunJournal> journal,
                                 ClusterOptions options,
                                 SchedulerInterface* scheduler,
                                 const TuningProblem& problem,
                                 const ResumeOptions& resume,
                                 std::string* final_journal) {
  SchedulerInterface* driver = scheduler;
  std::unique_ptr<JournalPrefixScheduler> facade;
  if (resume.store != nullptr) {
    FastPathPlan plan = PlanFastPath(*journal, scheduler);
    if (plan.engaged) {
      facade = std::make_unique<JournalPrefixScheduler>(
          journal.get(), scheduler, resume.store, plan.switch_index);
      driver = facade.get();
      if (options.obs.metrics() != nullptr) {
        options.obs.metrics()->Increment("journal.checkpoint_restored");
        options.obs.metrics()->Increment("journal.checkpoint_deltas_applied",
                                         plan.deltas_applied);
        options.obs.metrics()->Increment(
            "journal.replayed_suffix_records",
            static_cast<int64_t>(journal->loaded_records().size() -
                                 plan.switch_index - 1));
      }
    }
  }
  options.journal = journal.get();
  SimulatedCluster cluster(options);
  RunResult result = cluster.Run(driver, problem);
  // A replay divergence or append failure latched the journal and stopped
  // the run early; surface it instead of a silently truncated result.
  if (!journal->ok()) return journal->status();
  if (journal->replaying()) {
    return Status::DataLoss(
        "resume: run ended before the journal was fully replayed (the "
        "journal belongs to a longer run than this configuration produces)");
  }
  if (final_journal != nullptr) *final_journal = journal->bytes();
  return result;
}

}  // namespace

Result<RunResult> ResumeRun(const std::string& journal_path,
                            ClusterOptions options,
                            SchedulerInterface* scheduler,
                            const TuningProblem& problem,
                            JournalOptions journal_options,
                            ResumeOptions resume) {
  Result<std::unique_ptr<RunJournal>> journal = RunJournal::OpenForResume(
      journal_path, ClusterFingerprint(options), options.obs,
      journal_options);
  if (!journal.ok()) return journal.status();
  return RunWithJournal(std::move(journal).value(), std::move(options),
                        scheduler, problem, resume,
                        /*final_journal=*/nullptr);
}

Result<RunResult> ResumeRunFromBytes(const std::string& journal_bytes,
                                     ClusterOptions options,
                                     SchedulerInterface* scheduler,
                                     const TuningProblem& problem,
                                     JournalOptions journal_options,
                                     std::string* final_journal,
                                     ResumeOptions resume) {
  Result<std::unique_ptr<RunJournal>> journal = RunJournal::ResumeFromBytes(
      journal_bytes, ClusterFingerprint(options), options.obs,
      journal_options);
  if (!journal.ok()) return journal.status();
  return RunWithJournal(std::move(journal).value(), std::move(options),
                        scheduler, problem, resume, final_journal);
}

Status RecoverStoreFromJournal(const RunJournal& journal,
                               MeasurementStore* store) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  for (const std::string& payload : journal.loaded_records()) {
    JournalRecord type;
    HT_RETURN_IF_ERROR(JournalRecordTypeOf(payload, &type));
    if (type != JournalRecord::kComplete) continue;
    CompleteRecord record;
    HT_RETURN_IF_ERROR(DecodeCompleteRecord(payload, &record));
    if (record.job.level < 1 || record.job.level > store->num_levels()) {
      return Status::InvalidArgument(
          "journal completion has a level outside the target store's range");
    }
    store->Add(record.job.level, record.job.config, record.result.objective);
  }
  return Status::Ok();
}

}  // namespace hypertune
