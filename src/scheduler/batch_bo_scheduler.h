#ifndef HYPERTUNE_SCHEDULER_BATCH_BO_SCHEDULER_H_
#define HYPERTUNE_SCHEDULER_BATCH_BO_SCHEDULER_H_

#include "src/optimizer/sampler.h"
#include "src/runtime/measurement_store.h"
#include "src/runtime/scheduler_interface.h"

namespace hypertune {

/// Options for the complete-evaluation schedulers.
struct BatchBoSchedulerOptions {
  /// Synchronous batch mode: issue `batch_size` evaluations, then barrier
  /// until all of them finish (the Batch-BO baseline). Asynchronous mode
  /// hands a new configuration to every idle worker immediately
  /// (A-Random / A-BO / A-REA baselines).
  bool synchronous = false;
  int batch_size = 8;
  /// The full training resource R charged per evaluation.
  double resource = 1.0;
  /// Measurement-store level results are recorded at (use K).
  int level = 1;
};

/// Scheduler for complete-evaluation methods: every configuration is
/// trained with the full resource R; the sampler (random, BO, REA, ...)
/// supplies configurations. Parallel proposals rely on the sampler's
/// median-imputation handling of pending configurations (Algorithm 2).
class BatchBoScheduler : public SchedulerInterface {
 public:
  BatchBoScheduler(MeasurementStore* store, Sampler* sampler,
                   BatchBoSchedulerOptions options);

  std::optional<Job> NextJob() override;
  void OnJobComplete(const Job& job, const EvalResult& result) override;
  /// Requeues up to the retry cap; an abandoned configuration stays in the
  /// pending set, so Algorithm 2's median imputation keeps penalizing it —
  /// the BO sampler treats a crashing configuration like a mediocre one and
  /// moves elsewhere. Sync batches drain without the failed member.
  bool OnJobFailed(const Job& job, const FailureInfo& info) override;
  bool Exhausted() const override { return false; }
  /// Audits the batch accounting: outstanding evaluations never negative
  /// and, in synchronous mode, bounded by the batch issue counter, which
  /// itself never exceeds the configured batch size.
  void CheckInvariants() const override;
  /// Records sampled configs; forwards the sink to the sampler.
  void SetObservability(Observability* sink) override;

  /// Serializes the scheduler's mutable state (job/batch counters and the
  /// sampler RNG) for journal checkpoints and warm starts. The measurement
  /// store is shared runtime infrastructure and is persisted separately.
  [[nodiscard]] Status Snapshot(WireEncoder* enc) const override;
  /// Restores a Snapshot() image onto a freshly constructed, identically
  /// configured scheduler. The sampler state is read last, so a rejected
  /// image leaves the scheduler unchanged.
  [[nodiscard]] Status Restore(WireDecoder* dec) override;

  /// Trials abandoned by the fault runtime.
  int64_t trials_failed() const { return trials_failed_; }

 private:
  MeasurementStore* store_;
  Sampler* sampler_;
  BatchBoSchedulerOptions options_;
  int64_t next_job_id_ = 0;
  int issued_in_batch_ = 0;
  int outstanding_ = 0;
  int64_t trials_failed_ = 0;
  Observability* obs_ = nullptr;  // null = observability off
};

}  // namespace hypertune

#endif  // HYPERTUNE_SCHEDULER_BATCH_BO_SCHEDULER_H_
