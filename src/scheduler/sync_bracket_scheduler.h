#ifndef HYPERTUNE_SCHEDULER_SYNC_BRACKET_SCHEDULER_H_
#define HYPERTUNE_SCHEDULER_SYNC_BRACKET_SCHEDULER_H_

#include <memory>

#include "src/allocator/bracket_selector.h"
#include "src/optimizer/sampler.h"
#include "src/runtime/measurement_store.h"
#include "src/runtime/scheduler_interface.h"
#include "src/scheduler/bracket.h"

namespace hypertune {

/// Options shared by the bracket schedulers.
struct BracketSchedulerOptions {
  ResourceLadder ladder;
  /// Bracket sequencing policy: kFixed(1) yields SHA/ASHA, kRoundRobin
  /// yields Hyperband/BOHB/MFES-HB outer loops, kLearned is Hyper-Tune's
  /// bracket selection.
  BracketSelectorOptions selector;
  /// Async only: D-ASHA's delayed promotion (Algorithm 1).
  bool delayed_promotion = false;
};

/// Restores a BracketSelector::Snapshot() followed by a
/// Sampler::SnapshotState() from `dec`, all or nothing: on failure both
/// are as they were. The bracket schedulers write these two last and
/// decode everything else first, so a rejected snapshot leaves them
/// unchanged.
[[nodiscard]] Status RestoreSelectorAndSampler(WireDecoder* dec,
                                               BracketSelector* selector,
                                               Sampler* sampler);

/// Synchronous execution of SHA brackets (SHA, Hyperband, BOHB, MFES-HB).
///
/// One bracket runs at a time. Within a rung, evaluations proceed in
/// parallel; when a rung still has unfinished evaluations and no further
/// configurations can be issued, NextJob returns nullopt — workers idle at
/// the synchronization barrier exactly as in Figure 1. When a bracket
/// completes, the selector picks the next one and the process repeats until
/// the external budget stops the run.
class SyncBracketScheduler : public SchedulerInterface {
 public:
  /// `space`, `store`, `sampler` are borrowed and must outlive the
  /// scheduler. `weights` may be null unless the selector policy is
  /// kLearned.
  SyncBracketScheduler(const ConfigurationSpace* space,
                       MeasurementStore* store, Sampler* sampler,
                       FidelityWeights* weights,
                       BracketSchedulerOptions options);

  std::optional<Job> NextJob() override;
  void OnJobComplete(const Job& job, const EvalResult& result) override;
  /// Requeues up to the retry cap; an abandoned job is removed from its
  /// rung so the synchronization barrier drains around the failed member
  /// (Figure 1's barrier must never wait on a dead worker).
  bool OnJobFailed(const Job& job, const FailureInfo& info) override;
  bool Exhausted() const override { return false; }
  /// Audits the running bracket's rung accounting (see
  /// Bracket::CheckInvariants).
  void CheckInvariants() const override;
  /// Records promotions and sampled configs; forwards the sink to the
  /// sampler.
  void SetObservability(Observability* sink) override;

  /// Serializes the scheduler's complete mutable state — counters, the
  /// running bracket (if any), bracket selector and sampler RNG — for
  /// journal checkpoints and warm starts. Always a full image, the running
  /// bracket encoded against empty rungs: it is bounded by one bracket, so
  /// a snapshot base is ignored. The measurement store is shared runtime
  /// infrastructure and is persisted separately (store_io).
  [[nodiscard]] Status Snapshot(WireEncoder* enc) const override;
  /// Restores a Snapshot() image onto a freshly constructed, identically
  /// configured scheduler. A rejected image leaves the scheduler
  /// unchanged.
  [[nodiscard]] Status Restore(WireDecoder* dec) override;

  /// Trials abandoned by the fault runtime.
  int64_t trials_failed() const { return trials_failed_; }

  /// Index of the bracket currently executing (0 before the first).
  int current_bracket() const { return current_index_; }

  /// Brackets completed so far.
  int64_t brackets_completed() const { return brackets_completed_; }

 private:
  void StartNextBracket();

  const ConfigurationSpace* space_;
  MeasurementStore* store_;
  Sampler* sampler_;
  BracketSchedulerOptions options_;
  BracketSelector selector_;

  std::unique_ptr<Bracket> bracket_;
  int current_index_ = 0;
  int64_t next_job_id_ = 0;
  int64_t brackets_completed_ = 0;
  int64_t trials_failed_ = 0;
  Observability* obs_ = nullptr;  // null = observability off
};

}  // namespace hypertune

#endif  // HYPERTUNE_SCHEDULER_SYNC_BRACKET_SCHEDULER_H_
