#ifndef HYPERTUNE_SCHEDULER_ASYNC_BRACKET_SCHEDULER_H_
#define HYPERTUNE_SCHEDULER_ASYNC_BRACKET_SCHEDULER_H_

#include <memory>
#include <vector>

#include "src/allocator/bracket_selector.h"
#include "src/optimizer/sampler.h"
#include "src/runtime/measurement_store.h"
#include "src/runtime/scheduler_interface.h"
#include "src/scheduler/bracket.h"
#include "src/scheduler/sync_bracket_scheduler.h"  // BracketSchedulerOptions

namespace hypertune {

/// Asynchronous bracket execution: ASHA, D-ASHA, A-Hyperband, A-BOHB, and
/// the evaluation scheduler of Hyper-Tune itself.
///
/// One *persistent* bracket exists per initial resource level (as in the
/// reference Hyper-Tune/ASHA systems): bracket b's rungs cover levels
/// [b, K] and grow for the whole run, so promotions always pick from the
/// full set of results collected at a rung — the asynchronous analogue of
/// Hyperband's repeated brackets.
///
/// NextJob never blocks (no synchronization barrier):
///   1. scan every bracket, highest rung first, for a promotion eligible
///      under the configured rule — plain ASHA top-1/eta or D-ASHA's
///      delayed condition (Algorithm 1, lines 5-11);
///   2. otherwise admit a fresh sampler configuration at the base level of
///      the bracket chosen by the selector (fixed(1) = ASHA/D-ASHA,
///      round-robin = A-Hyperband/A-BOHB, learned = Hyper-Tune §4.1) —
///      Algorithm 1, lines 13-14.
/// Workers therefore always receive work, which is precisely the
/// utilization advantage over the synchronous methods (Figures 1 and 4).
class AsyncBracketScheduler : public SchedulerInterface {
 public:
  AsyncBracketScheduler(const ConfigurationSpace* space,
                        MeasurementStore* store, Sampler* sampler,
                        FidelityWeights* weights,
                        BracketSchedulerOptions options);

  std::optional<Job> NextJob() override;
  void OnJobComplete(const Job& job, const EvalResult& result) override;
  /// Requeues up to the retry cap; an abandoned job is dropped from its
  /// bracket's rung accounting (a failed promotion candidate is never
  /// re-promoted, and D-ASHA's delay condition sees the corrected |issued|).
  bool OnJobFailed(const Job& job, const FailureInfo& info) override;
  bool Exhausted() const override { return false; }
  /// Audits every bracket's rung accounting.
  void CheckInvariants() const override;
  /// Records promotions and sampled configs; forwards the sink to the
  /// sampler.
  void SetObservability(Observability* sink) override;

  /// Serializes the scheduler's mutable state — counters, every persistent
  /// bracket, bracket selector and sampler RNG — for journal checkpoints and
  /// warm starts. In-flight jobs need no routing table: each carries its
  /// bracket (Job::bracket). Every snapshot leads with its rung log sizes
  /// and those of the state it extends: given a snapshot base whose rung
  /// logs this state extends, that base (a delta: the rung results, closed
  /// nodes and promotions appended since, and the bounded rest whole);
  /// otherwise empty rung logs, which makes the full image. The measurement
  /// store is shared runtime infrastructure and is persisted separately
  /// (store_io).
  [[nodiscard]] Status Snapshot(WireEncoder* enc) const override;
  /// Applies a snapshot on top of exactly the rung counts it extends: a
  /// full image onto a freshly constructed, identically configured
  /// scheduler, a delta onto the state its base restored to. Anything else
  /// is rejected, and a rejected snapshot leaves the scheduler unchanged.
  [[nodiscard]] Status Restore(WireDecoder* dec) override;

  /// Number of promotions issued so far (for sample-efficiency studies).
  int64_t promotions_issued() const { return promotions_issued_; }

  /// Trials abandoned by the fault runtime.
  int64_t trials_failed() const { return trials_failed_; }

  /// Base-level admissions per bracket index (for allocation studies).
  std::vector<int64_t> admissions_per_bracket() const;

 private:
  /// The bracket that issued `job`, read from Job::bracket; aborts, naming
  /// the bracket, when this scheduler holds no such bracket.
  Bracket* BracketOf(const Job& job) const;

  const ConfigurationSpace* space_;
  MeasurementStore* store_;
  Sampler* sampler_;
  BracketSchedulerOptions options_;
  BracketSelector selector_;

  /// Index b-1 <-> bracket b; under kFixed, the one bracket at index 0.
  std::vector<std::unique_ptr<Bracket>> brackets_;
  int64_t next_job_id_ = 0;
  int64_t promotions_issued_ = 0;
  int64_t trials_failed_ = 0;
  Observability* obs_ = nullptr;  // null = observability off
};

}  // namespace hypertune

#endif  // HYPERTUNE_SCHEDULER_ASYNC_BRACKET_SCHEDULER_H_
