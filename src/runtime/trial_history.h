#ifndef HYPERTUNE_RUNTIME_TRIAL_HISTORY_H_
#define HYPERTUNE_RUNTIME_TRIAL_HISTORY_H_

#include <array>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "src/common/arena.h"
#include "src/runtime/job.h"

namespace hypertune {

/// A completed evaluation with its timing, as recorded by a cluster.
struct TrialRecord {
  Job job;
  EvalResult result;
  double start_time = 0.0;
  double end_time = 0.0;
  int worker = -1;
  /// For failures() records: how the last attempt died (meaningless for
  /// completed trials). Lets run_report break abandonments down by kind.
  FailureKind failure_kind = FailureKind::kCrash;
  /// True when the recorded completion came from a speculative duplicate
  /// that beat its straggling primary.
  bool speculative = false;
};

/// One point of the anytime curve: the incumbent after some completion.
struct CurvePoint {
  double time = 0.0;
  /// Best validation objective observed so far (any fidelity).
  double best_objective = std::numeric_limits<double>::infinity();
  /// Best validation objective among full-resource evaluations so far.
  double best_full_fidelity = std::numeric_limits<double>::infinity();
  /// Test metric of the incumbent (trial with best validation objective).
  double incumbent_test = std::numeric_limits<double>::infinity();
};

/// How much per-trial detail a TrialHistory keeps.
enum class TrialRetention {
  /// Every trial and failure record is materializable (default). The
  /// anytime curve gets one point per completion.
  kFull,
  /// Only aggregates: counts, total cost, and an improvement-only anytime
  /// curve. trials()/failures() are empty; best_objective(),
  /// BestObjectiveAt(), TimeToReach() and the counters stay exact. For
  /// simulations with millions of trials where O(trials) memory is the
  /// bottleneck, not the answer.
  kAggregates,
};

namespace internal {

/// Structure-of-arrays trial storage: one flat column per TrialRecord field,
/// with configuration vectors flattened into a chunked arena. Recording a
/// trial is a handful of column appends and one arena copy — no per-trial
/// heap allocation beyond amortized column growth.
struct TrialColumns {
  std::vector<int64_t> job_id;
  std::vector<int32_t> level;
  std::vector<int32_t> bracket;
  std::vector<int32_t> attempt;
  std::vector<int32_t> worker;
  std::vector<double> resource;
  std::vector<double> resume_from;
  std::vector<double> start_time;
  std::vector<double> end_time;
  std::vector<double> objective;
  std::vector<double> test_objective;
  std::vector<double> cost_seconds;
  std::vector<uint8_t> failure_kind;
  std::vector<uint8_t> speculative;
  std::vector<ChunkedPool<double>::Span> config;
  ChunkedPool<double> config_values;

  size_t size() const { return job_id.size(); }
  void Append(const TrialRecord& trial);
  TrialRecord Materialize(size_t i) const;
};

}  // namespace internal

/// Read-only view over a TrialColumns store that materializes TrialRecord
/// values on demand. Iterators return records *by value*; range-for with
/// `const TrialRecord&` binds the temporary as usual. The view is invalidated
/// by the next Record/RecordFailure on the owning history.
class TrialList {
 public:
  explicit TrialList(const internal::TrialColumns* columns)
      : columns_(columns) {}

  size_t size() const { return columns_->size(); }
  bool empty() const { return size() == 0; }
  TrialRecord operator[](size_t i) const { return columns_->Materialize(i); }
  TrialRecord front() const { return (*this)[0]; }
  TrialRecord back() const { return (*this)[size() - 1]; }

  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = TrialRecord;
    using difference_type = ptrdiff_t;
    using pointer = const TrialRecord*;
    using reference = TrialRecord;

    Iterator(const internal::TrialColumns* columns, size_t i)
        : columns_(columns), i_(i) {}
    TrialRecord operator*() const { return columns_->Materialize(i_); }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const Iterator& other) const { return i_ == other.i_; }
    bool operator!=(const Iterator& other) const { return i_ != other.i_; }

   private:
    const internal::TrialColumns* columns_;
    size_t i_;
  };

  Iterator begin() const { return Iterator(columns_, 0); }
  Iterator end() const { return Iterator(columns_, size()); }

 private:
  const internal::TrialColumns* columns_;
};

/// Accumulates completed trials and exposes the anytime (best-so-far)
/// optimization curve that the paper's figures plot, plus utilization
/// statistics for the scheduling experiments.
///
/// Storage is structure-of-arrays with configurations flattened into a
/// chunked arena (see internal::TrialColumns); trials()/failures() return
/// materializing views. Histories follow the backends' single-writer
/// discipline: they are written by one thread and read after the run.
class TrialHistory {
 public:
  TrialHistory() = default;

  /// Sets the retention policy. Must be called before the first record.
  void set_retention(TrialRetention retention);
  TrialRetention retention() const { return retention_; }

  /// Appends a completed trial; `is_full_fidelity` marks evaluations that
  /// used the maximum training resource.
  void Record(const TrialRecord& trial, bool is_full_fidelity);

  /// Appends a trial the runtime abandoned after exhausting its retries.
  /// The record carries the job plus the timing of the *last* failed
  /// attempt; its objective is +inf. Failures never touch the anytime
  /// curve — they exist for failure accounting and post-mortems.
  void RecordFailure(const TrialRecord& trial);

  TrialList trials() const { return TrialList(&trials_); }
  const std::vector<CurvePoint>& curve() const { return curve_; }

  /// Trials abandoned by the fault runtime (empty when faults are off).
  TrialList failures() const { return TrialList(&failures_); }

  size_t num_trials() const { return num_trials_; }
  size_t num_failures() const { return num_failures_; }

  /// Abandoned trials whose last attempt died with `kind`.
  size_t num_failures_of_kind(FailureKind kind) const;

  /// Best validation objective so far, +inf when empty.
  double best_objective() const;

  /// Best full-fidelity validation objective so far, +inf when none.
  double best_full_fidelity() const;

  /// Test metric of the incumbent, +inf when empty.
  double incumbent_test() const;

  /// Incumbent's anytime value at `time` (smallest best_objective among
  /// points with point.time <= time); +inf before the first completion.
  double BestObjectiveAt(double time) const;

  /// First time at which best_objective() <= target; +inf if never reached.
  double TimeToReach(double target) const;

  /// Sum of evaluation cost over all recorded trials (worker busy seconds).
  double TotalEvaluationCost() const;

 private:
  /// Folds `trial` into the anytime curve. kFull appends one point per
  /// completion; kAggregates appends only when an incumbent improves.
  void UpdateCurve(const TrialRecord& trial, bool is_full_fidelity);

  TrialRetention retention_ = TrialRetention::kFull;
  internal::TrialColumns trials_;
  internal::TrialColumns failures_;
  std::vector<CurvePoint> curve_;
  size_t num_trials_ = 0;
  size_t num_failures_ = 0;
  std::array<size_t, 3> failures_by_kind_ = {0, 0, 0};
  double total_cost_ = 0.0;
};

}  // namespace hypertune

#endif  // HYPERTUNE_RUNTIME_TRIAL_HISTORY_H_
