#include "src/runtime/trial_history.h"

#include <algorithm>

#include "src/common/logging.h"

namespace hypertune {
namespace internal {

void TrialColumns::Append(const TrialRecord& trial) {
  job_id.push_back(trial.job.job_id);
  level.push_back(trial.job.level);
  bracket.push_back(trial.job.bracket);
  attempt.push_back(trial.job.attempt);
  worker.push_back(trial.worker);
  resource.push_back(trial.job.resource);
  resume_from.push_back(trial.job.resume_from);
  start_time.push_back(trial.start_time);
  end_time.push_back(trial.end_time);
  objective.push_back(trial.result.objective);
  test_objective.push_back(trial.result.test_objective);
  cost_seconds.push_back(trial.result.cost_seconds);
  failure_kind.push_back(static_cast<uint8_t>(trial.failure_kind));
  speculative.push_back(trial.speculative ? 1 : 0);
  const std::vector<double>& values = trial.job.config.values();
  config.push_back(config_values.Append(values.data(), values.size()));
}

TrialRecord TrialColumns::Materialize(size_t i) const {
  TrialRecord out;
  out.job.job_id = job_id[i];
  out.job.level = level[i];
  out.job.bracket = bracket[i];
  out.job.attempt = attempt[i];
  out.job.resource = resource[i];
  out.job.resume_from = resume_from[i];
  const ChunkedPool<double>::Span& span = config[i];
  const double* data = config_values.Data(span);
  out.job.config = Configuration(std::vector<double>(data, data + span.length));
  out.worker = worker[i];
  out.start_time = start_time[i];
  out.end_time = end_time[i];
  out.result.objective = objective[i];
  out.result.test_objective = test_objective[i];
  out.result.cost_seconds = cost_seconds[i];
  out.failure_kind = static_cast<FailureKind>(failure_kind[i]);
  out.speculative = speculative[i] != 0;
  return out;
}

}  // namespace internal

void TrialHistory::set_retention(TrialRetention retention) {
  HT_CHECK(num_trials_ == 0 && num_failures_ == 0)
      << "retention must be set before the first record";
  retention_ = retention;
}

void TrialHistory::UpdateCurve(const TrialRecord& trial,
                               bool is_full_fidelity) {
  CurvePoint point;
  if (!curve_.empty()) point = curve_.back();
  point.time = trial.end_time;
  bool improved = false;
  if (trial.result.objective < point.best_objective) {
    point.best_objective = trial.result.objective;
    point.incumbent_test = trial.result.test_objective;
    improved = true;
  }
  if (is_full_fidelity && trial.result.objective < point.best_full_fidelity) {
    point.best_full_fidelity = trial.result.objective;
    improved = true;
  }
  // Full retention keeps one point per completion (the per-trial anytime
  // curve the figures plot); aggregates retention keeps only incumbent
  // improvements, which preserves every BestObjectiveAt/TimeToReach answer
  // in O(improvements) memory.
  if (retention_ == TrialRetention::kFull || improved) {
    curve_.push_back(point);
  }
}

void TrialHistory::Record(const TrialRecord& trial, bool is_full_fidelity) {
  ++num_trials_;
  total_cost_ += trial.result.cost_seconds;
  UpdateCurve(trial, is_full_fidelity);
  if (retention_ != TrialRetention::kFull) return;
  trials_.Append(trial);
}

void TrialHistory::RecordFailure(const TrialRecord& trial) {
  ++num_failures_;
  ++failures_by_kind_[static_cast<size_t>(trial.failure_kind)];
  if (retention_ != TrialRetention::kFull) return;
  TrialRecord failed = trial;
  failed.result.objective = std::numeric_limits<double>::infinity();
  failures_.Append(failed);
}

size_t TrialHistory::num_failures_of_kind(FailureKind kind) const {
  return failures_by_kind_[static_cast<size_t>(kind)];
}

double TrialHistory::best_objective() const {
  return curve_.empty() ? std::numeric_limits<double>::infinity()
                        : curve_.back().best_objective;
}

double TrialHistory::best_full_fidelity() const {
  return curve_.empty() ? std::numeric_limits<double>::infinity()
                        : curve_.back().best_full_fidelity;
}

double TrialHistory::incumbent_test() const {
  return curve_.empty() ? std::numeric_limits<double>::infinity()
                        : curve_.back().incumbent_test;
}

double TrialHistory::BestObjectiveAt(double time) const {
  // Curve points are ordered by completion time; find the last point at or
  // before `time`.
  auto it = std::upper_bound(
      curve_.begin(), curve_.end(), time,
      [](double t, const CurvePoint& p) { return t < p.time; });
  if (it == curve_.begin()) return std::numeric_limits<double>::infinity();
  return std::prev(it)->best_objective;
}

double TrialHistory::TimeToReach(double target) const {
  for (const CurvePoint& p : curve_) {
    if (p.best_objective <= target) return p.time;
  }
  return std::numeric_limits<double>::infinity();
}

double TrialHistory::TotalEvaluationCost() const { return total_cost_; }

}  // namespace hypertune
