#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Timing/counting decorators around the public interface of each layer the
// benchmark traces: TuningProblem (problems), Sampler (optimizer) and
// SchedulerInterface (scheduler; also wrapped around the contract checker).
// Every decorator forwards every virtual to the wrapped object unchanged,
// so a traced run makes exactly the decisions of an untraced one
// (perfbench_forwarding_test.cc pins the forwarding).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/optimizer/sampler.h"
#include "src/problems/problem.h"
#include "src/runtime/scheduler_interface.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall time no decorator may charge to the layer it wraps. The shadow
/// probes run inside Sample() (so every enclosing timer is open) but are
/// not work the program does; each timer subtracts what accrued here while
/// it was open.
struct ExcludedTime {
  int64_t ns = 0;
};

/// Call count and busy time of one interface method; per-call durations are
/// kept only where a percentile is reported.
struct CallStats {
  int64_t calls = 0;
  int64_t ns = 0;
  bool keep_durations = false;
  std::vector<int64_t> durations_ns;

  void Add(int64_t ns_spent) {
    ++calls;
    ns += ns_spent;
    if (keep_durations) durations_ns.push_back(ns_spent);
  }
};

/// Times one call from construction to destruction, minus excluded time.
class CallTimer {
 public:
  CallTimer(CallStats* stats, const ExcludedTime* excluded)
      : stats_(stats),
        excluded_(excluded),
        excluded_at_start_(excluded->ns),
        start_(NowNs()) {}
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;
  ~CallTimer() {
    stats_->Add(NowNs() - start_ - (excluded_->ns - excluded_at_start_));
  }

 private:
  CallStats* stats_;
  const ExcludedTime* excluded_;
  int64_t excluded_at_start_;
  int64_t start_;
};

struct SchedulerStats {
  SchedulerStats() { next_job.keep_durations = true; }

  CallStats next_job, on_complete, on_failed, exhausted, check_invariants,
      set_observability, snapshot, restore;
  int64_t next_job_idle = 0;  ///< NextJob() calls that answered nullopt
  int64_t requeues = 0;       ///< OnJobFailed() calls that answered true
  int64_t snapshot_bytes_max = 0;

  /// Busy time over every method.
  int64_t TotalNs() const {
    return next_job.ns + on_complete.ns + on_failed.ns + exhausted.ns +
           check_invariants.ns + set_observability.ns + snapshot.ns +
           restore.ns;
  }
};

class TimedScheduler final : public hypertune::SchedulerInterface {
 public:
  TimedScheduler(SchedulerInterface* inner, SchedulerStats* stats,
                 const ExcludedTime* excluded)
      : inner_(inner), stats_(stats), excluded_(excluded) {}

  std::optional<hypertune::Job> NextJob() override {
    CallTimer timer(&stats_->next_job, excluded_);
    std::optional<hypertune::Job> job = inner_->NextJob();
    if (!job.has_value()) ++stats_->next_job_idle;
    return job;
  }
  void OnJobComplete(const hypertune::Job& job,
                     const hypertune::EvalResult& result) override {
    CallTimer timer(&stats_->on_complete, excluded_);
    inner_->OnJobComplete(job, result);
  }
  bool OnJobFailed(const hypertune::Job& job,
                   const hypertune::FailureInfo& info) override {
    CallTimer timer(&stats_->on_failed, excluded_);
    const bool requeue = inner_->OnJobFailed(job, info);
    if (requeue) ++stats_->requeues;
    return requeue;
  }
  bool Exhausted() const override {
    CallTimer timer(&stats_->exhausted, excluded_);
    return inner_->Exhausted();
  }
  void CheckInvariants() const override {
    CallTimer timer(&stats_->check_invariants, excluded_);
    inner_->CheckInvariants();
  }
  void SetObservability(hypertune::Observability* sink) override {
    CallTimer timer(&stats_->set_observability, excluded_);
    inner_->SetObservability(sink);
  }
  [[nodiscard]] hypertune::Status Snapshot(
      hypertune::WireEncoder* enc) const override {
    const size_t before = enc->size();
    CallTimer timer(&stats_->snapshot, excluded_);
    hypertune::Status status = inner_->Snapshot(enc);
    const auto bytes = static_cast<int64_t>(enc->size() - before);
    if (status.ok()) {
      stats_->snapshot_bytes_max = std::max(stats_->snapshot_bytes_max, bytes);
    }
    return status;
  }
  [[nodiscard]] hypertune::Status Restore(
      hypertune::WireDecoder* dec) override {
    CallTimer timer(&stats_->restore, excluded_);
    return inner_->Restore(dec);
  }

 private:
  SchedulerInterface* const inner_;
  SchedulerStats* const stats_;
  const ExcludedTime* const excluded_;
};

struct SamplerStats {
  SamplerStats() { sample.keep_durations = true; }

  CallStats sample, on_observation;
  int64_t TotalNs() const { return sample.ns + on_observation.ns; }
};

class TimedSampler final : public hypertune::Sampler {
 public:
  /// When `probe` is set it runs before every `probe_stride`-th Sample()
  /// (the first included); its wall time is moved into `excluded`.
  TimedSampler(Sampler* inner, SamplerStats* stats, ExcludedTime* excluded,
               std::function<void()> probe, int64_t probe_stride)
      : inner_(inner),
        stats_(stats),
        excluded_(excluded),
        probe_(std::move(probe)),
        probe_stride_(probe_stride) {}

  hypertune::Configuration Sample(int target_level) override {
    if (probe_ && stats_->sample.calls % probe_stride_ == 0) {
      const int64_t start = NowNs();
      probe_();
      excluded_->ns += NowNs() - start;
    }
    CallTimer timer(&stats_->sample, excluded_);
    return inner_->Sample(target_level);
  }
  void OnObservation(const hypertune::Configuration& config, double objective,
                     int level) override {
    CallTimer timer(&stats_->on_observation, excluded_);
    inner_->OnObservation(config, objective, level);
  }
  std::string name() const override { return inner_->name(); }
  void SetObservability(hypertune::Observability* sink) override {
    inner_->SetObservability(sink);
  }
  [[nodiscard]] hypertune::Status SnapshotState(
      hypertune::WireEncoder* enc) const override {
    return inner_->SnapshotState(enc);
  }
  [[nodiscard]] hypertune::Status RestoreState(
      hypertune::WireDecoder* dec) override {
    return inner_->RestoreState(dec);
  }

 private:
  Sampler* const inner_;
  SamplerStats* const stats_;
  ExcludedTime* const excluded_;
  const std::function<void()> probe_;
  const int64_t probe_stride_;
};

struct ProblemStats {
  CallStats evaluate, cost;
};

class TimedProblem final : public hypertune::TuningProblem {
 public:
  TimedProblem(const TuningProblem* inner, ProblemStats* stats,
               const ExcludedTime* excluded)
      : inner_(inner), stats_(stats), excluded_(excluded) {}

  std::string name() const override { return inner_->name(); }
  const hypertune::ConfigurationSpace& space() const override {
    return inner_->space();
  }
  double min_resource() const override { return inner_->min_resource(); }
  double max_resource() const override { return inner_->max_resource(); }
  hypertune::EvalOutcome Evaluate(const hypertune::Configuration& config,
                                  double resource,
                                  uint64_t noise_seed) const override {
    CallTimer timer(&stats_->evaluate, excluded_);
    return inner_->Evaluate(config, resource, noise_seed);
  }
  double EvaluationCost(const hypertune::Configuration& config,
                        double resource) const override {
    CallTimer timer(&stats_->cost, excluded_);
    return inner_->EvaluationCost(config, resource);
  }
  double optimum() const override { return inner_->optimum(); }
  std::string metric_name() const override { return inner_->metric_name(); }

 private:
  const TuningProblem* const inner_;
  ProblemStats* const stats_;
  const ExcludedTime* const excluded_;
};

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
inline double Percentile(std::vector<int64_t> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const size_t rank = static_cast<size_t>(std::clamp(std::ceil(q * n), 1.0, n));
  return static_cast<double>(values[rank - 1]);
}

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
