// The benchmark's decorators must forward every virtual of the interfaces
// they wrap, with arguments and results unchanged: a dropped Snapshot, for
// one, would silently remove checkpoints and make journal-resume measure a
// different program. Exits non-zero and names each failure.

#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/layers.h"

namespace perfbench {
namespace {

using hypertune::Configuration;
using hypertune::EvalOutcome;
using hypertune::EvalResult;
using hypertune::FailureInfo;
using hypertune::Job;
using hypertune::Observability;
using hypertune::Status;
using hypertune::WireDecoder;
using hypertune::WireEncoder;

int failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

/// Records every call it receives; answers are distinctive so a decorator
/// that substitutes a default is caught.
class FakeScheduler final : public hypertune::SchedulerInterface {
 public:
  std::optional<Job> NextJob() override {
    calls.push_back("NextJob");
    Job job;
    job.job_id = 41;
    return job;
  }
  void OnJobComplete(const Job& job, const EvalResult& result) override {
    calls.push_back("OnJobComplete " + std::to_string(job.job_id) + " " +
                    std::to_string(result.objective));
  }
  bool OnJobFailed(const Job& job, const FailureInfo& info) override {
    calls.push_back("OnJobFailed " + std::to_string(job.job_id) + " " +
                    std::to_string(info.retries_remaining));
    return false;  // the base policy would requeue (retries remain)
  }
  bool Exhausted() const override {
    calls.push_back("Exhausted");
    return true;
  }
  void CheckInvariants() const override { calls.push_back("CheckInvariants"); }
  void SetObservability(Observability* sink) override {
    calls.push_back("SetObservability");
    sink_seen = sink;
  }
  [[nodiscard]] Status Snapshot(WireEncoder* enc) const override {
    calls.push_back("Snapshot");
    enc->PutU8(7);
    return Status::Ok();
  }
  [[nodiscard]] Status Restore(WireDecoder* dec) override {
    calls.push_back("Restore");
    uint8_t byte = 0;
    Status status = dec->GetU8(&byte);
    return byte == 7 ? status : Status::DataLoss("bad byte");
  }

  mutable std::vector<std::string> calls;
  Observability* sink_seen = nullptr;
};

void TestScheduler() {
  FakeScheduler fake;
  SchedulerStats stats;
  ExcludedTime excluded;
  TimedScheduler timed(&fake, &stats, &excluded);

  std::optional<Job> job = timed.NextJob();
  Expect(job.has_value() && job->job_id == 41, "NextJob result forwarded");
  EvalResult result;
  result.objective = 2.0;
  timed.OnJobComplete(*job, result);
  FailureInfo info;
  info.retries_remaining = 3;
  Expect(!timed.OnJobFailed(*job, info), "OnJobFailed verdict forwarded");
  Expect(timed.Exhausted(), "Exhausted forwarded");
  timed.CheckInvariants();
  Observability obs;
  timed.SetObservability(&obs);
  Expect(fake.sink_seen == &obs, "SetObservability sink forwarded");
  WireEncoder enc;
  Expect(timed.Snapshot(&enc).ok() && enc.size() == 1, "Snapshot forwarded");
  WireDecoder dec(enc.bytes());
  Expect(timed.Restore(&dec).ok() && dec.remaining() == 0,
         "Restore forwarded");

  const std::vector<std::string> expected = {
      "NextJob",         "OnJobComplete 41 2.000000",
      "OnJobFailed 41 3", "Exhausted",
      "CheckInvariants", "SetObservability",
      "Snapshot",        "Restore"};
  Expect(fake.calls == expected, "scheduler saw every call once, in order");
  Expect(stats.next_job.calls == 1 && stats.on_complete.calls == 1 &&
             stats.on_failed.calls == 1 && stats.exhausted.calls == 1 &&
             stats.check_invariants.calls == 1 &&
             stats.set_observability.calls == 1 &&
             stats.snapshot.calls == 1 && stats.restore.calls == 1,
         "scheduler decorator counted every call");
  Expect(stats.snapshot_bytes_max == 1, "snapshot bytes measured");
  Expect(stats.requeues == 0 && stats.next_job_idle == 0,
         "requeue and idle counts follow the answers");
}

class FakeSampler final : public hypertune::Sampler {
 public:
  Configuration Sample(int target_level) override {
    calls.push_back("Sample " + std::to_string(target_level));
    return Configuration(std::vector<double>{0.25});
  }
  void OnObservation(const Configuration& config, double objective,
                     int level) override {
    calls.push_back("OnObservation " + std::to_string(config[0]) + " " +
                    std::to_string(objective) + " " + std::to_string(level));
  }
  std::string name() const override { return "fake"; }
  void SetObservability(Observability* sink) override {
    calls.push_back("SetObservability");
    sink_seen = sink;
  }
  [[nodiscard]] Status SnapshotState(WireEncoder* enc) const override {
    calls.push_back("SnapshotState");
    enc->PutU8(9);
    return Status::Ok();
  }
  [[nodiscard]] Status RestoreState(WireDecoder* dec) override {
    calls.push_back("RestoreState");
    uint8_t byte = 0;
    return dec->GetU8(&byte);
  }

  mutable std::vector<std::string> calls;
  Observability* sink_seen = nullptr;
};

void TestSampler() {
  FakeSampler fake;
  SamplerStats stats;
  ExcludedTime excluded;
  int probes = 0;
  TimedSampler timed(&fake, &stats, &excluded, [&probes] { ++probes; }, 2);

  Expect(timed.Sample(3)[0] == 0.25, "Sample result forwarded");
  timed.Sample(1);
  timed.Sample(2);
  Expect(probes == 2, "probe runs on the first and every stride-th Sample");
  timed.OnObservation(Configuration(std::vector<double>{0.5}), 1.5, 2);
  Expect(timed.name() == "fake", "name forwarded");
  Observability obs;
  timed.SetObservability(&obs);
  Expect(fake.sink_seen == &obs, "SetObservability sink forwarded");
  WireEncoder enc;
  Expect(timed.SnapshotState(&enc).ok() && enc.size() == 1,
         "SnapshotState forwarded");
  WireDecoder dec(enc.bytes());
  Expect(timed.RestoreState(&dec).ok() && dec.remaining() == 0,
         "RestoreState forwarded");

  const std::vector<std::string> expected = {
      "Sample 3",         "Sample 1",
      "Sample 2",         "OnObservation 0.500000 1.500000 2",
      "SetObservability", "SnapshotState",
      "RestoreState"};
  Expect(fake.calls == expected, "sampler saw every call once, in order");
  Expect(stats.sample.calls == 3 && stats.on_observation.calls == 1,
         "sampler decorator counted every call");
}

class FakeProblem final : public hypertune::TuningProblem {
 public:
  std::string name() const override { return "fake-problem"; }
  const hypertune::ConfigurationSpace& space() const override {
    return space_;
  }
  double min_resource() const override { return 2.0; }
  double max_resource() const override { return 54.0; }
  EvalOutcome Evaluate(const Configuration& config, double resource,
                       uint64_t noise_seed) const override {
    EvalOutcome outcome;
    outcome.objective = config[0] + resource + static_cast<double>(noise_seed);
    outcome.test_objective = -1.0;
    return outcome;
  }
  double EvaluationCost(const Configuration& config,
                        double resource) const override {
    return config[0] * resource;
  }
  double optimum() const override { return -3.0; }
  std::string metric_name() const override { return "fake metric"; }

 private:
  hypertune::ConfigurationSpace space_;
};

void TestProblem() {
  FakeProblem fake;
  ProblemStats stats;
  ExcludedTime excluded;
  TimedProblem timed(&fake, &stats, &excluded);
  const Configuration config(std::vector<double>{0.5});

  Expect(timed.name() == "fake-problem", "name forwarded");
  Expect(&timed.space() == &fake.space(), "space forwarded by reference");
  Expect(timed.min_resource() == 2.0 && timed.max_resource() == 54.0,
         "resource range forwarded");
  const EvalOutcome outcome = timed.Evaluate(config, 4.0, 10);
  Expect(outcome.objective == 14.5 && outcome.test_objective == -1.0,
         "Evaluate forwarded");
  Expect(timed.EvaluationCost(config, 6.0) == 3.0, "EvaluationCost forwarded");
  Expect(timed.optimum() == -3.0, "optimum forwarded");
  Expect(timed.metric_name() == "fake metric", "metric_name forwarded");
  Expect(stats.evaluate.calls == 1 && stats.cost.calls == 1,
         "problem decorator counted every call");
}

void TestExcludedTime() {
  CallStats stats;
  ExcludedTime excluded;
  {
    CallTimer timer(&stats, &excluded);
    excluded.ns += 1'000'000'000;  // as if a 1 s probe ran inside the call
  }
  Expect(stats.calls == 1 && stats.ns < 0,
         "time excluded inside a call is not charged to it");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestScheduler();
  perfbench::TestSampler();
  perfbench::TestProblem();
  perfbench::TestExcludedTime();
  if (perfbench::failures == 0) std::puts("perfbench forwarding: all passed");
  return perfbench::failures == 0 ? 0 : 1;
}
