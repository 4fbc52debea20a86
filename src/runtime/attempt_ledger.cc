#include "src/runtime/attempt_ledger.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/runtime/journal.h"

namespace hypertune {
namespace {

/// A trace event about `job`'s attempt; callers add the worker, bracket
/// and copy fields their kind carries.
TraceEvent AttemptEvent(TraceKind kind, const Job& job) {
  TraceEvent e;
  e.kind = kind;
  e.job_id = job.job_id;
  e.level = job.level;
  e.attempt = job.attempt;
  return e;
}

TraceEvent WorkerEvent(TraceKind kind, int worker) {
  TraceEvent e;
  e.kind = kind;
  e.worker = worker;
  return e;
}

}  // namespace

void RunResult::Finalize(int num_workers) {
  double capacity = elapsed_seconds * static_cast<double>(num_workers);
  idle_seconds = std::max(0.0, capacity - busy_seconds);
  double denominator = busy_seconds + idle_seconds;
  utilization = denominator > 0.0 ? busy_seconds / denominator : 0.0;
}

AttemptLedger::AttemptLedger(const BackendOptions& options,
                             const WorkerFaultOptions& worker_faults,
                             const SpeculationOptions& speculation,
                             SchedulerInterface* scheduler,
                             double full_resource,
                             std::function<double()> clock,
                             TrialRetention retention)
    : num_workers_(options.num_workers),
      seed_(options.seed),
      max_trials_(options.max_trials),
      faults_(options.faults),
      observer_(options.observer),
      check_contract_(options.check_contract),
      obs_(options.obs.sink),
      journal_(options.journal),
      worker_faults_(worker_faults),
      speculation_(speculation),
      full_resource_(full_resource),
      checker_(scheduler),
      // Every run audits the pull contract by default, so the whole test
      // suite doubles as a contract-conformance suite for the scheduler.
      scheduler_(options.check_contract ? &checker_ : scheduler),
      workers_(static_cast<size_t>(options.num_workers)) {
  result_.history.set_retention(retention);
  // Trace events are stamped with the backend's clock, and the sink is
  // threaded to the scheduler stack (the contract checker forwards it
  // inward and mirrors its own events).
  if (obs_ != nullptr) {
    obs_->trace.SetClock(std::move(clock));
    scheduler_->SetObservability(obs_);
  }
  if (journal_ != nullptr) journal_->SetObservability(options.obs);
}

void AttemptLedger::Emit(const Transition& t) {
  // Per kind: the journal hook, the RunResult fields, the trace event and
  // its metric. Launch, failure and requeue trace before they journal;
  // everything else journals first. The simulator's journal bytes and
  // trace stream depend on this order.
  RunJournal* const journal = journal_;
  Observability* const obs = obs_;
  const Job* const job = t.job;
  switch (t.kind) {
    case TransitionKind::kDecision:
      if (journal != nullptr) journal->Decision(*job, t.now);
      break;
    case TransitionKind::kLaunch:
      if (obs != nullptr) {
        TraceEvent e = AttemptEvent(t.speculative
                                        ? TraceKind::kSpeculativeLaunch
                                        : TraceKind::kJobLaunch,
                                    *job);
        e.worker = t.worker;
        e.bracket = job->bracket;
        e.speculative = t.speculative;
        obs->trace.Record(std::move(e));
        obs->metrics.Increment(t.speculative ? "speculation.launched"
                                             : "jobs.launched");
      }
      if (journal != nullptr) {
        journal->Launch(job->job_id, job->attempt, t.worker, t.speculative,
                        t.seconds, t.now);
      }
      break;
    case TransitionKind::kComplete: {
      if (t.speculative) ++result_.speculative_wins;
      if (journal != nullptr) {
        journal->Complete(*job, *t.eval, t.worker, t.start_time, t.now);
      }
      TrialRecord record;
      record.job = *job;
      record.result = *t.eval;
      record.start_time = t.start_time;
      record.end_time = t.now;
      record.worker = t.worker;
      record.speculative = t.speculative;
      result_.history.Record(record, job->resource >= full_resource_);
      if (observer_) observer_(record);
      if (obs != nullptr) {
        TraceEvent e = AttemptEvent(TraceKind::kJobComplete, *job);
        e.worker = t.worker;
        e.bracket = job->bracket;
        e.speculative = t.speculative;
        e.value = t.eval->objective;
        obs->trace.Record(std::move(e));
        obs->metrics.Increment("jobs.completed");
        if (t.speculative) obs->metrics.Increment("speculation.wins");
        obs->metrics.Observe("trial.duration_seconds", t.seconds);
      }
      break;
    }
    case TransitionKind::kFailed:
      ++result_.failed_attempts;
      result_.wasted_seconds += t.seconds;
      switch (t.failure) {
        case FailureKind::kCrash:
          ++result_.crash_attempts;
          break;
        case FailureKind::kTimeout:
          ++result_.timeout_attempts;
          break;
        case FailureKind::kWorkerLost:
          ++result_.worker_lost_attempts;
          break;
      }
      if (obs != nullptr) {
        TraceEvent e = AttemptEvent(TraceKind::kJobFailed, *job);
        e.worker = t.worker;
        e.bracket = job->bracket;
        e.name = FailureKindName(t.failure);
        e.value = t.seconds;
        obs->trace.Record(std::move(e));
        obs->metrics.Increment("jobs.failed_attempts");
      }
      if (journal != nullptr) {
        journal->Failed(job->job_id, job->attempt, t.failure, t.worker,
                        t.seconds, t.now);
      }
      break;
    case TransitionKind::kRequeue:
      ++result_.retries;
      if (obs != nullptr) {
        TraceEvent e = AttemptEvent(TraceKind::kJobRequeued, *job);
        e.name = FailureKindName(t.failure);
        obs->trace.Record(std::move(e));
        obs->metrics.Increment("jobs.requeued");
      }
      if (journal != nullptr) {
        journal->Requeue(job->job_id, job->attempt,
                         t.seconds > 0.0 ? t.now + t.seconds : t.now, t.now);
      }
      break;
    case TransitionKind::kAbandon: {
      ++result_.failed_trials;
      if (journal != nullptr) {
        journal->Abandon(job->job_id, job->attempt, t.now);
      }
      TrialRecord record;
      record.job = *job;
      record.result.cost_seconds = t.seconds;
      record.start_time = t.start_time;
      record.end_time = t.now;
      record.worker = t.worker;
      record.failure_kind = t.failure;
      result_.history.RecordFailure(record);
      if (obs != nullptr) {
        TraceEvent e = AttemptEvent(TraceKind::kJobAbandoned, *job);
        e.name = FailureKindName(t.failure);
        obs->trace.Record(std::move(e));
        obs->metrics.Increment("jobs.abandoned");
      }
      break;
    }
    case TransitionKind::kCopyLost:
      ++result_.speculative_losses;
      result_.speculative_wasted_seconds += t.seconds;
      if (obs != nullptr) {
        TraceEvent e = AttemptEvent(TraceKind::kSpeculativeCopyLost, *job);
        e.worker = t.worker;
        e.speculative = t.speculative;
        e.value = t.seconds;
        obs->trace.Record(std::move(e));
        obs->metrics.Increment("speculation.losses");
      }
      break;
    case TransitionKind::kSpeculate:
      if (journal != nullptr) journal->Speculate(job->job_id, t.worker, t.now);
      ++result_.speculative_attempts;
      break;
    case TransitionKind::kWorkerDeath: {
      if (journal != nullptr) {
        journal->WorkerDeath(t.worker, t.permanent, t.now);
      }
      ++result_.worker_deaths;
      if (t.permanent) ++result_.workers_lost_permanently;
      if (obs != nullptr) {
        obs->trace.Record(WorkerEvent(TraceKind::kWorkerDeath, t.worker));
        obs->metrics.Increment("workers.deaths");
      }
      // Death supersedes quarantine: it closes the quarantine window.
      const WorkerSlot& slot = workers_[t.worker];
      if (slot.quarantined) {
        result_.worker_down_seconds += t.now - slot.down_since;
      }
      break;
    }
    case TransitionKind::kWorkerRecover:
      if (journal != nullptr) journal->WorkerRecover(t.worker, t.now);
      if (obs != nullptr) {
        obs->trace.Record(WorkerEvent(TraceKind::kWorkerRecover, t.worker));
        obs->metrics.Increment("workers.recoveries");
      }
      result_.worker_down_seconds += t.now - workers_[t.worker].down_since;
      break;
    case TransitionKind::kQuarantineBegin:
      if (journal != nullptr) {
        journal->QuarantineBegin(t.worker, t.now + t.seconds, t.now);
      }
      ++result_.quarantines;
      if (obs != nullptr) {
        TraceEvent e = WorkerEvent(TraceKind::kQuarantineBegin, t.worker);
        e.value = t.seconds;
        obs->trace.Record(std::move(e));
        obs->metrics.Increment("workers.quarantines");
      }
      break;
    case TransitionKind::kQuarantineEnd:
      if (journal != nullptr) journal->QuarantineEnd(t.worker, t.now);
      result_.worker_down_seconds += t.now - workers_[t.worker].down_since;
      if (obs != nullptr) {
        obs->trace.Record(WorkerEvent(TraceKind::kQuarantineEnd, t.worker));
      }
      break;
    case TransitionKind::kTruncated:
      if (obs != nullptr) {
        TraceEvent e = AttemptEvent(TraceKind::kJobTruncated, *job);
        e.time = t.now;
        e.worker = t.worker;
        e.bracket = job->bracket;
        e.speculative = t.speculative;
        obs->trace.Record(std::move(e));
        obs->metrics.Increment("jobs.truncated");
      }
      break;
  }
}

bool AttemptLedger::CanSpeculate(int worker) const {
  const WorkerSlot& slot = workers_[worker];
  if (!slot.busy) return false;
  auto it = jobs_.find(slot.job.job_id);
  return it != jobs_.end() && !it->second.duplicated;
}

double AttemptLedger::StragglerThreshold(int level) const {
  auto it = level_durations_.find(level);
  if (!speculation_.enabled() || it == level_durations_.end() ||
      it->second.size() < speculation_.min_samples) {
    return std::numeric_limits<double>::infinity();
  }
  const RankTree& tree = it->second;
  const double median = tree.key(tree.Kth((tree.size() - 1) / 2));
  return speculation_.speculation_factor * median;
}

int AttemptLedger::FindStraggler(double now) const {
  int64_t straggler = -1;
  int worker = -1;
  for (const auto& [id, entry] : jobs_) {
    if (entry.duplicated || entry.copies[0] < 0) continue;
    const WorkerSlot& slot = workers_[entry.copies[0]];
    if (now - slot.start_time > StragglerThreshold(slot.job.level) &&
        (straggler < 0 || id < straggler)) {
      straggler = id;
      worker = entry.copies[0];
    }
  }
  return worker;
}

bool AttemptLedger::NoWorkLeft() const {
  return unresolved_ == 0 && scheduler_->Exhausted();
}

bool AttemptLedger::JournalFailed() const {
  return journal_ != nullptr && !journal_->ok();
}

std::optional<Job> AttemptLedger::Decide(double now) {
  std::optional<Job> job = scheduler_->NextJob();
  if (!job.has_value()) return job;
  Transition t(TransitionKind::kDecision, now, -1, &*job);
  Emit(t);
  jobs_.try_emplace(job->job_id);
  ++unresolved_;
  return job;
}

void AttemptLedger::Launch(int worker, Job job, bool speculative,
                           double planned_seconds, double now) {
  WorkerSlot& slot = workers_[worker];
  slot.job = std::move(job);
  slot.start_time = now;
  slot.busy = true;
  slot.speculative = speculative;
  JobEntry& entry = jobs_[slot.job.job_id];
  entry.copies[entry.copies[0] < 0 ? 0 : 1] = worker;

  Transition t(TransitionKind::kLaunch, now, worker, &slot.job);
  t.speculative = speculative;
  t.seconds = planned_seconds;
  Emit(t);
}

Job AttemptLedger::Speculate(int worker, double now) {
  const Job& job = workers_[worker].job;
  Transition t(TransitionKind::kSpeculate, now, worker, &job);
  Emit(t);
  jobs_[job.job_id].duplicated = true;
  if (check_contract_) checker_.NoteSpeculativeLaunch(job);
  return job;
}

AttemptLedger::JobEntry& AttemptLedger::Retire(int worker) {
  WorkerSlot& slot = workers_[worker];
  slot.busy = false;
  JobEntry& entry = jobs_[slot.job.job_id];
  if (entry.copies[0] == worker) {
    entry.copies[0] = entry.copies[1];
  }
  entry.copies[1] = -1;
  return entry;
}

int AttemptLedger::Complete(int worker, EvalResult eval, double now) {
  WorkerSlot& slot = workers_[worker];
  const double duration = now - slot.start_time;
  result_.busy_seconds += duration;
  JobEntry& entry = Retire(worker);

  // First finisher wins: cancel a still-racing sibling before the result
  // is delivered.
  const int loser = entry.copies[0];
  if (loser >= 0) {
    WorkerSlot& lost = workers_[loser];
    const double burned = now - lost.start_time;
    result_.busy_seconds += burned;
    Transition t(TransitionKind::kCopyLost, now, loser, &lost.job);
    t.speculative = lost.speculative;
    t.seconds = burned;
    Emit(t);
    lost.busy = false;
  }

  eval.cost_seconds = duration;
  Transition t(TransitionKind::kComplete, now, worker, &slot.job);
  t.speculative = slot.speculative;
  t.seconds = duration;
  t.start_time = slot.start_time;
  t.eval = &eval;
  Emit(t);

  scheduler_->OnJobComplete(slot.job, eval);
  if (loser >= 0 && check_contract_) {
    checker_.NoteSpeculativeCopyLost(slot.job);
  }
  slot.failure_streak = 0;
  jobs_.erase(slot.job.job_id);
  if (speculation_.enabled()) {
    level_durations_[slot.job.level].Insert(duration);
  }
  --unresolved_;
  ++completed_;
  if (journal_ != nullptr) {
    journal_->MaybeCheckpoint(*scheduler_, completed_, now);
  }
  return loser;
}

AttemptEnd AttemptLedger::EndFailedCopy(int worker, FailureKind kind,
                                        double now) {
  WorkerSlot& slot = workers_[worker];
  const Job& job = slot.job;
  const double burned = now - slot.start_time;
  result_.busy_seconds += burned;
  JobEntry& entry = Retire(worker);

  Transition t(TransitionKind::kFailed, now, worker, &job);
  t.failure = kind;
  t.seconds = burned;
  if (entry.copies[0] >= 0) {
    // A copy died while its sibling races on: silent loss — the scheduler
    // hears nothing and no retry budget is spent.
    t.kind = TransitionKind::kCopyLost;
    t.speculative = slot.speculative;
    Emit(t);
    if (check_contract_) checker_.NoteSpeculativeCopyLost(job);
    return {};
  }

  Emit(t);
  FailureInfo info;
  info.kind = kind;
  info.attempt = job.attempt;
  info.retries_remaining = std::max(0, faults_.max_retries - entry.failures);
  info.wasted_seconds = burned;
  info.worker = worker;
  AttemptEnd end;
  if (scheduler_->OnJobFailed(job, info)) {
    // Worker loss is the cluster's fault: requeued at once, budget
    // untouched. Crashes and timeouts spend budget and back off.
    if (kind != FailureKind::kWorkerLost) {
      ++entry.failures;
      end.retry_delay = RetryDelay(faults_, seed_, job);
    }
    end.retry = job;
    ++end.retry->attempt;
    Transition requeue(TransitionKind::kRequeue, now, -1, &*end.retry);
    requeue.failure = kind;
    requeue.seconds = end.retry_delay;
    Emit(requeue);
  } else {
    t.kind = TransitionKind::kAbandon;
    t.start_time = slot.start_time;
    Emit(t);
    jobs_.erase(job.job_id);
    --unresolved_;
  }
  return end;
}

AttemptEnd AttemptLedger::Fail(int worker, FailureKind kind, double now) {
  AttemptEnd end = EndFailedCopy(worker, kind, now);
  WorkerSlot& slot = workers_[worker];
  ++slot.failure_streak;
  const WorkerFaultOptions& wf = worker_faults_;
  if (wf.quarantine_failures > 0 && wf.quarantine_seconds > 0.0 &&
      slot.failure_streak >= wf.quarantine_failures) {
    Transition t(TransitionKind::kQuarantineBegin, now, worker);
    t.seconds = wf.quarantine_seconds;
    Emit(t);
    slot.quarantined = true;
    slot.down = true;
    slot.down_since = now;
    slot.failure_streak = 0;
    end.quarantined = true;
  }
  return end;
}

AttemptEnd AttemptLedger::WorkerDeath(int worker, bool permanent, double now,
                                      FailureKind orphan) {
  Transition t(TransitionKind::kWorkerDeath, now, worker);
  t.permanent = permanent;
  Emit(t);
  AttemptEnd end;
  WorkerSlot& slot = workers_[worker];
  if (slot.busy) end = EndFailedCopy(worker, orphan, now);
  slot.quarantined = false;
  slot.down = true;
  slot.down_since = now;
  slot.failure_streak = 0;
  return end;
}

void AttemptLedger::WorkerRecover(int worker, double now) {
  Transition t(TransitionKind::kWorkerRecover, now, worker);
  Emit(t);
  workers_[worker].down = false;
}

void AttemptLedger::QuarantineEnd(int worker, double now) {
  Transition t(TransitionKind::kQuarantineEnd, now, worker);
  Emit(t);
  workers_[worker].quarantined = false;
  workers_[worker].down = false;
}

void AttemptLedger::ChargeRunning(double until) {
  for (const WorkerSlot& slot : workers_) {
    if (slot.busy) {
      result_.busy_seconds += std::max(0.0, until - slot.start_time);
    }
  }
}

RunResult AttemptLedger::Finish(double elapsed) {
  result_.elapsed_seconds = elapsed;
  for (const WorkerSlot& slot : workers_) {
    if (slot.down) {
      result_.worker_down_seconds += std::max(0.0, elapsed - slot.down_since);
    }
  }
  result_.Finalize(num_workers_);
  if (journal_ != nullptr && journal_->ok()) journal_->RunEnd(result_);
  if (obs_ != nullptr) {
    // Close the trace: every copy still running gets its terminal event,
    // so each launch pairs with exactly one terminal.
    for (int w = 0; w < num_workers_; ++w) {
      const WorkerSlot& slot = workers_[w];
      if (!slot.busy) continue;
      Transition t(TransitionKind::kTruncated, elapsed, w, &slot.job);
      t.speculative = slot.speculative;
      Emit(t);
    }
    obs_->metrics.SetGauge("run.elapsed_seconds", result_.elapsed_seconds);
    obs_->metrics.SetGauge("run.busy_seconds", result_.busy_seconds);
    obs_->metrics.SetGauge("run.utilization", result_.utilization);
    // Freeze the clock: the backend's clock reads its own frame, which
    // dies when Run returns.
    obs_->trace.SetClock([t = elapsed] { return t; });
  }
  return std::move(result_);
}

}  // namespace hypertune
