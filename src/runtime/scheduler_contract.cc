#include "src/runtime/scheduler_contract.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <utility>

#include "src/common/logging.h"

namespace hypertune {

SchedulerContractChecker::SchedulerContractChecker(
    SchedulerInterface* inner, ContractCheckerOptions options)
    : inner_(inner), options_(options) {
  HT_CHECK(inner_ != nullptr) << "contract checker needs a scheduler";
}

const char* SchedulerContractChecker::StateName(TrialState state) {
  switch (state) {
    case TrialState::kOutstanding:
      return "outstanding";
    case TrialState::kCompleted:
      return "completed";
    case TrialState::kAbandoned:
      return "abandoned";
  }
  return "?";
}

void SchedulerContractChecker::RecordEvent(const Event& event) {
  trace_[events_recorded_++ % kTraceCapacity] = event;
  // Mirror every contract event into the run trace: a contract abort then
  // dumps a full timeline next to the textual event list.
  if (obs_ != nullptr) {
    TraceEvent e;
    e.kind = TraceKind::kContract;
    e.name = FormatEvent(event);
    obs_->trace.Record(std::move(e));
  }
}

std::string SchedulerContractChecker::FormatEvent(const Event& event) {
  // %g is an ostream's default float format: six significant digits.
  char text[128] = "";
  switch (event.kind) {
    case EventKind::kNoJob:
      return "NextJob -> nullopt (barrier or exhausted)";
    case EventKind::kIssued:
      std::snprintf(text, sizeof(text),
                    "NextJob -> job %" PRId64
                    " (level %d, bracket %d, attempt %d)",
                    event.job_id, event.level, event.bracket, event.attempt);
      break;
    case EventKind::kCompleted:
      std::snprintf(text, sizeof(text),
                    "OnJobComplete(job %" PRId64 ", attempt %d, objective %g)",
                    event.job_id, event.attempt, event.objective);
      break;
    case EventKind::kFailed:
      std::snprintf(text, sizeof(text),
                    "OnJobFailed(job %" PRId64
                    ", attempt %d, %s, retries_remaining %d) -> %s",
                    event.job_id, event.attempt,
                    FailureKindName(event.failure), event.retries_remaining,
                    event.requeue ? "requeue" : "abandon");
      break;
    case EventKind::kSpeculativeLaunch:
      std::snprintf(text, sizeof(text),
                    "SpeculativeLaunch(job %" PRId64 ", attempt %d)",
                    event.job_id, event.attempt);
      break;
    case EventKind::kSpeculativeCopyLost:
      std::snprintf(text, sizeof(text),
                    "SpeculativeCopyLost(job %" PRId64 ", attempt %d)",
                    event.job_id, event.attempt);
      break;
  }
  return text;
}

std::string SchedulerContractChecker::EventTrace() const {
  const uint64_t kept =
      std::min<uint64_t>(events_recorded_, kTraceCapacity);
  std::string out = "last " + std::to_string(kept) +
                    " contract events (newest last):\n";
  for (uint64_t n = events_recorded_ - kept; n < events_recorded_; ++n) {
    out += "  " + FormatEvent(trace_[n % kTraceCapacity]) + "\n";
  }
  return out;
}

SchedulerContractChecker::TrackedJob* SchedulerContractChecker::FindJob(
    int64_t job_id) {
  if (jobs_.empty() || job_id < jobs_.front().job_id) return nullptr;
  // Ids ascend, so until they skip one a job sits at its id's offset from
  // the first. (The unsigned difference of ids in order cannot overflow.)
  const uint64_t offset = static_cast<uint64_t>(job_id) -
                          static_cast<uint64_t>(jobs_.front().job_id);
  if (offset < jobs_.size() && jobs_[offset].job_id == job_id) {
    return &jobs_[offset];
  }
  auto it = LowerBound(job_id);
  return it != jobs_.end() && it->job_id == job_id ? &*it : nullptr;
}

std::vector<SchedulerContractChecker::TrackedJob>::iterator
SchedulerContractChecker::LowerBound(int64_t job_id) {
  return std::lower_bound(
      jobs_.begin(), jobs_.end(), job_id,
      [](const TrackedJob& tracked, int64_t id) { return tracked.job_id < id; });
}

void SchedulerContractChecker::Violation(const std::string& message) {
  if (options_.abort_on_violation) {
    HT_CHECK(false) << "scheduler contract violated: " << message << "\n"
                    << EventTrace();
  }
  violations_.push_back(message);
}

std::optional<Job> SchedulerContractChecker::NextJob() {
  std::optional<Job> job = inner_->NextJob();
  if (!job.has_value()) {
    RecordEvent(Event());
    return job;
  }
  RecordEvent(Event(EventKind::kIssued, *job));

  if (exhausted_observed_) {
    std::ostringstream msg;
    msg << "NextJob issued job " << job->job_id
        << " after Exhausted() was observed true";
    Violation(msg.str());
  }
  if (job->job_id < 0) {
    std::ostringstream msg;
    msg << "NextJob issued a job with negative id " << job->job_id;
    Violation(msg.str());
  }
  if (job->attempt != 1) {
    std::ostringstream msg;
    msg << "NextJob issued job " << job->job_id << " at attempt "
        << job->attempt << "; schedulers must mint attempt 1 (the backend "
        << "owns retry attempts)";
    Violation(msg.str());
  }
  if (jobs_.empty() || job->job_id > jobs_.back().job_id) {
    jobs_.push_back(TrackedJob{job->job_id});
    ++outstanding_;
  } else if (const TrackedJob* previous = FindJob(job->job_id)) {
    std::ostringstream msg;
    msg << "NextJob reused job id " << job->job_id << " (previous trial is "
        << StateName(previous->state) << ")";
    Violation(msg.str());
  } else {
    std::ostringstream msg;
    msg << "NextJob issued job " << job->job_id
        << " below the last issued job id " << jobs_.back().job_id
        << " (job ids must ascend)";
    Violation(msg.str());
    // Tracked all the same, so its later events are checked as usual.
    jobs_.insert(LowerBound(job->job_id), TrackedJob{job->job_id});
    ++outstanding_;
  }

  inner_->CheckInvariants();
  return job;
}

void SchedulerContractChecker::OnJobComplete(const Job& job,
                                             const EvalResult& result) {
  Event event(EventKind::kCompleted, job);
  event.objective = result.objective;
  RecordEvent(event);

  TrackedJob* tracked = FindJob(job.job_id);
  if (tracked == nullptr) {
    std::ostringstream msg;
    msg << "OnJobComplete for job " << job.job_id
        << " which was never issued by NextJob";
    Violation(msg.str());
  } else if (tracked->state != TrialState::kOutstanding) {
    std::ostringstream msg;
    msg << "OnJobComplete for job " << job.job_id
        << " which is already resolved (" << StateName(tracked->state)
        << (tracked->state == TrialState::kCompleted ? "): double completion"
                                                     : ")");
    Violation(msg.str());
  } else {
    if (job.attempt != tracked->current_attempt) {
      std::ostringstream msg;
      msg << "OnJobComplete for job " << job.job_id << " at attempt "
          << job.attempt << " but the runtime is executing attempt "
          << tracked->current_attempt << " (stale attempt number)";
      Violation(msg.str());
    }
    tracked->state = TrialState::kCompleted;
    --outstanding_;
  }

  inner_->OnJobComplete(job, result);
  inner_->CheckInvariants();
}

bool SchedulerContractChecker::OnJobFailed(const Job& job,
                                           const FailureInfo& info) {
  TrackedJob* tracked = FindJob(job.job_id);
  if (tracked == nullptr) {
    std::ostringstream msg;
    msg << "OnJobFailed for job " << job.job_id
        << " which was never issued by NextJob";
    Violation(msg.str());
  } else if (tracked->state != TrialState::kOutstanding) {
    std::ostringstream msg;
    msg << "OnJobFailed for job " << job.job_id
        << " which is already resolved (" << StateName(tracked->state) << ")";
    Violation(msg.str());
  } else if (job.attempt != tracked->current_attempt) {
    std::ostringstream msg;
    msg << "OnJobFailed for job " << job.job_id << " at attempt "
        << job.attempt << " but the runtime is executing attempt "
        << tracked->current_attempt << " (stale attempt number)";
    Violation(msg.str());
  }

  if (tracked != nullptr && tracked->duplicated) {
    std::ostringstream msg;
    msg << "OnJobFailed for job " << job.job_id
        << " while a speculative duplicate is still live (the backend must "
        << "only report failure of the last live copy)";
    Violation(msg.str());
  }

  bool requeue = inner_->OnJobFailed(job, info);

  Event event(EventKind::kFailed, job);
  event.failure = info.kind;
  event.retries_remaining = info.retries_remaining;
  event.requeue = requeue;
  RecordEvent(event);

  if (tracked != nullptr && tracked->state == TrialState::kOutstanding) {
    if (requeue) {
      tracked->current_attempt = job.attempt + 1;
    } else {
      tracked->state = TrialState::kAbandoned;
      --outstanding_;
    }
  }

  inner_->CheckInvariants();
  return requeue;
}

void SchedulerContractChecker::NoteSpeculativeLaunch(const Job& job) {
  RecordEvent(Event(EventKind::kSpeculativeLaunch, job));
  TrackedJob* tracked = FindJob(job.job_id);
  if (tracked == nullptr) {
    std::ostringstream msg;
    msg << "speculative duplicate of job " << job.job_id
        << " which was never issued by NextJob";
    Violation(msg.str());
  } else if (tracked->state != TrialState::kOutstanding) {
    std::ostringstream msg;
    msg << "speculative duplicate of job " << job.job_id
        << " which is already resolved (" << StateName(tracked->state) << ")";
    Violation(msg.str());
  } else if (job.attempt != tracked->current_attempt) {
    std::ostringstream msg;
    msg << "speculative duplicate of job " << job.job_id << " at attempt "
        << job.attempt << " but the runtime is executing attempt "
        << tracked->current_attempt;
    Violation(msg.str());
  } else if (tracked->duplicated) {
    std::ostringstream msg;
    msg << "second speculative duplicate of job " << job.job_id
        << " (at most one duplicate per job)";
    Violation(msg.str());
  } else {
    tracked->duplicated = true;
  }
}

void SchedulerContractChecker::NoteSpeculativeCopyLost(const Job& job) {
  RecordEvent(Event(EventKind::kSpeculativeCopyLost, job));
  TrackedJob* tracked = FindJob(job.job_id);
  if (tracked == nullptr || !tracked->duplicated) {
    std::ostringstream msg;
    msg << "speculative copy of job " << job.job_id
        << " retired, but no duplicate was ever announced for it";
    Violation(msg.str());
    return;
  }
  tracked->duplicated = false;
}

bool SchedulerContractChecker::Exhausted() const {
  bool exhausted = inner_->Exhausted();
  if (exhausted_observed_ && !exhausted) {
    // Monotonicity breach: a scheduler that reports exhaustion and then
    // revives can deadlock backends that already began shutdown. The
    // checker is const here, so the violation is reported through the
    // non-const path on the next mutating call — record it immediately
    // via the fatal path when aborting.
    auto* self = const_cast<SchedulerContractChecker*>(this);
    self->Violation("Exhausted() regressed from true to false");
    return exhausted;
  }
  if (exhausted) exhausted_observed_ = true;
  return exhausted;
}

void SchedulerContractChecker::CheckInvariants() const {
  inner_->CheckInvariants();
}

void SchedulerContractChecker::SetObservability(Observability* sink) {
  obs_ = sink;
  inner_->SetObservability(sink);
}

Status SchedulerContractChecker::Snapshot(WireEncoder* enc) const {
  return inner_->Snapshot(enc);
}

Status SchedulerContractChecker::Restore(WireDecoder* /*dec*/) {
  return Status::FailedPrecondition(
      "contract checker cannot restore audit state; restore the wrapped "
      "scheduler directly, then wrap it");
}

}  // namespace hypertune
