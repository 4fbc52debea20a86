#include "src/scheduler/batch_bo_scheduler.h"

#include "src/common/logging.h"

namespace hypertune {

BatchBoScheduler::BatchBoScheduler(MeasurementStore* store, Sampler* sampler,
                                   BatchBoSchedulerOptions options)
    : store_(store), sampler_(sampler), options_(options) {
  HT_CHECK(store_ != nullptr && sampler_ != nullptr)
      << "BatchBoScheduler needs a store and a sampler";
  HT_CHECK(options_.level >= 1 && options_.level <= store_->num_levels())
      << "record level outside store range";
  HT_CHECK(options_.batch_size >= 1) << "batch size must be positive";
}

std::optional<Job> BatchBoScheduler::NextJob() {
  if (options_.synchronous) {
    // Barrier: a new batch starts only when the previous fully completed.
    if (issued_in_batch_ >= options_.batch_size) {
      if (outstanding_ > 0) return std::nullopt;
      issued_in_batch_ = 0;
    }
    ++issued_in_batch_;
  }

  Configuration config = sampler_->Sample(options_.level);
  Job job;
  job.job_id = next_job_id_++;
  job.config = config;
  job.level = options_.level;
  job.resource = options_.resource;
  job.resume_from = 0.0;
  job.bracket = -1;
  store_->AddPending(config, job.level);
  ++outstanding_;
  if (obs_ != nullptr) {
    TraceEvent e;
    e.kind = TraceKind::kConfigSampled;
    e.job_id = job.job_id;
    e.level = job.level;
    e.name = sampler_->name();
    obs_->trace.Record(std::move(e));
    obs_->metrics.Increment("sampler.configs_sampled");
  }
  return job;
}

bool BatchBoScheduler::OnJobFailed(const Job& job, const FailureInfo& info) {
  if (SchedulerInterface::OnJobFailed(job, info)) return true;
  // Abandoned: the batch (sync mode) must not barrier on the dead job. The
  // configuration is deliberately left pending for median imputation.
  ++trials_failed_;
  --outstanding_;
  return false;
}

void BatchBoScheduler::CheckInvariants() const {
  HT_CHECK(outstanding_ >= 0) << "negative outstanding count " << outstanding_;
  HT_CHECK(outstanding_ <= next_job_id_)
      << "outstanding " << outstanding_ << " exceeds issued " << next_job_id_;
  if (options_.synchronous) {
    HT_CHECK(issued_in_batch_ >= 0 && issued_in_batch_ <= options_.batch_size)
        << "batch issue counter " << issued_in_batch_
        << " outside [0, " << options_.batch_size << "]";
    HT_CHECK(outstanding_ <= issued_in_batch_)
        << "sync batch has " << outstanding_ << " outstanding but only "
        << issued_in_batch_ << " issued in the current batch";
  }
}

void BatchBoScheduler::OnJobComplete(const Job& job,
                                     const EvalResult& result) {
  --outstanding_;
  store_->RemovePending(job.config, job.level);
  store_->Add(job.level, job.config, result.objective);
  sampler_->OnObservation(job.config, result.objective, job.level);
}

void BatchBoScheduler::SetObservability(Observability* sink) {
  obs_ = sink;
  sampler_->SetObservability(sink);
}

Status BatchBoScheduler::Snapshot(WireEncoder* enc) const {
  enc->PutI64(next_job_id_);
  enc->PutI32(issued_in_batch_);
  enc->PutI32(outstanding_);
  enc->PutI64(trials_failed_);
  return sampler_->SnapshotState(enc);
}

Status BatchBoScheduler::Restore(WireDecoder* dec) {
  int64_t next_job_id = 0;
  int32_t issued_in_batch = 0;
  int32_t outstanding = 0;
  int64_t trials_failed = 0;
  HT_RETURN_IF_ERROR(dec->GetI64(&next_job_id));
  HT_RETURN_IF_ERROR(dec->GetI32(&issued_in_batch));
  HT_RETURN_IF_ERROR(dec->GetI32(&outstanding));
  HT_RETURN_IF_ERROR(dec->GetI64(&trials_failed));
  if (next_job_id < 0 || trials_failed < 0 || outstanding < 0 ||
      outstanding > next_job_id) {
    return Status::InvalidArgument("batch scheduler: inconsistent counters");
  }
  if (issued_in_batch < 0 ||
      (options_.synchronous && (issued_in_batch > options_.batch_size ||
                                outstanding > issued_in_batch))) {
    return Status::InvalidArgument(
        "batch scheduler: batch counters outside the configured batch");
  }
  HT_RETURN_IF_ERROR(sampler_->RestoreState(dec));
  next_job_id_ = next_job_id;
  issued_in_batch_ = issued_in_batch;
  outstanding_ = outstanding;
  trials_failed_ = trials_failed;
  return Status::Ok();
}

}  // namespace hypertune
