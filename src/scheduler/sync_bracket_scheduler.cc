#include "src/scheduler/sync_bracket_scheduler.h"

#include <memory>
#include <utility>
#include <vector>

#include "src/common/logging.h"

namespace hypertune {

Status RestoreSelectorAndSampler(WireDecoder* dec, BracketSelector* selector,
                                 Sampler* sampler) {
  // Each restore is all or nothing on its own; only a sampler rejection
  // after the selector took its bytes needs undoing.
  WireEncoder backup;
  selector->Snapshot(&backup);
  HT_RETURN_IF_ERROR(selector->Restore(dec));
  Status status = sampler->RestoreState(dec);
  if (!status.ok()) {
    WireDecoder undo(backup.bytes());
    HT_CHECK(selector->Restore(&undo).ok())
        << "bracket selector cannot restore its own snapshot";
  }
  return status;
}

SyncBracketScheduler::SyncBracketScheduler(const ConfigurationSpace* space,
                                           MeasurementStore* store,
                                           Sampler* sampler,
                                           FidelityWeights* weights,
                                           BracketSchedulerOptions options)
    : space_(space),
      store_(store),
      sampler_(sampler),
      options_(options),
      selector_(options.ladder.num_levels, options.ladder.LevelResources(),
                weights, options.selector) {
  HT_CHECK(space_ != nullptr && store_ != nullptr && sampler_ != nullptr)
      << "SyncBracketScheduler needs space, store, and sampler";
  HT_CHECK(store_->num_levels() == options_.ladder.num_levels)
      << "store level count must match the resource ladder";
}

void SyncBracketScheduler::StartNextBracket() {
  current_index_ = selector_.Select(*store_);
  BracketOptions bracket_options;
  bracket_options.index = current_index_;
  bracket_options.ladder = options_.ladder;
  bracket_options.synchronous = true;
  bracket_ = std::make_unique<Bracket>(bracket_options);
}

std::optional<Job> SyncBracketScheduler::NextJob() {
  if (bracket_ == nullptr || bracket_->Complete()) {
    if (bracket_ != nullptr) ++brackets_completed_;
    StartNextBracket();
  }

  // Queued promotions first (they exist only after a rung barrier cleared).
  std::optional<Job> promotion = bracket_->NextPromotion(next_job_id_);
  if (promotion.has_value()) {
    ++next_job_id_;
    store_->AddPending(promotion->config, promotion->level);
    if (obs_ != nullptr) {
      TraceEvent e;
      e.kind = TraceKind::kPromotion;
      e.job_id = promotion->job_id;
      e.level = promotion->level;
      e.bracket = promotion->bracket;
      obs_->trace.Record(std::move(e));
      obs_->metrics.Increment("scheduler.promotions");
    }
    return promotion;
  }

  if (bracket_->WantsNewConfig()) {
    Configuration config = sampler_->Sample(bracket_->base_level());
    Job job = bracket_->AdmitConfig(config, next_job_id_++);
    store_->AddPending(config, job.level);
    if (obs_ != nullptr) {
      TraceEvent e;
      e.kind = TraceKind::kConfigSampled;
      e.job_id = job.job_id;
      e.level = job.level;
      e.bracket = job.bracket;
      e.name = sampler_->name();
      obs_->trace.Record(std::move(e));
      obs_->metrics.Increment("sampler.configs_sampled");
    }
    return job;
  }

  // Synchronization barrier: the rung has outstanding evaluations.
  return std::nullopt;
}

bool SyncBracketScheduler::OnJobFailed(const Job& job,
                                       const FailureInfo& info) {
  HT_CHECK(bracket_ != nullptr) << "failure without an active bracket";
  if (SchedulerInterface::OnJobFailed(job, info)) return true;
  // Abandoned: the trial failed. Its configuration stays in the pending set
  // on purpose — Algorithm 2 keeps imputing it at the median, so the
  // sampler is steered away from re-proposing a configuration that crashes.
  ++trials_failed_;
  bracket_->OnJobAbandoned(job);
  return false;
}

void SyncBracketScheduler::CheckInvariants() const {
  if (bracket_ != nullptr) bracket_->CheckInvariants();
}

void SyncBracketScheduler::OnJobComplete(const Job& job,
                                         const EvalResult& result) {
  HT_CHECK(bracket_ != nullptr) << "completion without an active bracket";
  store_->RemovePending(job.config, job.level);
  store_->Add(job.level, job.config, result.objective);
  bracket_->OnJobComplete(job, result.objective);
  sampler_->OnObservation(job.config, result.objective, job.level);
}

void SyncBracketScheduler::SetObservability(Observability* sink) {
  obs_ = sink;
  sampler_->SetObservability(sink);
}

Status SyncBracketScheduler::Snapshot(WireEncoder* enc) const {
  WireEncoder sampler_state;
  HT_RETURN_IF_ERROR(sampler_->SnapshotState(&sampler_state));
  enc->PutI64(next_job_id_);
  enc->PutI64(brackets_completed_);
  enc->PutI64(trials_failed_);
  enc->PutI32(current_index_);
  enc->PutBool(bracket_ != nullptr);
  if (bracket_ != nullptr) {
    // The full image: the running bracket's change since empty rungs.
    const size_t rungs = bracket_->Counts().size();
    bracket_->Snapshot(std::vector<Bracket::RungCounts>(rungs), enc);
  }
  selector_.Snapshot(enc);
  enc->PutRaw(sampler_state.bytes());
  return Status::Ok();
}

Status SyncBracketScheduler::Restore(WireDecoder* dec) {
  int64_t next_job_id = 0;
  int64_t brackets_completed = 0;
  int64_t trials_failed = 0;
  int32_t current_index = 0;
  HT_RETURN_IF_ERROR(dec->GetI64(&next_job_id));
  HT_RETURN_IF_ERROR(dec->GetI64(&brackets_completed));
  HT_RETURN_IF_ERROR(dec->GetI64(&trials_failed));
  HT_RETURN_IF_ERROR(dec->GetI32(&current_index));
  if (next_job_id < 0 || brackets_completed < 0 || trials_failed < 0) {
    return Status::InvalidArgument("sync scheduler: negative counter");
  }
  bool has_bracket = false;
  HT_RETURN_IF_ERROR(dec->GetBool(&has_bracket));
  std::unique_ptr<Bracket> bracket;
  if (has_bracket) {
    if (current_index < 1 || current_index > options_.ladder.num_levels) {
      return Status::InvalidArgument(
          "sync scheduler: bracket index outside the ladder");
    }
    BracketOptions bracket_options;
    bracket_options.index = current_index;
    bracket_options.ladder = options_.ladder;
    bracket_options.synchronous = true;
    bracket = std::make_unique<Bracket>(bracket_options);
    Bracket::Delta image;
    HT_RETURN_IF_ERROR(bracket->Decode(dec, &image));
    bracket->Apply(std::move(image));
  }
  HT_RETURN_IF_ERROR(RestoreSelectorAndSampler(dec, &selector_, sampler_));
  next_job_id_ = next_job_id;
  brackets_completed_ = brackets_completed;
  trials_failed_ = trials_failed;
  current_index_ = current_index;
  bracket_ = std::move(bracket);
  return Status::Ok();
}

}  // namespace hypertune
