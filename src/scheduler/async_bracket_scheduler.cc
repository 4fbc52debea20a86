#include "src/scheduler/async_bracket_scheduler.h"

#include <utility>

#include "src/common/logging.h"

namespace hypertune {
namespace {

/// Only brackets the selector can actually pick need to exist. With the
/// kFixed policy that is a single bracket (plain ASHA/D-ASHA); otherwise
/// all K.
bool UsesSingleBracket(const BracketSchedulerOptions& options) {
  return options.selector.policy == BracketPolicy::kFixed;
}

/// Rung log sizes of every bracket, [bracket][rung]. Every snapshot leads
/// with the shape it leaves the scheduler in, so the next checkpoint reads
/// its base's counts without decoding the rest.
using Shape = std::vector<std::vector<Bracket::RungCounts>>;

Shape ShapeOf(const std::vector<std::unique_ptr<Bracket>>& brackets) {
  Shape shape;
  shape.reserve(brackets.size());
  for (const auto& bracket : brackets) shape.push_back(bracket->Counts());
  return shape;
}

/// The shape of empty rung logs: a snapshot against it is a full image.
Shape EmptyLike(const Shape& shape) {
  Shape empty;
  empty.reserve(shape.size());
  for (const auto& rungs : shape) empty.emplace_back(rungs.size());
  return empty;
}

void EncodeShape(const Shape& shape, WireEncoder* enc) {
  enc->PutU32(static_cast<uint32_t>(shape.size()));
  for (const auto& rungs : shape) {
    enc->PutU32(static_cast<uint32_t>(rungs.size()));
    for (const Bracket::RungCounts& counts : rungs) {
      enc->PutU32(counts.results);
      enc->PutU32(counts.closed);
      enc->PutU32(counts.promoted);
    }
  }
}

/// Decodes a shape with the same brackets and rungs as `like`.
Status DecodeShape(WireDecoder* dec, const Shape& like, Shape* out) {
  Shape shape = like;
  uint32_t size = 0;
  HT_RETURN_IF_ERROR(dec->GetU32(&size));
  if (size != shape.size()) {
    return Status::InvalidArgument(
        "async scheduler: snapshot bracket count does not match this "
        "scheduler's configuration");
  }
  for (auto& rungs : shape) {
    HT_RETURN_IF_ERROR(dec->GetU32(&size));
    if (size != rungs.size()) {
      return Status::InvalidArgument(
          "async scheduler: snapshot rung count does not match this "
          "scheduler's ladder");
    }
    for (Bracket::RungCounts& counts : rungs) {
      HT_RETURN_IF_ERROR(dec->GetU32(&counts.results));
      HT_RETURN_IF_ERROR(dec->GetU32(&counts.closed));
      HT_RETURN_IF_ERROR(dec->GetU32(&counts.promoted));
    }
  }
  *out = std::move(shape);
  return Status::Ok();
}

/// True when no rung log of `base` is longer than in `shape`.
bool Extends(const Shape& shape, const Shape& base) {
  for (size_t b = 0; b < shape.size(); ++b) {
    for (size_t r = 0; r < shape[b].size(); ++r) {
      const Bracket::RungCounts& now = shape[b][r];
      const Bracket::RungCounts& then = base[b][r];
      if (then.results > now.results || then.closed > now.closed ||
          then.promoted > now.promoted) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

AsyncBracketScheduler::AsyncBracketScheduler(const ConfigurationSpace* space,
                                             MeasurementStore* store,
                                             Sampler* sampler,
                                             FidelityWeights* weights,
                                             BracketSchedulerOptions options)
    : space_(space),
      store_(store),
      sampler_(sampler),
      options_(options),
      selector_(options.ladder.num_levels, options.ladder.LevelResources(),
                weights,
                [&options] {
                  BracketSelectorOptions selector = options.selector;
                  if (selector.init_widths.empty() &&
                      selector.policy != BracketPolicy::kFixed) {
                    // The async analogue of "executing each bracket once
                    // in round-robin order": one pass admits each
                    // bracket's Hyperband width n1.
                    ResourceLadder ladder = options.ladder;
                    for (int b = 1; b <= ladder.num_levels; ++b) {
                      BracketOptions probe;
                      probe.index = b;
                      probe.ladder = ladder;
                      selector.init_widths.push_back(
                          Bracket(probe).DefaultWidth());
                    }
                  }
                  return selector;
                }()) {
  HT_CHECK(space_ != nullptr && store_ != nullptr && sampler_ != nullptr)
      << "AsyncBracketScheduler needs space, store, and sampler";
  HT_CHECK(store_->num_levels() == options_.ladder.num_levels)
      << "store level count must match the resource ladder";

  const int num_brackets =
      UsesSingleBracket(options_) ? 1 : options_.ladder.num_levels;
  for (int i = 0; i < num_brackets; ++i) {
    BracketOptions bracket_options;
    bracket_options.index =
        UsesSingleBracket(options_) ? options_.selector.fixed_bracket : i + 1;
    bracket_options.ladder = options_.ladder;
    bracket_options.synchronous = false;
    bracket_options.delayed_promotion = options_.delayed_promotion;
    bracket_options.base_quota = -1;  // persistent, ever-growing rungs
    brackets_.push_back(std::make_unique<Bracket>(bracket_options));
  }
}

std::optional<Job> AsyncBracketScheduler::NextJob() {
  // 1. Promotions anywhere (Algorithm 1, lines 5-11). Brackets with the
  // cheapest base level are scanned first; within a bracket the scan is
  // top-rung-down.
  for (auto& bracket : brackets_) {
    std::optional<Job> promotion = bracket->NextPromotion(next_job_id_);
    if (promotion.has_value()) {
      ++next_job_id_;
      ++promotions_issued_;
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
  }

  // 2. New configuration at the base level of the selected bracket
  // (Algorithm 1, lines 13-14; the selector is §4.1's resource allocator).
  int index = selector_.Select(*store_);
  Bracket* bracket = nullptr;
  for (auto& b : brackets_) {
    if (b->index() == index) {
      bracket = b.get();
      break;
    }
  }
  HT_CHECK(bracket != nullptr) << "selector chose unknown bracket " << index;
  Configuration config = sampler_->Sample(bracket->base_level());
  Job job = bracket->AdmitConfig(config, next_job_id_);
  ++next_job_id_;
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

Bracket* AsyncBracketScheduler::BracketOf(const Job& job) const {
  // Every job carries the index of the bracket that issued it. Brackets are
  // stored by index (b at slot b-1), except under kFixed, whose one bracket
  // is slot 0.
  const size_t slot = UsesSingleBracket(options_)
                          ? 0
                          : static_cast<size_t>(job.bracket) - 1;
  HT_CHECK(slot < brackets_.size() && brackets_[slot]->index() == job.bracket)
      << "job " << job.job_id << " names bracket " << job.bracket
      << ", which this scheduler does not hold";
  return brackets_[slot].get();
}

bool AsyncBracketScheduler::OnJobFailed(const Job& job,
                                        const FailureInfo& info) {
  Bracket* bracket = BracketOf(job);
  if (SchedulerInterface::OnJobFailed(job, info)) return true;
  // Abandoned: drop the job from its bracket. The configuration stays in
  // the pending set so Algorithm 2 keeps imputing it at the median and the
  // sampler avoids re-proposing a crashing configuration.
  ++trials_failed_;
  bracket->OnJobAbandoned(job);
  return false;
}

void AsyncBracketScheduler::OnJobComplete(const Job& job,
                                          const EvalResult& result) {
  Bracket* bracket = BracketOf(job);
  store_->RemovePending(job.config, job.level);
  store_->Add(job.level, job.config, result.objective);
  bracket->OnJobComplete(job, result.objective);
  sampler_->OnObservation(job.config, result.objective, job.level);
}

void AsyncBracketScheduler::SetObservability(Observability* sink) {
  obs_ = sink;
  sampler_->SetObservability(sink);
}

Status AsyncBracketScheduler::Snapshot(WireEncoder* enc) const {
  // A sampler may decline (MFES); find out before encoding the brackets.
  WireEncoder sampler_state;
  HT_RETURN_IF_ERROR(sampler_->SnapshotState(&sampler_state));

  // Write the change since the encoder's snapshot base when this state
  // extends it: an earlier snapshot of this scheduler, whose rung logs are
  // all no longer than now. Otherwise write the change since empty rungs,
  // the full image.
  const Shape shape = ShapeOf(brackets_);
  Shape base = EmptyLike(shape);
  if (enc->snapshot_base() != nullptr) {
    WireDecoder dec(*enc->snapshot_base());
    Shape earlier;
    if (DecodeShape(&dec, shape, &earlier).ok() && Extends(shape, earlier)) {
      base = std::move(earlier);
    }
  }
  EncodeShape(shape, enc);
  EncodeShape(base, enc);
  enc->PutI64(next_job_id_);
  enc->PutI64(promotions_issued_);
  enc->PutI64(trials_failed_);
  for (size_t i = 0; i < brackets_.size(); ++i) {
    brackets_[i]->Snapshot(base[i], enc);
  }
  selector_.Snapshot(enc);
  enc->PutRaw(sampler_state.bytes());
  return Status::Ok();
}

Status AsyncBracketScheduler::Restore(WireDecoder* dec) {
  // Decode and check everything first, staged; mutate only once all of it
  // is accepted, so a rejected snapshot leaves the scheduler unchanged.
  const Shape current = ShapeOf(brackets_);
  Shape after;
  Shape base;
  HT_RETURN_IF_ERROR(DecodeShape(dec, current, &after));
  HT_RETURN_IF_ERROR(DecodeShape(dec, current, &base));
  if (base != current) {
    return Status::FailedPrecondition(
        "async scheduler: snapshot extends a different state than this "
        "scheduler's");
  }
  int64_t next_job_id = 0;
  int64_t promotions_issued = 0;
  int64_t trials_failed = 0;
  HT_RETURN_IF_ERROR(dec->GetI64(&next_job_id));
  HT_RETURN_IF_ERROR(dec->GetI64(&promotions_issued));
  HT_RETURN_IF_ERROR(dec->GetI64(&trials_failed));
  if (next_job_id < 0 || promotions_issued < 0 || trials_failed < 0) {
    return Status::InvalidArgument("async scheduler: negative counter");
  }

  std::vector<Bracket::Delta> deltas(brackets_.size());
  for (size_t i = 0; i < brackets_.size(); ++i) {
    HT_RETURN_IF_ERROR(brackets_[i]->Decode(dec, &deltas[i]));
    if (deltas[i].counts != after[i]) {
      return Status::InvalidArgument(
          "async scheduler: bracket state disagrees with the snapshot's "
          "rung counts");
    }
  }
  HT_RETURN_IF_ERROR(RestoreSelectorAndSampler(dec, &selector_, sampler_));

  for (size_t i = 0; i < brackets_.size(); ++i) {
    brackets_[i]->Apply(std::move(deltas[i]));
  }
  next_job_id_ = next_job_id;
  promotions_issued_ = promotions_issued;
  trials_failed_ = trials_failed;
  return Status::Ok();
}

void AsyncBracketScheduler::CheckInvariants() const {
  for (const auto& bracket : brackets_) bracket->CheckInvariants();
}

std::vector<int64_t> AsyncBracketScheduler::admissions_per_bracket() const {
  std::vector<int64_t> out;
  out.reserve(brackets_.size());
  for (const auto& bracket : brackets_) {
    // Nothing is ever promoted *into* a base level, so base-level issues
    // are exactly the sampler admissions.
    out.push_back(bracket->IssuedAt(bracket->base_level()));
  }
  return out;
}

}  // namespace hypertune
