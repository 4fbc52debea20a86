#include "src/optimizer/bo_sampler.h"

#include <algorithm>
#include <limits>
#include <string>

#include "src/common/logging.h"
#include "src/optimizer/random_sampler.h"

namespace hypertune {

std::optional<Configuration> MaximizeAcquisition(
    const ConfigurationSpace& space, const MeasurementStore& store,
    const Surrogate& model, double best_objective, int seed_level,
    const BoSamplerOptions& options, Observability* obs, Rng* rng) {
  const double start = obs != nullptr ? obs->trace.Now() : 0.0;
  if (obs != nullptr) obs->trace.BeginSpan("acquisition");
  std::vector<Configuration> candidates;
  candidates.reserve(static_cast<size_t>(options.num_candidates) +
                     static_cast<size_t>(options.num_local_seeds *
                                         options.neighbors_per_seed));
  for (int i = 0; i < options.num_candidates; ++i) {
    candidates.push_back(space.Sample(rng));
  }
  if (seed_level >= 1 && seed_level <= store.num_levels()) {
    const auto& group = store.group(seed_level);
    std::vector<size_t> order(group.size());
    for (size_t i = 0; i < group.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return group[a].objective < group[b].objective;
    });
    size_t num_seeds = std::min<size_t>(
        order.size(), static_cast<size_t>(options.num_local_seeds));
    for (size_t s = 0; s < num_seeds; ++s) {
      const Configuration& seed_config = group[order[s]].config;
      for (int n = 0; n < options.neighbors_per_seed; ++n) {
        candidates.push_back(space.Neighbor(seed_config, 0.2, 1, rng));
      }
    }
  }

  // Batched scoring: filter out candidates already measured or pending (to
  // avoid duplicate proposals in small discrete spaces), encode the rest
  // straight into the rows of one design matrix, and run a single
  // PredictBatch pass instead of rebuilding the model's prediction
  // machinery per candidate. Candidate order is preserved and the winner is
  // still the first strictly-greater maximum, so the proposal matches the
  // old per-candidate loop exactly.
  std::vector<size_t> eligible;
  eligible.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (!IsKnownConfiguration(store, candidates[i])) eligible.push_back(i);
  }
  const Configuration* best = nullptr;
  if (!eligible.empty()) {
    if (obs != nullptr) obs->trace.BeginSpan("acq encode");
    Matrix encoded(eligible.size(), space.size());
    for (size_t e = 0; e < eligible.size(); ++e) {
      space.EncodeInto(candidates[eligible[e]], encoded.row(e));
    }
    if (obs != nullptr) {
      obs->trace.EndSpan("acq encode");
      obs->trace.BeginSpan("acq predict");
    }
    std::vector<Prediction> predictions = model.PredictBatch(encoded);
    if (obs != nullptr) obs->trace.EndSpan("acq predict");

    double best_acq = -std::numeric_limits<double>::infinity();
    for (size_t e = 0; e < eligible.size(); ++e) {
      double acq = AcquisitionValue(predictions[e], best_objective,
                                    options.acquisition);
      if (acq > best_acq) {
        best_acq = acq;
        best = &candidates[eligible[e]];
      }
    }
  }
  if (obs != nullptr) {
    obs->trace.EndSpan("acquisition");
    obs->metrics.Increment("sampler.acquisition_calls");
    obs->metrics.Observe("sampler.acquisition_seconds",
                         obs->trace.Now() - start);
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

std::unique_ptr<Surrogate> FitTraced(SurrogateKind kind,
                                     const ConfigurationSpace& space,
                                     uint64_t seed, const SurrogateData& data,
                                     int level, Observability* obs) {
  std::unique_ptr<Surrogate> model =
      MakeSurrogate(kind, space.CategoricalMask(), seed);
  const std::string span = "fit surrogate L" + std::to_string(level);
  const double start = obs != nullptr ? obs->trace.Now() : 0.0;
  if (obs != nullptr) obs->trace.BeginSpan(span);
  const bool fit_ok = model->Fit(data.x, data.y).ok();
  if (obs != nullptr) {
    obs->trace.EndSpan(span);
    obs->metrics.Increment("sampler.fits");
    obs->metrics.Observe("sampler.fit_seconds", obs->trace.Now() - start);
    obs->metrics.Observe("sampler.fit_points",
                         static_cast<double>(data.x.rows()));
  }
  if (!fit_ok) return nullptr;
  return model;
}

BoSampler::BoSampler(const ConfigurationSpace* space,
                     const MeasurementStore* store, BoSamplerOptions options)
    : space_(space),
      store_(store),
      options_(options),
      rng_(options.seed) {
  HT_CHECK(space_ != nullptr && store_ != nullptr)
      << "BoSampler needs a space and a store";
  if (options_.min_points == 0) {
    options_.min_points = std::max<size_t>(space_->size() + 1, 6);
  }
}

std::string BoSampler::name() const {
  return options_.surrogate == SurrogateKind::kRandomForest ? "bo-rf" : "bo-gp";
}

Status BoSampler::SnapshotState(WireEncoder* enc) const {
  enc->PutString(rng_.SerializeState());
  return Status::Ok();
}

Status BoSampler::RestoreState(WireDecoder* dec) {
  std::string state;
  HT_RETURN_IF_ERROR(dec->GetString(&state));
  HT_RETURN_IF_ERROR(rng_.DeserializeState(state));
  // Drop the surrogate cache: the next Sample() refits from the restored
  // store, reproducing the model the snapshotted run was holding.
  model_ = nullptr;
  fitted_version_ = ~uint64_t{0};
  last_fit_level_ = 0;
  fit_best_ = 0.0;
  return Status::Ok();
}

bool BoSampler::EnsureModel() {
  int level = store_->HighestLevelWith(options_.min_points);
  if (level == 0) return false;

  if (model_ != nullptr && fitted_version_ == store_->version() &&
      last_fit_level_ == level) {
    return true;
  }

  SurrogateData data =
      options_.impute_pending
          ? BuildSurrogateDataWithPendingMedian(*space_, *store_, level)
          : BuildSurrogateData(*space_, *store_, level);
  std::unique_ptr<Surrogate> model =
      FitTraced(options_.surrogate, *space_, options_.seed, data, level, obs_);
  if (model == nullptr) return false;

  model_ = std::move(model);
  fitted_version_ = store_->version();
  last_fit_level_ = level;
  fit_best_ = store_->BestObjective(level);
  return true;
}

Configuration BoSampler::ProposeFromModel() {
  std::optional<Configuration> proposal =
      MaximizeAcquisition(*space_, *store_, *model_, fit_best_,
                          last_fit_level_, options_, obs_, &rng_);
  if (proposal.has_value()) return *std::move(proposal);
  // Every candidate was a duplicate: fall back to (deduplicated) random.
  RandomSampler fallback(space_, store_,
                         CombineSeeds(options_.seed, store_->version()));
  return fallback.Sample(last_fit_level_);
}

Configuration BoSampler::Sample(int target_level) {
  bool explore = rng_.Bernoulli(options_.random_fraction);
  if (explore || !EnsureModel()) {
    RandomSampler random(space_, store_,
                         CombineSeeds(options_.seed, rng_.Next64()));
    return random.Sample(target_level);
  }
  return ProposeFromModel();
}

}  // namespace hypertune
