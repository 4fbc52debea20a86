#include "src/optimizer/bo_sampler.h"

#include <algorithm>
#include <limits>

#include "src/common/logging.h"
#include "src/optimizer/median_imputation.h"
#include "src/optimizer/random_sampler.h"
#include "src/surrogate/gaussian_process.h"
#include "src/surrogate/random_forest.h"

namespace hypertune {

std::optional<Configuration> MaximizeAcquisition(
    const ConfigurationSpace& space, const MeasurementStore& store,
    const Surrogate& model, double best_objective, int seed_level,
    const AcquisitionMaximizerOptions& options, Rng* rng) {
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
  // into one design matrix, and run a single PredictBatch pass instead of
  // rebuilding the model's prediction machinery per candidate. Candidate
  // order is preserved and the winner is still the first strictly-greater
  // maximum, so the proposal matches the old per-candidate loop exactly.
  std::vector<size_t> eligible;
  eligible.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (!IsKnownConfiguration(store, candidates[i])) eligible.push_back(i);
  }
  if (eligible.empty()) return std::nullopt;

  Observability* obs = options.obs;
  if (obs != nullptr) obs->trace.BeginSpan("acq encode");
  Matrix encoded(eligible.size(), space.size(), 0.0);
  for (size_t e = 0; e < eligible.size(); ++e) {
    std::vector<double> row = space.Encode(candidates[eligible[e]]);
    HT_CHECK(row.size() == space.size()) << "encode width != space size";
    double* dst = encoded.row(e);
    for (size_t d = 0; d < row.size(); ++d) dst[d] = row[d];
  }
  if (obs != nullptr) {
    obs->trace.EndSpan("acq encode");
    obs->trace.BeginSpan("acq predict");
  }
  std::vector<Prediction> predictions = model.PredictBatch(encoded);
  if (obs != nullptr) obs->trace.EndSpan("acq predict");

  double best_acq = -std::numeric_limits<double>::infinity();
  const Configuration* best = nullptr;
  for (size_t e = 0; e < eligible.size(); ++e) {
    double acq =
        AcquisitionValue(predictions[e], best_objective, options.acquisition);
    if (acq > best_acq) {
      best_acq = acq;
      best = &candidates[eligible[e]];
    }
  }
  if (best == nullptr) return std::nullopt;
  return *best;
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

std::unique_ptr<Surrogate> BoSampler::MakeSurrogate() const {
  if (options_.surrogate == SurrogateKind::kGaussianProcess) {
    GaussianProcessOptions gp;
    gp.seed = options_.seed;
    return std::make_unique<GaussianProcess>(gp);
  }
  RandomForestOptions rf;
  rf.seed = options_.seed;
  auto forest = std::make_unique<RandomForest>(rf);
  std::vector<bool> categorical(space_->size(), false);
  for (size_t i = 0; i < space_->size(); ++i) {
    categorical[i] = space_->parameter(i).is_categorical();
  }
  forest->SetCategoricalFeatures(std::move(categorical));
  return forest;
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
  auto model = MakeSurrogate();
  const std::string span = "fit surrogate L" + std::to_string(level);
  const double fit_start = obs_ != nullptr ? obs_->trace.Now() : 0.0;
  if (obs_ != nullptr) obs_->trace.BeginSpan(span);
  const bool fit_ok = model->Fit(data.x, data.y).ok();
  if (obs_ != nullptr) {
    obs_->trace.EndSpan(span);
    obs_->metrics.Increment("sampler.fits");
    obs_->metrics.Observe("sampler.fit_seconds",
                          obs_->trace.Now() - fit_start);
    obs_->metrics.Observe("sampler.fit_points",
                          static_cast<double>(data.x.size()));
  }
  if (!fit_ok) return false;

  model_ = std::move(model);
  fitted_version_ = store_->version();
  last_fit_level_ = level;
  fit_best_ = store_->BestObjective(level);
  return true;
}

Configuration BoSampler::ProposeFromModel() {
  AcquisitionMaximizerOptions opts;
  opts.acquisition = options_.acquisition;
  opts.num_candidates = options_.num_candidates;
  opts.num_local_seeds = options_.num_local_seeds;
  opts.neighbors_per_seed = options_.neighbors_per_seed;
  opts.obs = obs_;
  const double acq_start = obs_ != nullptr ? obs_->trace.Now() : 0.0;
  if (obs_ != nullptr) obs_->trace.BeginSpan("acquisition");
  std::optional<Configuration> proposal = MaximizeAcquisition(
      *space_, *store_, *model_, fit_best_, last_fit_level_, opts, &rng_);
  if (obs_ != nullptr) {
    obs_->trace.EndSpan("acquisition");
    obs_->metrics.Increment("sampler.acquisition_calls");
    obs_->metrics.Observe("sampler.acquisition_seconds",
                          obs_->trace.Now() - acq_start);
  }
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
