#include "src/optimizer/mfes_sampler.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/optimizer/random_sampler.h"

namespace hypertune {

MfesSampler::MfesSampler(const ConfigurationSpace* space,
                         const MeasurementStore* store,
                         MfesSamplerOptions options)
    : space_(space),
      store_(store),
      options_(options),
      weights_(space, options.weights),
      rng_(options.bo.seed) {
  HT_CHECK(space_ != nullptr && store_ != nullptr)
      << "MfesSampler needs a space and a store";
  if (options_.bo.min_points == 0) {
    options_.bo.min_points = std::max<size_t>(space_->size() + 1, 6);
  }
}

bool MfesSampler::EnsureEnsemble() {
  if (fitted_version_ == store_->version() && ensemble_.fitted()) return true;

  const int num_levels = store_->num_levels();
  const bool data_changed = fitted_data_version_ != store_->data_version();
  if (base_.size() != static_cast<size_t>(num_levels)) {
    base_.clear();
    base_.resize(static_cast<size_t>(num_levels));
    fitted_sizes_.assign(static_cast<size_t>(num_levels), 0);
  }

  for (int level = 1; level <= num_levels; ++level) {
    const auto& group = store_->group(level);
    if (group.size() < options_.min_points_per_level) continue;
    // Low-fidelity members depend only on measurements, so they are reused
    // while only the pending set churns, and refreshed lazily (once their
    // group grew by ~6%); the high-fidelity member is refitted on D_K
    // augmented with median-imputed pending configurations (Algorithm 2),
    // which changes with every in-flight proposal.
    const bool is_high = (level == num_levels);
    const bool have_member = base_[static_cast<size_t>(level - 1)] != nullptr;
    if (!is_high && have_member) {
      size_t last = fitted_sizes_[static_cast<size_t>(level - 1)];
      size_t growth = std::max<size_t>(4, last / 16);
      if (!data_changed || group.size() < last + growth) continue;
    }
    // M_K's data is D_K plus its pending configs at D_K's median: when
    // neither changed, a refit would rebuild the same forest.
    uint64_t high_version = 0;
    std::vector<Configuration> high_pending;
    if (is_high) {
      high_version = store_->level_version(level);
      if (options_.bo.impute_pending) {
        high_pending = store_->PendingConfigs(level);
      }
      if (have_member && high_version == high_fit_version_ &&
          high_pending == high_fit_pending_) {
        continue;
      }
    }
    SurrogateData data =
        (is_high && options_.bo.impute_pending)
            ? BuildSurrogateDataWithPendingMedian(*space_, *store_, level)
            : BuildSurrogateData(*space_, *store_, level);
    std::unique_ptr<Surrogate> model = FitTraced(
        options_.bo.surrogate, *space_,
        CombineSeeds(options_.bo.seed, static_cast<uint64_t>(level)), data,
        level, obs_);
    if (model != nullptr) {
      base_[static_cast<size_t>(level - 1)] = std::move(model);
      fitted_sizes_[static_cast<size_t>(level - 1)] = group.size();
      if (is_high) {
        high_fit_version_ = high_version;
        high_fit_pending_ = std::move(high_pending);
      }
    }
  }

  std::vector<const Surrogate*> members;
  members.reserve(base_.size());
  bool any = false;
  for (const auto& m : base_) {
    members.push_back(m.get());
    if (m != nullptr && m->fitted()) any = true;
  }
  if (!any) return false;

  last_theta_ = weights_.ComputeTheta(*store_);
  ensemble_.SetMembers(std::move(members), last_theta_);
  if (!ensemble_.fitted()) return false;

  // EI baseline: the best high-fidelity observation when available,
  // otherwise the best of the highest level with data.
  best_level_ = store_->HighestLevelWith(1);
  fit_best_ = store_->BestObjective(best_level_);
  fitted_version_ = store_->version();
  fitted_data_version_ = store_->data_version();
  return true;
}

Configuration MfesSampler::Sample(int target_level) {
  bool enough_data =
      store_->HighestLevelWith(options_.bo.min_points) > 0 ||
      store_->TotalSize() >= 2 * options_.bo.min_points;
  bool explore = rng_.Bernoulli(options_.bo.random_fraction);
  if (explore || !enough_data || !EnsureEnsemble()) {
    RandomSampler random(space_, store_,
                         CombineSeeds(options_.bo.seed, rng_.Next64()));
    return random.Sample(target_level);
  }

  std::optional<Configuration> proposal =
      MaximizeAcquisition(*space_, *store_, ensemble_, fit_best_, best_level_,
                          options_.bo, obs_, &rng_);
  if (proposal.has_value()) return *std::move(proposal);
  RandomSampler fallback(space_, store_,
                         CombineSeeds(options_.bo.seed, store_->version()));
  return fallback.Sample(target_level);
}

}  // namespace hypertune
