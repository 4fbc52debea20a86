#include "src/optimizer/rea_sampler.h"

#include "src/common/logging.h"
#include "src/optimizer/random_sampler.h"

namespace hypertune {

ReaSampler::ReaSampler(const ConfigurationSpace* space,
                       const MeasurementStore* store,
                       ReaSamplerOptions options)
    : space_(space), store_(store), options_(options), rng_(options.seed) {
  HT_CHECK(space_ != nullptr) << "ReaSampler needs a space";
  HT_CHECK(options_.population_size >= 2) << "population size must be >= 2";
  HT_CHECK(options_.tournament_size >= 1) << "tournament size must be >= 1";
}

Configuration ReaSampler::Sample(int target_level) {
  if (population_.size() < options_.population_size) {
    RandomSampler random(space_, store_,
                         CombineSeeds(options_.seed, rng_.Next64()));
    return random.Sample(target_level);
  }
  // Tournament selection: best fitness among a uniform sample.
  size_t tournament =
      std::min(options_.tournament_size, population_.size());
  std::vector<size_t> entrants =
      rng_.SampleWithoutReplacement(population_.size(), tournament);
  const Individual* parent = nullptr;
  for (size_t idx : entrants) {
    if (parent == nullptr || population_[idx].fitness < parent->fitness) {
      parent = &population_[idx];
    }
  }
  Configuration child = space_->Neighbor(
      parent->config, 0.2, options_.mutations_per_child, &rng_);
  // Avoid resubmitting known configurations where possible.
  if (store_ != nullptr) {
    for (int attempt = 0;
         attempt < 8 && IsKnownConfiguration(*store_, child); ++attempt) {
      child = space_->Neighbor(parent->config, 0.2,
                               options_.mutations_per_child, &rng_);
    }
  }
  return child;
}

void ReaSampler::OnObservation(const Configuration& config, double objective,
                               int level) {
  if (options_.min_level > 0 && level < options_.min_level) return;
  population_.push_back(Individual{config, objective});
  while (population_.size() > options_.population_size) {
    population_.pop_front();  // regularization: the oldest dies
  }
}

}  // namespace hypertune
