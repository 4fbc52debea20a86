#include "src/optimizer/kde_sampler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"
#include "src/common/statistics.h"
#include "src/optimizer/random_sampler.h"

namespace hypertune {

KdeSampler::KdeSampler(const ConfigurationSpace* space,
                       const MeasurementStore* store,
                       KdeSamplerOptions options)
    : space_(space), store_(store), options_(options), rng_(options.seed) {
  HT_CHECK(space_ != nullptr && store_ != nullptr)
      << "KdeSampler needs a space and a store";
  if (options_.min_points == 0) {
    options_.min_points = space_->size() + 2;
  }
}

KdeSampler::Density KdeSampler::FitDensity(
    const std::vector<std::vector<double>>& unit_rows) const {
  Density density;
  const size_t dim = space_->size();
  density.numeric_centers.resize(dim);
  density.numeric_bandwidths.assign(dim, options_.min_bandwidth);
  density.category_weights.resize(dim);

  const double n = static_cast<double>(unit_rows.size());
  for (size_t d = 0; d < dim; ++d) {
    const Parameter& p = space_->parameter(d);
    if (p.is_categorical() || p.type() == ParameterType::kOrdinal) {
      // Laplace-smoothed histogram over choices (unit centers map back to
      // choice indices through FromUnit).
      std::vector<double> weights(p.num_choices(), 1.0);
      for (const auto& row : unit_rows) {
        size_t idx = static_cast<size_t>(p.FromUnit(row[d]));
        if (idx < weights.size()) weights[idx] += 1.0;
      }
      density.category_weights[d] = std::move(weights);
    } else {
      std::vector<double> values;
      values.reserve(unit_rows.size());
      for (const auto& row : unit_rows) values.push_back(row[d]);
      double sd = StdDev(values);
      // Scott's rule, floored so duplicated points keep exploring.
      double bandwidth = options_.bandwidth_factor * 1.06 *
                         std::max(sd, 1e-3) * std::pow(n, -0.2);
      density.numeric_bandwidths[d] =
          std::max(bandwidth, options_.min_bandwidth);
      density.numeric_centers[d] = std::move(values);
    }
  }
  return density;
}

double KdeSampler::LogDensity(const Density& density,
                              const std::vector<double>& unit) const {
  double log_density = 0.0;
  const size_t dim = space_->size();
  for (size_t d = 0; d < dim; ++d) {
    const Parameter& p = space_->parameter(d);
    if (p.is_categorical() || p.type() == ParameterType::kOrdinal) {
      const auto& weights = density.category_weights[d];
      size_t idx = static_cast<size_t>(p.FromUnit(unit[d]));
      double total = 0.0;
      for (double w : weights) total += w;
      double prob = (idx < weights.size() && total > 0.0)
                        ? weights[idx] / total
                        : 1e-12;
      log_density += std::log(prob);
    } else {
      const auto& centers = density.numeric_centers[d];
      if (centers.empty()) continue;
      double h = density.numeric_bandwidths[d];
      double mix = 0.0;
      for (double c : centers) {
        double z = (unit[d] - c) / h;
        mix += std::exp(-0.5 * z * z);
      }
      mix /= (static_cast<double>(centers.size()) * h * 2.5066282746310002);
      log_density += std::log(std::max(mix, 1e-300));
    }
  }
  return log_density;
}

std::vector<double> KdeSampler::SampleFromDensity(const Density& density) {
  const size_t dim = space_->size();
  std::vector<double> unit(dim, 0.5);
  for (size_t d = 0; d < dim; ++d) {
    const Parameter& p = space_->parameter(d);
    if (p.is_categorical() || p.type() == ParameterType::kOrdinal) {
      size_t idx = rng_.Categorical(density.category_weights[d]);
      unit[d] = p.ToUnit(static_cast<double>(idx));
    } else {
      const auto& centers = density.numeric_centers[d];
      if (centers.empty()) {
        unit[d] = rng_.Uniform();
        continue;
      }
      size_t pick = static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(centers.size()) - 1));
      unit[d] = Clamp(
          rng_.Gaussian(centers[pick], density.numeric_bandwidths[d]), 0.0,
          1.0);
    }
  }
  return unit;
}

Configuration KdeSampler::Sample(int target_level) {
  last_fit_level_ = 0;
  int level = store_->HighestLevelWith(options_.min_points);
  bool explore = rng_.Bernoulli(options_.random_fraction);
  if (level == 0 || explore) {
    RandomSampler random(space_, store_,
                         CombineSeeds(options_.seed, rng_.Next64()));
    return random.Sample(target_level);
  }

  // Split the group into good (best gamma fraction) and bad.
  const auto& group = store_->group(level);
  std::vector<size_t> order(group.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return group[a].objective < group[b].objective;
  });
  size_t num_good = std::max<size_t>(
      2, static_cast<size_t>(options_.good_fraction *
                             static_cast<double>(group.size())));
  num_good = std::min(num_good, group.size() - 1);

  std::vector<std::vector<double>> good_rows, bad_rows;
  for (size_t i = 0; i < order.size(); ++i) {
    std::vector<double> unit = space_->Encode(group[order[i]].config);
    if (i < num_good) {
      good_rows.push_back(std::move(unit));
    } else {
      bad_rows.push_back(std::move(unit));
    }
  }
  if (bad_rows.size() < 2) {
    RandomSampler random(space_, store_,
                         CombineSeeds(options_.seed, rng_.Next64()));
    return random.Sample(target_level);
  }

  Density good = FitDensity(good_rows);
  Density bad = FitDensity(bad_rows);
  last_fit_level_ = level;

  double best_score = -std::numeric_limits<double>::infinity();
  std::vector<double> best_unit;
  for (int i = 0; i < options_.num_candidates; ++i) {
    std::vector<double> unit = SampleFromDensity(good);
    double score = LogDensity(good, unit) - LogDensity(bad, unit);
    if (score > best_score) {
      best_score = score;
      best_unit = std::move(unit);
    }
  }
  if (best_unit.empty()) {
    RandomSampler random(space_, store_,
                         CombineSeeds(options_.seed, rng_.Next64()));
    return random.Sample(target_level);
  }
  Configuration proposal = space_->Decode(best_unit);
  // Deduplicate against known configurations with a bounded retry.
  for (int attempt = 0;
       attempt < 8 && IsKnownConfiguration(*store_, proposal); ++attempt) {
    proposal = space_->Decode(SampleFromDensity(good));
  }
  return proposal;
}

}  // namespace hypertune
