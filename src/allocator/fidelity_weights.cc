#include "src/allocator/fidelity_weights.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace hypertune {
namespace {

/// Encodes the configurations of `group[rows[j]]` into row j of `*x` and
/// their objectives into `(*y)[j]`.
void EncodeRows(const ConfigurationSpace& space,
                const std::vector<Measurement>& group,
                const std::vector<size_t>& rows, Matrix* x,
                std::vector<double>* y) {
  *x = Matrix(rows.size(), space.size());
  y->resize(rows.size());
  for (size_t j = 0; j < rows.size(); ++j) {
    space.EncodeInto(group[rows[j]].config, x->row(j));
    (*y)[j] = group[rows[j]].objective;
  }
}

}  // namespace

struct FidelityWeights::FitCache {
  /// A level's surrogate, fitted on its capped group.
  struct LevelFit {
    /// store level_version() the model was fitted at; ~0 = never fitted.
    uint64_t version = ~uint64_t{0};
    /// Null when the group was too small or the fit failed.
    std::unique_ptr<Surrogate> model;
  };

  /// MeasurementStore::id() of the store every entry was fitted on.
  uint64_t store_id = 0;
  std::vector<LevelFit> levels;  // index 0 <-> level 1; K - 1 entries
  /// M_K's cross-validation predictions on the rows `cv_rows` of D_K at
  /// level_version(K) == `cv_version`.
  uint64_t cv_version = ~uint64_t{0};
  std::vector<size_t> cv_rows;
  std::vector<double> cv_predictions;
  FitCounts counts;
};

FidelityWeights::FidelityWeights(const ConfigurationSpace* space,
                                 FidelityWeightsOptions options)
    : space_(space), options_(options) {
  HT_CHECK(space_ != nullptr) << "FidelityWeights needs a space";
}

FidelityWeights::~FidelityWeights() = default;

void FidelityWeights::ShareFitCacheWith(FidelityWeights* owner) {
  HT_CHECK(owner != nullptr && owner != this &&
           owner->fit_cache_owner_ == nullptr)
      << "share the fit cache of an instance that keeps its own";
  HT_CHECK(owner->space_ == space_ && owner->options_ == options_)
      << "theta instances sharing fits need one space and equal options";
  fit_cache_owner_ = owner;
  fit_cache_.reset();
}

FidelityWeights::FitCache& FidelityWeights::fit_cache() {
  FidelityWeights* holder = fit_cache_owner_ != nullptr ? fit_cache_owner_
                                                        : this;
  if (holder->fit_cache_ == nullptr) {
    holder->fit_cache_ = std::make_unique<FitCache>();
  }
  return *holder->fit_cache_;
}

FidelityWeights::FitCounts FidelityWeights::fit_counts() const {
  const FidelityWeights* holder =
      fit_cache_owner_ != nullptr ? fit_cache_owner_ : this;
  return holder->fit_cache_ != nullptr ? holder->fit_cache_->counts
                                       : FitCounts{};
}

void FidelityWeights::Snapshot(WireEncoder* enc) const {
  enc->PutDoubles(cached_theta_);
  enc->PutU64(cached_version_);
  enc->PutU64(static_cast<uint64_t>(cached_high_size_));
  enc->PutI32(cached_levels_);
  enc->PutBool(used_ranking_loss_);
}

Status FidelityWeights::Restore(WireDecoder* dec) {
  std::vector<double> theta;
  uint64_t version = 0;
  uint64_t high_size = 0;
  int32_t levels = 0;
  bool used = false;
  HT_RETURN_IF_ERROR(dec->GetDoubles(&theta));
  HT_RETURN_IF_ERROR(dec->GetU64(&version));
  HT_RETURN_IF_ERROR(dec->GetU64(&high_size));
  HT_RETURN_IF_ERROR(dec->GetI32(&levels));
  HT_RETURN_IF_ERROR(dec->GetBool(&used));
  if (levels < 0) {
    return Status::InvalidArgument("fidelity weights: negative level count");
  }
  cached_theta_ = std::move(theta);
  cached_version_ = version;
  cached_high_size_ = static_cast<size_t>(high_size);
  cached_levels_ = levels;
  used_ranking_loss_ = used;
  return Status::Ok();
}

const std::vector<double>& FidelityWeights::ComputeTheta(
    const MeasurementStore& store) {
  const int num_levels = store.num_levels();
  const auto& high_group = store.group(num_levels);
  // Reuse the cache unless the data changed enough: a fresh estimate is
  // forced when the ladder changed, and otherwise only after
  // `refresh_interval` new measurements or new high-fidelity data.
  if (cached_levels_ == num_levels && !cached_theta_.empty()) {
    bool high_grown = high_group.size() >= cached_high_size_ + 4;
    bool stale =
        store.data_version() >= cached_version_ + options_.refresh_interval;
    if (!high_grown && !stale) return cached_theta_;
  }

  std::vector<double> theta(static_cast<size_t>(num_levels), 0.0);
  used_ranking_loss_ = false;

  if (high_group.size() < options_.min_points_high || num_levels == 1) {
    // Data-availability fallback: uniform over levels that have data.
    size_t with_data = 0;
    for (int level = 1; level <= num_levels; ++level) {
      if (store.group(level).size() >= options_.min_points_low) ++with_data;
    }
    for (int level = 1; level <= num_levels; ++level) {
      if (with_data > 0) {
        theta[static_cast<size_t>(level - 1)] =
            store.group(level).size() >= options_.min_points_low
                ? 1.0 / static_cast<double>(with_data)
                : 0.0;
      } else {
        theta[static_cast<size_t>(level - 1)] =
            1.0 / static_cast<double>(num_levels);
      }
    }
  } else {
    FitCache& cache = fit_cache();
    if (cache.store_id != store.id() ||
        cache.levels.size() != static_cast<size_t>(num_levels - 1)) {
      cache.store_id = store.id();
      cache.levels.clear();
      cache.levels.resize(static_cast<size_t>(num_levels - 1));
      cache.cv_version = ~uint64_t{0};
    }
    Rng rng(CombineSeeds(options_.seed, store.data_version()));
    const std::vector<bool> categorical = space_->CategoricalMask();

    // Evaluation rows of D_K (a random subset caps the O(S n^2) pair
    // counting), encoded once: every base surrogate predicts them, and M_K's
    // cross-validation folds fit and predict selections of them.
    std::vector<size_t> eval_rows;
    if (high_group.size() <= options_.max_eval_points) {
      eval_rows.resize(high_group.size());
      std::iota(eval_rows.begin(), eval_rows.end(), size_t{0});
    } else {
      eval_rows = rng.SampleWithoutReplacement(high_group.size(),
                                               options_.max_eval_points);
    }
    Matrix eval_x;
    std::vector<double> truths;
    EncodeRows(*space_, high_group, eval_rows, &eval_x, &truths);

    // Predictions of each base surrogate at the evaluation rows, fitting
    // only what the cache does not hold for the current data.
    std::vector<std::vector<double>> predictions(
        static_cast<size_t>(num_levels));
    if (!eval_rows.empty()) {
      for (int level = 1; level < num_levels; ++level) {
        FitCache::LevelFit& fit = cache.levels[static_cast<size_t>(level - 1)];
        const uint64_t version = store.level_version(level);
        if (fit.version != version) {
          // Only the rows the training cap keeps are encoded.
          const std::vector<Measurement>& group = store.group(level);
          std::vector<double> objectives(group.size());
          for (size_t i = 0; i < group.size(); ++i) {
            objectives[i] = group[i].objective;
          }
          Matrix x;
          std::vector<double> y;
          EncodeRows(*space_, group,
                     KeepBestAndRecent(objectives, options_.max_fit_points),
                     &x, &y);
          fit.model = FitSurrogate(x, y, categorical, options_.seed);
          fit.version = version;
          ++cache.counts.level_fits;
        }
        if (fit.model != nullptr) {
          predictions[static_cast<size_t>(level - 1)] =
              PredictMeans(*fit.model, eval_x);
        }
      }
      const uint64_t high_version = store.level_version(num_levels);
      if (cache.cv_version != high_version || cache.cv_rows != eval_rows) {
        cache.cv_predictions = CrossValidationPredictions(
            eval_x, truths, options_.cv_folds, categorical, options_.seed);
        cache.cv_version = high_version;
        cache.cv_rows = eval_rows;
        ++cache.counts.cv_passes;
      }
      predictions[static_cast<size_t>(num_levels - 1)] = cache.cv_predictions;
    }

    // Bootstrap "MCMC" estimate of Eq. (2): resample the evaluation
    // subset; the surrogate with minimum loss on a resample collects a
    // vote; theta_i is its vote share.
    // Each level's pair indicators are computed once; a resample's loss
    // is then counted from its multiplicities.
    size_t n = eval_rows.size();
    std::vector<std::vector<uint8_t>> misranked(
        static_cast<size_t>(num_levels));
    for (int level = 1; level <= num_levels; ++level) {
      const auto& preds = predictions[static_cast<size_t>(level - 1)];
      if (!preds.empty()) {
        misranked[static_cast<size_t>(level - 1)] =
            MisrankedPairs(preds, truths);
      }
    }
    int votes_total = 0;
    std::vector<int> votes(static_cast<size_t>(num_levels), 0);
    std::vector<int32_t> counts(n);
    for (int s = 0; s < options_.bootstrap_samples; ++s) {
      std::fill(counts.begin(), counts.end(), 0);
      for (size_t i = 0; i < n; ++i) {
        ++counts[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(n) - 1))];
      }
      int64_t best_loss = std::numeric_limits<int64_t>::max();
      std::vector<int> winners;
      for (int level = 1; level <= num_levels; ++level) {
        if (predictions[static_cast<size_t>(level - 1)].empty()) continue;
        int64_t loss = CountMisrankedPairsWithCounts(
            misranked[static_cast<size_t>(level - 1)], counts);
        if (loss < best_loss) {
          best_loss = loss;
          winners.assign(1, level);
        } else if (loss == best_loss) {
          winners.push_back(level);
        }
      }
      if (winners.empty()) continue;
      int winner = winners[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(winners.size()) - 1))];
      ++votes[static_cast<size_t>(winner - 1)];
      ++votes_total;
    }

    if (votes_total > 0) {
      used_ranking_loss_ = true;
      for (int level = 1; level <= num_levels; ++level) {
        theta[static_cast<size_t>(level - 1)] =
            static_cast<double>(votes[static_cast<size_t>(level - 1)]) /
            static_cast<double>(votes_total);
      }
    } else {
      // Every surrogate failed to produce predictions: trust D_K only.
      theta[static_cast<size_t>(num_levels - 1)] = 1.0;
    }
  }

  cached_theta_ = std::move(theta);
  cached_version_ = store.data_version();
  cached_high_size_ = high_group.size();
  cached_levels_ = num_levels;
  return cached_theta_;
}

}  // namespace hypertune
