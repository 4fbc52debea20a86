#ifndef HYPERTUNE_ALLOCATOR_FIDELITY_WEIGHTS_H_
#define HYPERTUNE_ALLOCATOR_FIDELITY_WEIGHTS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/allocator/ranking_loss.h"
#include "src/common/status.h"
#include "src/config/space.h"
#include "src/runtime/measurement_store.h"
#include "src/runtime/wire_format.h"

namespace hypertune {

/// Options for the theta estimation of §4.1.
struct FidelityWeightsOptions {
  /// Bootstrap samples S drawn in the MCMC estimate of Eq. (2).
  int bootstrap_samples = 50;
  /// Folds for M_K's cross-validated ranking loss.
  int cv_folds = 5;
  /// Minimum measurements a low-fidelity group needs before its surrogate
  /// participates.
  size_t min_points_low = 3;
  /// Minimum |D_K| before ranking losses are meaningful; below this a
  /// data-availability fallback is used.
  size_t min_points_high = 5;
  /// Ranking losses are evaluated on at most this many D_K points (a
  /// seeded random subset) to bound the O(S * n^2) pair counting.
  size_t max_eval_points = 64;
  /// Low-fidelity base surrogates are fitted on at most this many points.
  size_t max_fit_points = 400;
  /// Recompute theta only after this many new measurements arrived since
  /// the last estimate (1 = every completion). Amortizes the surrogate
  /// refits; theta drifts slowly, so a small lag is harmless.
  uint64_t refresh_interval = 8;
  uint64_t seed = 0;

  bool operator==(const FidelityWeightsOptions&) const = default;
};

/// Estimates theta_1..K — the probability that base surrogate M_i (trained
/// on measurement group D_i) ranks configurations most consistently with
/// the ground-truth high-fidelity group D_K (Eq. 1 + Eq. 2).
///
/// Procedure (per §4.1): fit M_i on D_i for i < K and take its predictive
/// ranking on D_K's configurations; for M_K use 5-fold cross-validation.
/// Then draw S bootstrap resamples of D_K; sample s yields losses
/// l_{i,s}; theta_i is the fraction of samples in which M_i attains the
/// minimum loss (ties split uniformly at random).
///
/// Fallback before |D_K| >= min_points_high: theta is uniform over the
/// levels that already have min_points_low measurements (so early search is
/// guided by whatever fidelity has data), or uniform over all levels when
/// none do.
///
/// theta has two consumers in the paper: the MFES ensemble surrogate
/// (Eq. 3) and the bracket selector (w = c o theta). Each owns an instance,
/// and each instance has its own refresh lag: it re-estimates theta only
/// after `refresh_interval` new measurements, or 4 new high-fidelity ones,
/// since its own last estimate, so the two consumers hold estimates from
/// different store versions, and that lag is part of the run's trajectory
/// (see Snapshot).
///
/// Fresh estimates of the two consumers still refit the same surrogates
/// whenever a group has not changed in between, so instances can share one
/// fit cache (ShareFitCacheWith), created on the first fresh estimate. It
/// holds, per level i < K, the forest fitted on D_i's capped data, keyed by
/// the store's level_version(i), and M_K's cross-validation predictions,
/// keyed by level_version(K) and the evaluation subset. Those keys change
/// whenever the data behind an entry does, so the cache is a pure function
/// of the store's contents: it changes no estimate and is never serialized.
class FidelityWeights {
 public:
  FidelityWeights(const ConfigurationSpace* space,
                  FidelityWeightsOptions options);
  ~FidelityWeights();

  FidelityWeights(const FidelityWeights&) = delete;
  FidelityWeights& operator=(const FidelityWeights&) = delete;

  /// Makes this instance fit through `owner`'s fit cache instead of its
  /// own; `owner` keeps its own cache (no chains). Both must estimate theta
  /// over the same space with equal options (checked), so a shared fit is
  /// the fit either would make. `owner` must outlive this instance's later
  /// ComputeTheta calls, and the two must not run ComputeTheta
  /// concurrently (every backend drives the scheduler, which calls both,
  /// from one thread at a time).
  void ShareFitCacheWith(FidelityWeights* owner);

  /// Work done by the fit cache this instance uses (shared or its own).
  struct FitCounts {
    /// Low-fidelity surrogates fitted (one per cache miss of a level < K).
    uint64_t level_fits = 0;
    /// Cross-validation passes for M_K (each fits cv_folds surrogates).
    uint64_t cv_passes = 0;
  };
  /// For tests and diagnostics; zero until the first fresh estimate.
  FitCounts fit_counts() const;

  /// Returns theta (size = store.num_levels(), sums to 1).
  const std::vector<double>& ComputeTheta(const MeasurementStore& store);

  /// True when the last ComputeTheta used ranking losses (not the
  /// data-availability fallback). For tests and diagnostics.
  bool used_ranking_loss() const { return used_ranking_loss_; }

  /// Serializes the theta cache. The cache is trajectory-bearing: theta is
  /// refreshed only every `refresh_interval` store versions, so a resumed
  /// run must keep serving the same (deliberately lagged) estimate the
  /// original run was holding — recomputing eagerly at the restore point
  /// would hand the bracket selector a different distribution and diverge
  /// from replay. Each recomputation itself is deterministic (seeded from
  /// the store version), so the theta cache fields are the entire
  /// trajectory-bearing state; the fit cache is derived from the store and
  /// is not serialized.
  void Snapshot(WireEncoder* enc) const;

  /// Restores state produced by Snapshot() on an identically configured
  /// instance. Rejected bytes leave it unchanged.
  [[nodiscard]] Status Restore(WireDecoder* dec);

 private:
  /// Fitted surrogates and predictions reused across fresh estimates
  /// (defined in the .cc file).
  struct FitCache;

  /// The cache this instance fits through: the owner's when shared,
  /// otherwise its own; created on first use.
  FitCache& fit_cache();

  const ConfigurationSpace* space_;
  FidelityWeightsOptions options_;
  FidelityWeights* fit_cache_owner_ = nullptr;  // not owned
  std::unique_ptr<FitCache> fit_cache_;

  std::vector<double> cached_theta_;
  uint64_t cached_version_ = ~uint64_t{0};
  size_t cached_high_size_ = 0;
  int cached_levels_ = 0;
  bool used_ranking_loss_ = false;
};

}  // namespace hypertune

#endif  // HYPERTUNE_ALLOCATOR_FIDELITY_WEIGHTS_H_
