#ifndef HYPERTUNE_ALLOCATOR_RANKING_LOSS_H_
#define HYPERTUNE_ALLOCATOR_RANKING_LOSS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/config/space.h"
#include "src/runtime/measurement_store.h"
#include "src/surrogate/surrogate.h"

namespace hypertune {

/// Factory producing fresh, unfitted surrogates (one per base model fit).
using SurrogateFactory = std::function<std::unique_ptr<Surrogate>()>;

/// Eq. (1): number of mis-ranked pairs between `predictions` and ground
/// truth `truths` over all ordered pairs (j, k):
///   L = sum_j sum_k 1[(pred_j < pred_k) XOR (y_j < y_k)].
/// Requires equal sizes.
int64_t CountMisrankedPairs(const std::vector<double>& predictions,
                            const std::vector<double>& truths);

/// Like CountMisrankedPairs but restricted to the index multiset `subset`
/// (a bootstrap resample of [0, n)); used by the MCMC estimate of theta
/// (Eq. 2).
int64_t CountMisrankedPairsOnSubset(const std::vector<double>& predictions,
                                    const std::vector<double>& truths,
                                    const std::vector<size_t>& subset);

/// Eq. (1)'s pair indicators, row-major n x n: entry (j, k) is 1 when
/// `predictions` and `truths` order j and k differently. Requires equal
/// sizes.
std::vector<uint8_t> MisrankedPairs(const std::vector<double>& predictions,
                                    const std::vector<double>& truths);

/// CountMisrankedPairsOnSubset for the multiset holding index i counts[i]
/// times, from MisrankedPairs' indicators: each ordered pair of multiset
/// members contributes its indicator once, so the count is exactly the
/// subset version's.
int64_t CountMisrankedPairsWithCounts(const std::vector<uint8_t>& misranked,
                                      const std::vector<int32_t>& counts);

/// Fits a fresh surrogate on `fit_on`. Returns null when `fit_on` is too
/// small (< 2) or the fit fails.
std::unique_ptr<Surrogate> FitSurrogate(const ConfigurationSpace& space,
                                        const std::vector<Measurement>& fit_on,
                                        const SurrogateFactory& factory);

/// Mean predictions of a fitted `model` at the configurations of `eval_at`.
std::vector<double> PredictMeans(const ConfigurationSpace& space,
                                 const Surrogate& model,
                                 const std::vector<Measurement>& eval_at);

/// K-fold cross-validated predictions of a surrogate on its own data
/// (§4.1: "for the base surrogate M_K trained on D_K directly, we adopt
/// 5-fold cross-validation"). Element i is the prediction for data[i] from
/// the fold that held it out. Returns an empty vector when |data| < folds
/// or a fold fit fails.
std::vector<double> CrossValidationPredictions(
    const ConfigurationSpace& space, const std::vector<Measurement>& data,
    int folds, const SurrogateFactory& factory, uint64_t seed);

}  // namespace hypertune

#endif  // HYPERTUNE_ALLOCATOR_RANKING_LOSS_H_
