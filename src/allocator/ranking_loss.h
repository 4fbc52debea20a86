#ifndef HYPERTUNE_ALLOCATOR_RANKING_LOSS_H_
#define HYPERTUNE_ALLOCATOR_RANKING_LOSS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/surrogate/surrogate.h"

namespace hypertune {

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

/// Fits a fresh random forest (MakeSurrogate with `categorical` and `seed`)
/// on design matrix `x` and targets `y`. Returns null when `x` has fewer
/// than 2 rows or the fit fails.
std::unique_ptr<Surrogate> FitSurrogate(const Matrix& x,
                                        const std::vector<double>& y,
                                        const std::vector<bool>& categorical,
                                        uint64_t seed);

/// Mean predictions of a fitted `model` at the rows of `x`.
std::vector<double> PredictMeans(const Surrogate& model, const Matrix& x);

/// K-fold cross-validated predictions of a random forest on its own data
/// (§4.1: "for the base surrogate M_K trained on D_K directly, we adopt
/// 5-fold cross-validation"). Each fold fits FitSurrogate on a selection of
/// the rows of `x`, so nothing is encoded again. Element i is the
/// prediction for row i from the fold that held it out. Returns an empty
/// vector when there are fewer rows than folds or a fold fit fails.
std::vector<double> CrossValidationPredictions(
    const Matrix& x, const std::vector<double>& y, int folds,
    const std::vector<bool>& categorical, uint64_t seed);

}  // namespace hypertune

#endif  // HYPERTUNE_ALLOCATOR_RANKING_LOSS_H_
