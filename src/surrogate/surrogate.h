#ifndef HYPERTUNE_SURROGATE_SURROGATE_H_
#define HYPERTUNE_SURROGATE_SURROGATE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/linalg/matrix.h"

namespace hypertune {

/// Posterior prediction of a probabilistic surrogate at one input point.
struct Prediction {
  double mean = 0.0;
  double variance = 0.0;
};

/// Interface of probabilistic regression surrogates M: p(f | D).
///
/// This is the paper's "fit and predict APIs for surrogate model" (§4.3):
/// every optimizer interacts with surrogates only through this interface,
/// which is what makes the multi-fidelity ensemble and the drop-in
/// replacement of optimizers possible.
///
/// Inputs are unit-cube-encoded configurations (ConfigurationSpace::Encode),
/// one per row of a Matrix for both Fit and PredictBatch; outputs are raw
/// objective values with *lower is better* convention. Implementations
/// standardize targets internally.
class Surrogate {
 public:
  virtual ~Surrogate() = default;

  /// Fits the model on design matrix `x` (n rows, d columns) and targets
  /// `y` (n values). Refitting replaces previous state.
  [[nodiscard]] virtual Status Fit(const Matrix& x,
                                   const std::vector<double>& y) = 0;

  /// Posterior mean/variance at `x`. Requires fitted().
  virtual Prediction Predict(const std::vector<double>& x) const = 0;

  /// Posterior mean/variance for a batch of inputs, one encoded candidate
  /// per row of `x`. Requires fitted(). Result row i is bit-identical to
  /// Predict(row i): implementations evaluate the batch in one pass but
  /// keep each candidate's arithmetic order.
  virtual std::vector<Prediction> PredictBatch(const Matrix& x) const = 0;

  /// True once Fit succeeded with at least one observation.
  virtual bool fitted() const = 0;

  /// Number of observations the model was fitted on (0 if unfitted).
  virtual size_t num_observations() const = 0;
};

/// Which probabilistic model a model-based sampler fits.
enum class SurrogateKind {
  kRandomForest,     ///< robust default for mixed/categorical spaces
  kGaussianProcess,  ///< preferable for small continuous spaces
};

/// A fresh, unfitted surrogate of `kind` with default options and `seed`.
/// A random forest splits the dimensions flagged in `categorical` by
/// equality; a Gaussian process ignores the flags.
std::unique_ptr<Surrogate> MakeSurrogate(SurrogateKind kind,
                                         const std::vector<bool>& categorical,
                                         uint64_t seed);

/// The training cap every surrogate applies: the rows a training set of
/// targets `y` keeps at `max_points`, in ascending order. That is every row
/// when there are at most `max_points`; otherwise the max_points / 2 rows
/// with the lowest targets, then the most recent of the rest (rows arrive
/// in completion order) up to `max_points`.
std::vector<size_t> KeepBestAndRecent(const std::vector<double>& y,
                                      size_t max_points);

}  // namespace hypertune

#endif  // HYPERTUNE_SURROGATE_SURROGATE_H_
