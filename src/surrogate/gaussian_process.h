#ifndef HYPERTUNE_SURROGATE_GAUSSIAN_PROCESS_H_
#define HYPERTUNE_SURROGATE_GAUSSIAN_PROCESS_H_

#include <cstdint>
#include <vector>

#include "src/linalg/cholesky.h"
#include "src/surrogate/kernel.h"
#include "src/surrogate/surrogate.h"

namespace hypertune {

/// Options controlling GP hyper-parameter fitting.
struct GaussianProcessOptions {
  /// Maximize the log marginal likelihood over kernel hyper-parameters;
  /// when false, fixed default hyper-parameters are used (fast).
  bool optimize_hyperparameters = true;
  /// Number of random restarts for the likelihood search.
  int num_restarts = 16;
  /// Coordinate-refinement sweeps after the random search.
  int refine_sweeps = 2;
  /// Training points beyond this cap are subsampled (KeepBestAndRecent) to
  /// bound the O(n^3) cost.
  size_t max_points = 300;
  /// Seed for the (deterministic) hyper-parameter search.
  uint64_t seed = 0;
};

/// Kernel parameters decoded from a log-space hyper-parameter vector
/// phi = [log l_1..d, log s2, log n2].
struct KernelPhiParams {
  std::vector<double> lengthscales;
  double signal_variance = 1.0;
  double noise_variance = 1e-3;
};

/// Maps `phi` to kernel parameters, applying the clamps the likelihood
/// search scores with (log lengthscales and log signal variance to
/// [-6, 4], log noise variance to [-12, 2]) before exponentiating. Both
/// Lml scoring and the final install go through this helper so the model
/// can never install parameters outside the scored region.
KernelPhiParams ClampedKernelParams(const std::vector<double>& phi,
                                    size_t dim);

/// Gaussian-process regression surrogate with a Matérn-5/2 ARD kernel,
/// constant (zero, after standardization) mean, and Gaussian noise.
///
/// Targets are standardized internally; predictions are de-standardized.
/// Kernel hyper-parameters (per-dimension log lengthscales, log signal
/// variance, log noise variance) are fitted by maximizing the log marginal
/// likelihood with a seeded multi-start random search followed by coordinate
/// refinement — derivative-free, deterministic given the seed.
class GaussianProcess : public Surrogate {
 public:
  explicit GaussianProcess(GaussianProcessOptions options = {});

  [[nodiscard]] Status Fit(const Matrix& x,
                           const std::vector<double>& y) override;
  Prediction Predict(const std::vector<double>& x) const override;
  std::vector<Prediction> PredictBatch(const Matrix& x) const override;
  bool fitted() const override { return fitted_; }
  size_t num_observations() const override { return x_.rows(); }

  /// Extends the fitted posterior with one observation in O(n^2) via the
  /// incremental Cholesky update, keeping the current hyper-parameters.
  /// Valid only while the model is fitted, the point matches the training
  /// dimension, and the subsample cap has not been reached (past the cap
  /// Fit would re-select the kept set, which an append cannot reproduce).
  /// The result is bit-identical to refitting on the extended data with
  /// hyper-parameter optimization disabled and the same parameters
  /// installed. On failure the model is unchanged.
  [[nodiscard]] Status Append(const std::vector<double>& x, double y);

  /// Log marginal likelihood of the fitted model (for tests/diagnostics).
  double log_marginal_likelihood() const { return lml_; }
  const std::vector<double>& lengthscales() const { return lengthscales_; }
  double noise_variance() const { return noise_variance_; }
  double signal_variance() const { return signal_variance_; }
  /// Seed the last Fit used for its restart RNG (diagnostic: derived from
  /// the *total* observation count, so capped refits explore new restarts).
  uint64_t last_restart_seed() const { return last_restart_seed_; }
  /// Diagonal jitter the last successful factorization needed (0 if none).
  double jitter_used() const { return jitter_used_; }

 private:
  /// Computes the LML for hyper-parameters `phi` = [log l_1..d, log s2,
  /// log n2] on the stored standardized data; returns -inf on failure.
  /// `blocks` must describe the stored training set.
  double Lml(const std::vector<double>& phi,
             const KernelDiffBlocks& blocks) const;

  /// Rebuilds the Cholesky factor and alpha for the current
  /// hyper-parameters from `blocks`, which must describe the stored
  /// training set. Returns false when factorization fails.
  bool Refactor(const KernelDiffBlocks& blocks);

  /// Standardizes y_raw_ into y_std_ (mean y_mean_, scale y_scale_).
  void Standardize();

  /// Recomputes standardization, alpha, and the LML from y_raw_ and the
  /// current factor (shared by Fit's Refactor and Append).
  void RecomputePosterior();

  GaussianProcessOptions options_;
  bool fitted_ = false;

  Matrix x_;                   // kept rows
  std::vector<double> y_raw_;  // kept raw targets
  std::vector<double> y_std_;  // standardized targets
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;

  std::vector<double> lengthscales_;
  double signal_variance_ = 1.0;
  double noise_variance_ = 1e-4;

  Cholesky chol_;
  Vector alpha_;  // K^{-1} y
  double lml_ = 0.0;
  double jitter_used_ = 0.0;
  uint64_t last_restart_seed_ = 0;
};

}  // namespace hypertune

#endif  // HYPERTUNE_SURROGATE_GAUSSIAN_PROCESS_H_
