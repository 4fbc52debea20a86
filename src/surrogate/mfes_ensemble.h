#ifndef HYPERTUNE_SURROGATE_MFES_ENSEMBLE_H_
#define HYPERTUNE_SURROGATE_MFES_ENSEMBLE_H_

#include <memory>
#include <vector>

#include "src/surrogate/surrogate.h"

namespace hypertune {

/// The multi-fidelity ensemble surrogate of Hyper-Tune §4.3 / Eq. (3):
///
///   M_MF = agg({M_1, ..., M_K}; theta)
///   mu_MF(x)     = sum_i theta_i * mu_i(x)
///   sigma2_MF(x) = sum_i theta_i^2 * sigma2_i(x)
///
/// Base surrogate M_i is trained on the measurement group D_i (evaluations
/// with r_i units of training resource); theta_i is the probability that
/// M_i ranks configurations most consistently with the high-fidelity group
/// D_K (computed by FidelityWeights in src/allocator/).
///
/// The ensemble does not own the Fit step of its members: callers fit each
/// base surrogate on its own group, then combine here. Weights of unfitted
/// members are redistributed over the fitted ones.
class MfesEnsemble : public Surrogate {
 public:
  MfesEnsemble() = default;

  /// Replaces the members and weights. `surrogates[i]` may be null or
  /// unfitted (weight is then ignored and renormalized away). Weights must
  /// be non-negative; they are normalized internally to sum to one.
  void SetMembers(std::vector<const Surrogate*> surrogates,
                  std::vector<double> weights);

  /// MfesEnsemble is combined from pre-fitted members; calling Fit is a
  /// contract violation and returns FailedPrecondition.
  [[nodiscard]] Status Fit(const Matrix& x,
                           const std::vector<double>& y) override;

  Prediction Predict(const std::vector<double>& x) const override;
  std::vector<Prediction> PredictBatch(const Matrix& x) const override;
  bool fitted() const override;
  size_t num_observations() const override;

  /// Effective (normalized, fitted-members-only) weights; for diagnostics.
  const std::vector<double>& effective_weights() const { return weights_; }

 private:
  std::vector<const Surrogate*> members_;
  std::vector<double> weights_;  // normalized over fitted members
};

}  // namespace hypertune

#endif  // HYPERTUNE_SURROGATE_MFES_ENSEMBLE_H_
