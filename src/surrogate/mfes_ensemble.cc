#include "src/surrogate/mfes_ensemble.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace hypertune {

void MfesEnsemble::SetMembers(std::vector<const Surrogate*> surrogates,
                              std::vector<double> weights) {
  HT_CHECK(surrogates.size() == weights.size())
      << "MfesEnsemble: member/weight count mismatch";
  members_ = std::move(surrogates);
  weights_ = std::move(weights);

  double total = 0.0;
  for (size_t i = 0; i < members_.size(); ++i) {
    if (members_[i] == nullptr || !members_[i]->fitted() || weights_[i] < 0.0) {
      weights_[i] = 0.0;
    }
    total += weights_[i];
  }
  if (total > 0.0) {
    for (double& w : weights_) w /= total;
  } else {
    // No usable weights: fall back to uniform over fitted members.
    size_t fitted = 0;
    for (const Surrogate* m : members_) {
      if (m != nullptr && m->fitted()) ++fitted;
    }
    for (size_t i = 0; i < members_.size(); ++i) {
      weights_[i] = (members_[i] != nullptr && members_[i]->fitted() && fitted)
                        ? 1.0 / static_cast<double>(fitted)
                        : 0.0;
    }
  }
}

Status MfesEnsemble::Fit(const Matrix&, const std::vector<double>&) {
  return Status::FailedPrecondition(
      "MfesEnsemble is assembled from pre-fitted base surrogates; fit the "
      "members and call SetMembers instead");
}

Prediction MfesEnsemble::Predict(const std::vector<double>& x) const {
  HT_CHECK(fitted()) << "MfesEnsemble::Predict without fitted members";
  // Mixture-of-Gaussians moments: mean Σ wᵢ μᵢ and variance
  // Σ wᵢ (σᵢ² + μᵢ²) − μ². The second moment keeps the disagreement
  // between member means as uncertainty; the naive Σ wᵢ² σᵢ² collapses
  // ensemble variance toward zero as members multiply even when they
  // contradict each other.
  Prediction out;
  double second_moment = 0.0;
  for (size_t i = 0; i < members_.size(); ++i) {
    if (weights_[i] <= 0.0) continue;
    Prediction p = members_[i]->Predict(x);
    out.mean += weights_[i] * p.mean;
    second_moment += weights_[i] * (p.variance + p.mean * p.mean);
  }
  out.variance = std::max(second_moment - out.mean * out.mean, 1e-12);
  return out;
}

std::vector<Prediction> MfesEnsemble::PredictBatch(const Matrix& x) const {
  HT_CHECK(fitted()) << "MfesEnsemble::PredictBatch without fitted members";
  // One batched pass per member, accumulated per candidate in member order
  // with the same expressions as Predict — bit-identical, and each member's
  // own batch path (GP multi-RHS solve, RF lockstep walk) does the heavy
  // lifting once instead of per candidate.
  std::vector<Prediction> out(x.rows());
  std::vector<double> second_moment(x.rows(), 0.0);
  for (size_t i = 0; i < members_.size(); ++i) {
    if (weights_[i] <= 0.0) continue;
    std::vector<Prediction> member = members_[i]->PredictBatch(x);
    for (size_t j = 0; j < out.size(); ++j) {
      const Prediction& p = member[j];
      out[j].mean += weights_[i] * p.mean;
      second_moment[j] += weights_[i] * (p.variance + p.mean * p.mean);
    }
  }
  for (size_t j = 0; j < out.size(); ++j) {
    out[j].variance = std::max(second_moment[j] - out[j].mean * out[j].mean,
                               1e-12);
  }
  return out;
}

bool MfesEnsemble::fitted() const {
  for (size_t i = 0; i < members_.size(); ++i) {
    if (weights_[i] > 0.0 && members_[i] != nullptr && members_[i]->fitted()) {
      return true;
    }
  }
  return false;
}

size_t MfesEnsemble::num_observations() const {
  size_t total = 0;
  for (size_t i = 0; i < members_.size(); ++i) {
    if (members_[i] != nullptr && members_[i]->fitted()) {
      total += members_[i]->num_observations();
    }
  }
  return total;
}

}  // namespace hypertune
