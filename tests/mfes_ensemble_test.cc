#include "src/surrogate/mfes_ensemble.h"

#include <gtest/gtest.h>

namespace hypertune {
namespace {

/// A stub surrogate with fixed predictions, for exact Eq. (3) checks.
class StubSurrogate : public Surrogate {
 public:
  StubSurrogate(double mean, double variance, bool fitted = true)
      : mean_(mean), variance_(variance), fitted_(fitted) {}

  Status Fit(const Matrix&, const std::vector<double>&) override {
    fitted_ = true;
    return Status::Ok();
  }
  Prediction Predict(const std::vector<double>&) const override {
    return Prediction{mean_, variance_};
  }
  std::vector<Prediction> PredictBatch(const Matrix& x) const override {
    return std::vector<Prediction>(x.rows(), Prediction{mean_, variance_});
  }
  bool fitted() const override { return fitted_; }
  size_t num_observations() const override { return fitted_ ? 10 : 0; }

 private:
  double mean_;
  double variance_;
  bool fitted_;
};

TEST(MfesEnsembleTest, Equation3WeightedBagging) {
  StubSurrogate m1(1.0, 4.0);
  StubSurrogate m2(3.0, 1.0);
  MfesEnsemble ensemble;
  ensemble.SetMembers({&m1, &m2}, {0.25, 0.75});
  ASSERT_TRUE(ensemble.fitted());
  Prediction p = ensemble.Predict({0.5});
  // mu = 0.25*1 + 0.75*3 = 2.5 ; mixture-of-Gaussians second moment:
  // sigma^2 = 0.25*(4+1) + 0.75*(1+9) - 2.5^2 = 2.5.
  EXPECT_DOUBLE_EQ(p.mean, 2.5);
  EXPECT_DOUBLE_EQ(p.variance, 2.5);
}

TEST(MfesEnsembleTest, DisagreeingMembersInflateVariance) {
  // Regression: the ensemble variance was the weighted sum of member
  // variances (sum w_i^2 sigma_i^2), which is zero when every member is
  // certain — even when the members disagree. The mixture form keeps the
  // between-member spread: two confident members at 1 and 3 give
  // 0.5*(0+1) + 0.5*(0+9) - 2^2 = 1.
  StubSurrogate m1(1.0, 0.0);
  StubSurrogate m2(3.0, 0.0);
  MfesEnsemble ensemble;
  ensemble.SetMembers({&m1, &m2}, {0.5, 0.5});
  Prediction p = ensemble.Predict({0.0});
  EXPECT_DOUBLE_EQ(p.mean, 2.0);
  EXPECT_DOUBLE_EQ(p.variance, 1.0);
}

TEST(MfesEnsembleTest, WeightsAreNormalized) {
  StubSurrogate m1(2.0, 1.0);
  StubSurrogate m2(4.0, 1.0);
  MfesEnsemble ensemble;
  ensemble.SetMembers({&m1, &m2}, {2.0, 6.0});  // -> 0.25 / 0.75
  Prediction p = ensemble.Predict({0.0});
  EXPECT_DOUBLE_EQ(p.mean, 0.25 * 2.0 + 0.75 * 4.0);
  EXPECT_DOUBLE_EQ(ensemble.effective_weights()[0], 0.25);
  EXPECT_DOUBLE_EQ(ensemble.effective_weights()[1], 0.75);
}

TEST(MfesEnsembleTest, UnfittedMembersAreExcluded) {
  StubSurrogate fitted(1.0, 1.0);
  StubSurrogate unfitted(100.0, 1.0, /*fitted=*/false);
  MfesEnsemble ensemble;
  ensemble.SetMembers({&unfitted, &fitted}, {0.9, 0.1});
  ASSERT_TRUE(ensemble.fitted());
  // All weight collapses onto the fitted member.
  EXPECT_DOUBLE_EQ(ensemble.Predict({0.0}).mean, 1.0);
}

TEST(MfesEnsembleTest, NullMembersAreExcluded) {
  StubSurrogate fitted(2.0, 1.0);
  MfesEnsemble ensemble;
  ensemble.SetMembers({nullptr, &fitted}, {0.5, 0.5});
  ASSERT_TRUE(ensemble.fitted());
  EXPECT_DOUBLE_EQ(ensemble.Predict({0.0}).mean, 2.0);
}

TEST(MfesEnsembleTest, ZeroWeightsFallBackToUniform) {
  StubSurrogate m1(1.0, 1.0);
  StubSurrogate m2(3.0, 1.0);
  MfesEnsemble ensemble;
  ensemble.SetMembers({&m1, &m2}, {0.0, 0.0});
  ASSERT_TRUE(ensemble.fitted());
  EXPECT_DOUBLE_EQ(ensemble.Predict({0.0}).mean, 2.0);
}

TEST(MfesEnsembleTest, NotFittedWithoutUsableMembers) {
  StubSurrogate unfitted(1.0, 1.0, /*fitted=*/false);
  MfesEnsemble ensemble;
  ensemble.SetMembers({&unfitted}, {1.0});
  EXPECT_FALSE(ensemble.fitted());
}

TEST(MfesEnsembleTest, DirectFitIsRefused) {
  MfesEnsemble ensemble;
  EXPECT_EQ(ensemble.Fit(Matrix(1, 1, 0.1), {1.0}).code(),
            StatusCode::kFailedPrecondition);
}

TEST(MfesEnsembleTest, NumObservationsSumsMembers) {
  StubSurrogate m1(1.0, 1.0);
  StubSurrogate m2(2.0, 1.0);
  MfesEnsemble ensemble;
  ensemble.SetMembers({&m1, &m2}, {0.5, 0.5});
  EXPECT_EQ(ensemble.num_observations(), 20u);
}

TEST(MfesEnsembleTest, VarianceHasFloor) {
  StubSurrogate m1(1.0, 0.0);
  MfesEnsemble ensemble;
  ensemble.SetMembers({&m1}, {1.0});
  EXPECT_GT(ensemble.Predict({0.0}).variance, 0.0);
}

}  // namespace
}  // namespace hypertune
