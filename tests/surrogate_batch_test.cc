#include "src/surrogate/surrogate.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/linalg/matrix.h"
#include "src/surrogate/gaussian_process.h"
#include "src/surrogate/kernel.h"
#include "src/surrogate/mfes_ensemble.h"
#include "src/surrogate/random_forest.h"
#include "tests/design_matrix.h"

namespace hypertune {
namespace {

/// Multi-modal 2-D test function on the unit square.
double Objective(const std::vector<double>& x) {
  return std::sin(5.0 * x[0]) + 0.3 * std::cos(9.0 * x[1]) + 0.2 * x[0] * x[1];
}

struct TrainingData {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
};

TrainingData MakeData(int n, uint64_t seed) {
  TrainingData data;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> p = {rng.Uniform(), rng.Uniform()};
    data.y.push_back(Objective(p) + 0.01 * rng.Gaussian());
    data.x.push_back(std::move(p));
  }
  return data;
}

Matrix MakeQueries(size_t m, uint64_t seed) {
  Rng rng(seed);
  Matrix q(m, 2);
  for (size_t r = 0; r < m; ++r) {
    q(r, 0) = rng.Uniform();
    q(r, 1) = rng.Uniform();
  }
  return q;
}

/// The bits of `v`: comparing them accepts no rounding difference at all.
uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// The core property behind golden-history stability: scoring candidates as
/// one batch must reproduce the per-candidate path bit for bit.
void ExpectBatchMatchesPerCandidate(const Surrogate& model, const Matrix& q) {
  std::vector<Prediction> batch = model.PredictBatch(q);
  ASSERT_EQ(batch.size(), q.rows());
  for (size_t r = 0; r < q.rows(); ++r) {
    std::vector<double> row = {q(r, 0), q(r, 1)};
    Prediction single = model.Predict(row);
    EXPECT_EQ(Bits(batch[r].mean), Bits(single.mean)) << "row " << r;
    EXPECT_EQ(Bits(batch[r].variance), Bits(single.variance)) << "row " << r;
  }
}

TEST(PredictBatchTest, GpBitIdenticalToPredict) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    TrainingData data = MakeData(40, seed);
    GaussianProcessOptions options;
    options.seed = seed;
    GaussianProcess gp(options);
    ASSERT_TRUE(gp.Fit(DesignMatrix(data.x), data.y).ok());
    ExpectBatchMatchesPerCandidate(gp, MakeQueries(64, seed + 100));
  }
}

TEST(PredictBatchTest, RandomForestBitIdenticalToPredict) {
  for (uint64_t seed : {5u, 6u}) {
    TrainingData data = MakeData(80, seed);
    RandomForestOptions options;
    options.seed = seed;
    RandomForest rf(options);
    ASSERT_TRUE(rf.Fit(DesignMatrix(data.x), data.y).ok());
    ExpectBatchMatchesPerCandidate(rf, MakeQueries(67, seed + 100));
  }
}

TEST(PredictBatchTest, MfesEnsembleBitIdenticalToPredict) {
  TrainingData low = MakeData(60, 7);
  TrainingData high = MakeData(25, 8);

  GaussianProcessOptions gp_options;
  gp_options.seed = 7;
  GaussianProcess gp(gp_options);
  ASSERT_TRUE(gp.Fit(DesignMatrix(high.x), high.y).ok());

  RandomForestOptions rf_options;
  rf_options.seed = 8;
  RandomForest rf(rf_options);
  ASSERT_TRUE(rf.Fit(DesignMatrix(low.x), low.y).ok());

  MfesEnsemble ensemble;
  ensemble.SetMembers({&rf, &gp}, {0.3, 0.7});
  ASSERT_TRUE(ensemble.fitted());
  ExpectBatchMatchesPerCandidate(ensemble, MakeQueries(64, 107));
}

TEST(PredictBatchTest, RepeatedCallsWithDifferentShapesStayBitIdentical) {
  // PredictBatch reuses a scratch matrix across calls; alternating query
  // sets of different sizes must not leak any state between calls (every
  // scratch entry is overwritten). Each call is checked against the
  // per-candidate path.
  TrainingData data = MakeData(40, 9);
  GaussianProcessOptions options;
  options.seed = 9;
  GaussianProcess gp(options);
  ASSERT_TRUE(gp.Fit(DesignMatrix(data.x), data.y).ok());
  ExpectBatchMatchesPerCandidate(gp, MakeQueries(64, 200));
  ExpectBatchMatchesPerCandidate(gp, MakeQueries(17, 201));  // shrink
  ExpectBatchMatchesPerCandidate(gp, MakeQueries(96, 202));  // grow
}

TEST(PredictBatchTest, CrossCovarianceOutParamMatchesPerQuery) {
  TrainingData data = MakeData(30, 10);
  const Matrix x = DesignMatrix(data.x);
  Matern52Kernel kernel({0.4, 0.7}, 1.3);
  Matrix q = MakeQueries(33, 210);
  Matrix out(5, 5, 7.0);  // stale shape and contents must not matter
  kernel.CrossCovariance(x, q, &out);
  ASSERT_EQ(out.rows(), x.rows());
  ASSERT_EQ(out.cols(), q.rows());
  for (size_t j = 0; j < q.rows(); ++j) {
    const Vector column = kernel.CrossCovariance(x, {q(j, 0), q(j, 1)});
    for (size_t i = 0; i < out.rows(); ++i) {
      EXPECT_EQ(Bits(out(i, j)), Bits(column[i])) << i << "," << j;
    }
  }
}

TEST(GpAppendTest, AppendBitIdenticalToRefitWithFixedHyperparameters) {
  // Append keeps hyper-parameters, so the reference is a fresh fit on the
  // extended data with optimization off (same default parameters both ways).
  TrainingData data = MakeData(25, 10);
  std::vector<double> extra = {0.42, 0.77};
  double extra_y = Objective(extra);

  GaussianProcessOptions options;
  options.optimize_hyperparameters = false;
  GaussianProcess incremental(options);
  ASSERT_TRUE(incremental.Fit(DesignMatrix(data.x), data.y).ok());
  ASSERT_TRUE(incremental.Append(extra, extra_y).ok());

  TrainingData extended = data;
  extended.x.push_back(extra);
  extended.y.push_back(extra_y);
  GaussianProcess refit(options);
  ASSERT_TRUE(refit.Fit(DesignMatrix(extended.x), extended.y).ok());

  EXPECT_EQ(incremental.num_observations(), 26u);
  EXPECT_DOUBLE_EQ(incremental.log_marginal_likelihood(),
                   refit.log_marginal_likelihood());
  for (double v : {0.1, 0.42, 0.9}) {
    Prediction pi = incremental.Predict({v, 1.0 - v});
    Prediction pr = refit.Predict({v, 1.0 - v});
    EXPECT_DOUBLE_EQ(pi.mean, pr.mean) << "at " << v;
    EXPECT_DOUBLE_EQ(pi.variance, pr.variance) << "at " << v;
  }
}

TEST(GpAppendTest, SequentialAppendsStayConsistent) {
  TrainingData data = MakeData(20, 11);
  GaussianProcessOptions options;
  options.optimize_hyperparameters = false;
  GaussianProcess gp(options);
  ASSERT_TRUE(gp.Fit(DesignMatrix(data.x), data.y).ok());
  TrainingData extended = data;
  Rng rng(211);
  for (int i = 0; i < 5; ++i) {
    std::vector<double> p = {rng.Uniform(), rng.Uniform()};
    double y = Objective(p);
    ASSERT_TRUE(gp.Append(p, y).ok());
    extended.x.push_back(p);
    extended.y.push_back(y);
  }
  GaussianProcess refit(options);
  ASSERT_TRUE(refit.Fit(DesignMatrix(extended.x), extended.y).ok());
  Prediction pi = gp.Predict({0.5, 0.5});
  Prediction pr = refit.Predict({0.5, 0.5});
  EXPECT_DOUBLE_EQ(pi.mean, pr.mean);
  EXPECT_DOUBLE_EQ(pi.variance, pr.variance);
}

TEST(GpAppendTest, RejectsBeforeFit) {
  GaussianProcess gp;
  EXPECT_EQ(gp.Append({0.5, 0.5}, 1.0).code(),
            StatusCode::kFailedPrecondition);
}

TEST(GpAppendTest, RejectsDimensionMismatch) {
  TrainingData data = MakeData(15, 12);
  GaussianProcessOptions options;
  options.optimize_hyperparameters = false;
  GaussianProcess gp(options);
  ASSERT_TRUE(gp.Fit(DesignMatrix(data.x), data.y).ok());
  EXPECT_EQ(gp.Append({0.5}, 1.0).code(), StatusCode::kInvalidArgument);
  // Model still usable after the rejected append.
  EXPECT_EQ(gp.num_observations(), 15u);
  Prediction p = gp.Predict({0.5, 0.5});
  EXPECT_TRUE(std::isfinite(p.mean));
}

TEST(GpAppendTest, RejectsAtSubsampleCap) {
  // Past the cap Fit re-selects the kept subset, which an O(n^2) append
  // cannot reproduce — the model must refuse rather than silently diverge.
  TrainingData data = MakeData(20, 13);
  GaussianProcessOptions options;
  options.optimize_hyperparameters = false;
  options.max_points = 20;
  GaussianProcess gp(options);
  ASSERT_TRUE(gp.Fit(DesignMatrix(data.x), data.y).ok());
  EXPECT_EQ(gp.Append({0.5, 0.5}, 1.0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(gp.num_observations(), 20u);
}

}  // namespace
}  // namespace hypertune
