#include "src/surrogate/random_forest.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "tests/design_matrix.h"

namespace hypertune {
namespace {

double Smooth2d(double a, double b) {
  return (a - 0.3) * (a - 0.3) + 2.0 * (b - 0.7) * (b - 0.7);
}

TEST(RandomForestTest, RejectsBadInput) {
  RandomForest rf;
  EXPECT_FALSE(rf.Fit(Matrix(), {}).ok());
  EXPECT_FALSE(rf.Fit(Matrix(1, 1, 0.1), {1.0, 2.0}).ok());
  RandomForest rf2;
  rf2.SetCategoricalFeatures({true});  // dim mismatch vs 2-feature data
  EXPECT_FALSE(
      rf2.Fit(DesignMatrix({{0.1, 0.2}, {0.3, 0.4}}), {1.0, 2.0}).ok());
}

TEST(RandomForestTest, FitsSmoothFunction) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(1);
  for (int i = 0; i < 400; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    x.push_back({a, b});
    y.push_back(Smooth2d(a, b));
  }
  RandomForest rf;
  ASSERT_TRUE(rf.Fit(DesignMatrix(x), y).ok());
  EXPECT_TRUE(rf.fitted());

  double total_abs_err = 0.0;
  Rng test_rng(2);
  const int n_test = 100;
  for (int i = 0; i < n_test; ++i) {
    double a = test_rng.Uniform(), b = test_rng.Uniform();
    total_abs_err += std::abs(rf.Predict({a, b}).mean - Smooth2d(a, b));
  }
  EXPECT_LT(total_abs_err / n_test, 0.15);
}

TEST(RandomForestTest, IdentifiesTheMinimumRegion) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    x.push_back({a, b});
    y.push_back(Smooth2d(a, b));
  }
  RandomForest rf;
  ASSERT_TRUE(rf.Fit(DesignMatrix(x), y).ok());
  double at_min = rf.Predict({0.3, 0.7}).mean;
  double far = rf.Predict({0.95, 0.05}).mean;
  EXPECT_LT(at_min, far);
}

TEST(RandomForestTest, CategoricalSplitSeparatesGroups) {
  // Feature 0 categorical with encoded values {0.25, 0.75}; target depends
  // only on the category.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    bool group = rng.Bernoulli(0.5);
    x.push_back({group ? 0.75 : 0.25, rng.Uniform()});
    y.push_back(group ? 5.0 : -5.0);
  }
  RandomForest rf;
  rf.SetCategoricalFeatures({true, false});
  ASSERT_TRUE(rf.Fit(DesignMatrix(x), y).ok());
  EXPECT_NEAR(rf.Predict({0.75, 0.5}).mean, 5.0, 0.5);
  EXPECT_NEAR(rf.Predict({0.25, 0.5}).mean, -5.0, 0.5);
}

TEST(RandomForestTest, VarianceHigherInNoisyRegion) {
  // Left half: constant target. Right half: very noisy target.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(5);
  for (int i = 0; i < 600; ++i) {
    double a = rng.Uniform();
    x.push_back({a});
    y.push_back(a < 0.5 ? 1.0 : rng.Gaussian(1.0, 3.0));
  }
  RandomForest rf;
  ASSERT_TRUE(rf.Fit(DesignMatrix(x), y).ok());
  EXPECT_GT(rf.Predict({0.9}).variance, rf.Predict({0.1}).variance);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    double a = rng.Uniform();
    x.push_back({a});
    y.push_back(Smooth2d(a, a));
  }
  RandomForestOptions options;
  options.seed = 17;
  RandomForest a(options), b(options);
  ASSERT_TRUE(a.Fit(DesignMatrix(x), y).ok());
  ASSERT_TRUE(b.Fit(DesignMatrix(x), y).ok());
  Prediction pa = a.Predict({0.42});
  Prediction pb = b.Predict({0.42});
  EXPECT_DOUBLE_EQ(pa.mean, pb.mean);
  EXPECT_DOUBLE_EQ(pa.variance, pb.variance);
}

TEST(RandomForestTest, SingleSampleBecomesLeaf) {
  RandomForest rf;
  ASSERT_TRUE(rf.Fit(DesignMatrix({{0.5}}), {3.0}).ok());
  Prediction p = rf.Predict({0.1});
  EXPECT_DOUBLE_EQ(p.mean, 3.0);
}

TEST(RandomForestTest, CapLimitsTrainingSize) {
  RandomForestOptions options;
  options.max_points = 64;
  RandomForest rf(options);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    double a = rng.Uniform();
    x.push_back({a});
    y.push_back(Smooth2d(a, 0.7));
  }
  ASSERT_TRUE(rf.Fit(DesignMatrix(x), y).ok());
  // Prediction remains reasonable despite the cap.
  EXPECT_NEAR(rf.Predict({0.3}).mean, Smooth2d(0.3, 0.7), 0.5);
}

/// FNV-1a over the bit patterns of every predicted mean and variance.
uint64_t PredictionDigest(const std::vector<Prediction>& predictions) {
  uint64_t hash = 1469598103934665603ULL;
  auto mix_double = [&hash](double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    hash ^= bits;
    hash *= 1099511628211ULL;
  };
  for (const Prediction& p : predictions) {
    mix_double(p.mean);
    mix_double(p.variance);
  }
  return hash;
}

/// A fixed mixed training set: two categorical columns (0 and 3),
/// continuous columns quantized to produce duplicate values, one constant
/// column, tied targets, and more rows than the default max_points.
void MixedData(std::vector<std::vector<double>>* x, std::vector<double>* y) {
  constexpr size_t kRows = 900;
  static_assert(kRows > RandomForestOptions{}.max_points);
  Rng rng(2024);
  for (size_t i = 0; i < kRows; ++i) {
    const double cat_a = 0.25 * static_cast<double>(rng.UniformInt(0, 4));
    const double cat_b = rng.Bernoulli(0.3) ? 0.75 : 0.25;
    const double grid = std::floor(rng.Uniform() * 16.0) / 16.0;
    const double cont = rng.Uniform();
    const double coarse = std::floor(rng.Uniform() * 4.0) / 4.0;
    x->push_back({cat_a, grid, 0.5, cat_b, cont, coarse});
    double target = (grid - 0.3) * (grid - 0.3) + (cat_a == 0.5 ? -0.4 : 0.0) +
                    (cat_b > 0.5 ? 0.2 : 0.0) + 0.1 * cont * coarse;
    // Every fifth target is rounded so ties appear among the targets too.
    if (i % 5 == 0) target = std::round(target * 8.0) / 8.0;
    y->push_back(target);
  }
}

const std::vector<bool> kMixedCategorical = {true, false, false,
                                             true, false, false};

/// Fits a forest on MixedData and digests its batch predictions on a fixed
/// query set, so the digest covers the training-set cap, equality and
/// threshold splits, and constant-feature skips.
uint64_t FitAndDigest(RandomForestOptions options) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MixedData(&x, &y);
  RandomForest forest(options);
  forest.SetCategoricalFeatures(kMixedCategorical);
  EXPECT_TRUE(forest.Fit(DesignMatrix(x), y).ok());

  Matrix queries(97, 6);
  Rng query_rng(7);
  for (size_t r = 0; r < queries.rows(); ++r) {
    queries(r, 0) = 0.25 * static_cast<double>(query_rng.UniformInt(0, 4));
    queries(r, 1) = std::floor(query_rng.Uniform() * 16.0) / 16.0;
    queries(r, 2) = 0.5;
    queries(r, 3) = query_rng.Bernoulli(0.5) ? 0.75 : 0.25;
    queries(r, 4) = query_rng.Uniform();
    queries(r, 5) = std::floor(query_rng.Uniform() * 4.0) / 4.0;
  }
  return PredictionDigest(forest.PredictBatch(queries));
}

constexpr uint64_t kBootstrapDigest = 9428472440277690018ULL;
constexpr uint64_t kNoBootstrapDigest = 2362699922105893277ULL;

// The digests were captured from the row-major split scan that preceded the
// column-major fused one; any change to split selection, the training-set
// cap or the leaf statistics moves them.
TEST(RandomForestTest, PredictionsMatchPinnedDigests) {
  RandomForestOptions bootstrap;
  bootstrap.seed = 31;
  EXPECT_EQ(FitAndDigest(bootstrap), kBootstrapDigest);

  RandomForestOptions no_bootstrap;
  no_bootstrap.seed = 32;
  no_bootstrap.bootstrap = false;
  EXPECT_EQ(FitAndDigest(no_bootstrap), kNoBootstrapDigest);

  // A threshold count that is not a multiple of the scan's lane count.
  RandomForestOptions odd_thresholds;
  odd_thresholds.seed = 33;
  odd_thresholds.thresholds_per_feature = 7;
  odd_thresholds.min_samples_leaf = 1;
  odd_thresholds.max_points = 300;
  EXPECT_EQ(FitAndDigest(odd_thresholds), 22880796627741545ULL);
}

// Two fits at once share the process-wide pool: whichever finds it busy
// grows its trees inline. Both forests must still be the pinned ones.
TEST(RandomForestTest, ConcurrentFitsMatchPinnedDigests) {
  RandomForestOptions bootstrap;
  bootstrap.seed = 31;
  RandomForestOptions no_bootstrap;
  no_bootstrap.seed = 32;
  no_bootstrap.bootstrap = false;
  for (int round = 0; round < 4; ++round) {
    uint64_t other_digest = 0;
    std::thread other([&] { other_digest = FitAndDigest(no_bootstrap); });
    EXPECT_EQ(FitAndDigest(bootstrap), kBootstrapDigest);
    other.join();
    EXPECT_EQ(other_digest, kNoBootstrapDigest);
  }
}

bool SameBits(const Prediction& a, const Prediction& b) {
  return PredictionDigest({a}) == PredictionDigest({b});
}

/// PredictBatch on `x` in consecutive batches of `batch` rows (the last one
/// shorter), joined in row order.
std::vector<Prediction> PredictInBatches(const RandomForest& forest,
                                         const Matrix& x, size_t batch) {
  std::vector<Prediction> joined;
  for (size_t begin = 0; begin < x.rows(); begin += batch) {
    std::vector<size_t> rows;
    for (size_t r = begin; r < std::min(begin + batch, x.rows()); ++r) {
      rows.push_back(r);
    }
    const std::vector<Prediction> part = forest.PredictBatch(x.SelectRows(rows));
    joined.insert(joined.end(), part.begin(), part.end());
  }
  return joined;
}

// Pins the walk itself, not the fit: queries at the edges of the split
// comparisons, predicted in batches of several sizes around the width of a
// walk block and one row at a time, must give the same bits everywhere.
TEST(RandomForestTest, WalkDigestIsPinned) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MixedData(&x, &y);
  RandomForestOptions options;
  options.seed = 34;
  RandomForest forest(options);
  forest.SetCategoricalFeatures(kMixedCategorical);
  ASSERT_TRUE(forest.Fit(DesignMatrix(x), y).ok());

  // Each cell is either a special value or an exact training value of its
  // column, which lands on both sides of equality splits (columns 0 and 3)
  // and on `<=` thresholds' grids (columns 1 and 5).
  const double inf = std::numeric_limits<double>::infinity();
  const double special[] = {std::numeric_limits<double>::quiet_NaN(),
                            0.0, -0.0, inf, -inf, -0.5, 1.5, 1e300};
  constexpr size_t kNumSpecial = sizeof(special) / sizeof(special[0]);
  Matrix queries(97, 6);
  Rng rng(11);
  for (size_t r = 0; r < queries.rows(); ++r) {
    for (size_t c = 0; c < queries.cols(); ++c) {
      queries(r, c) =
          rng.Bernoulli(0.3)
              ? special[rng.UniformInt(0, kNumSpecial - 1)]
              : x[static_cast<size_t>(rng.UniformInt(0, x.size() - 1))][c];
    }
  }

  std::vector<Prediction> alone;
  for (size_t r = 0; r < queries.rows(); ++r) {
    alone.push_back(forest.Predict(
        std::vector<double>(queries.row(r), queries.row(r) + queries.cols())));
  }
  constexpr uint64_t kWalkDigest = 7060824793363585794ULL;
  EXPECT_EQ(PredictionDigest(alone), kWalkDigest);
  for (size_t batch : {1, 7, 8, 9, 97}) {
    const std::vector<Prediction> joined =
        PredictInBatches(forest, queries, batch);
    EXPECT_EQ(PredictionDigest(joined), kWalkDigest) << "batch " << batch;
    ASSERT_EQ(joined.size(), alone.size());
    for (size_t r = 0; r < alone.size(); ++r) {
      EXPECT_TRUE(SameBits(joined[r], alone[r]))
          << "batch " << batch << " row " << r;
    }
  }

  // Rows with no columns: every tree is one leaf holding its bootstrap
  // sample's mean, and a walk must read no element of the (empty) query.
  RandomForest no_columns(options);
  ASSERT_TRUE(no_columns.Fit(Matrix(3, 0), {1.0, 2.0, 4.0}).ok());
  const Prediction mean = no_columns.Predict({});
  EXPECT_EQ(PredictionDigest({mean}), 4830677152220295010ULL);
  EXPECT_GT(mean.mean, 1.0);
  EXPECT_LT(mean.mean, 4.0);
  for (size_t batch : {1, 7, 8, 9, 97}) {
    for (const Prediction& p : no_columns.PredictBatch(Matrix(batch, 0))) {
      EXPECT_TRUE(SameBits(p, mean)) << "batch " << batch;
    }
  }
}

TEST(RandomForestDeathTest, RejectsQueriesOfAnotherWidth) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(12);
  for (int i = 0; i < 60; ++i) {
    x.push_back({rng.Uniform(), rng.Uniform(), rng.Uniform(), rng.Uniform()});
    y.push_back(Smooth2d(x.back()[0], x.back()[3]));
  }
  RandomForest rf;
  ASSERT_TRUE(rf.Fit(DesignMatrix(x), y).ok());
  EXPECT_DEATH(rf.Predict({0.5}), "query has 1 columns, fitted on 4");
  EXPECT_DEATH(rf.PredictBatch(Matrix(3, 5, 0.5)),
               "query has 5 columns, fitted on 4");
}

TEST(RandomForestTest, PredictiveVarianceIsPositive) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    double a = rng.Uniform();
    x.push_back({a});
    y.push_back(a);
  }
  RandomForest rf;
  ASSERT_TRUE(rf.Fit(DesignMatrix(x), y).ok());
  for (double v : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_GT(rf.Predict({v}).variance, 0.0);
  }
}

}  // namespace
}  // namespace hypertune
