#include "src/allocator/ranking_loss.h"

#include <memory>

#include <gtest/gtest.h>

#include "src/allocator/fidelity_weights.h"
#include "src/common/rng.h"
#include "tests/design_matrix.h"

namespace hypertune {
namespace {

TEST(CountMisrankedPairsTest, PerfectRankingHasZeroLoss) {
  EXPECT_EQ(CountMisrankedPairs({1.0, 2.0, 3.0}, {10.0, 20.0, 30.0}), 0);
}

TEST(CountMisrankedPairsTest, ReversedRankingHasMaxLoss) {
  // All 6 ordered pairs with j != k are mis-ranked.
  EXPECT_EQ(CountMisrankedPairs({3.0, 2.0, 1.0}, {10.0, 20.0, 30.0}), 6);
}

TEST(CountMisrankedPairsTest, SingleSwapCountsTwice) {
  // Ordered-pair double counting: one swapped adjacent pair -> loss 2.
  EXPECT_EQ(CountMisrankedPairs({2.0, 1.0, 3.0}, {10.0, 20.0, 30.0}), 2);
}

TEST(CountMisrankedPairsTest, EmptyInputs) {
  EXPECT_EQ(CountMisrankedPairs({}, {}), 0);
}

TEST(CountMisrankedPairsOnSubsetTest, SubsetRestrictsPairs) {
  std::vector<double> pred = {3.0, 2.0, 1.0};
  std::vector<double> truth = {10.0, 20.0, 30.0};
  // Only indices {0, 1}: the pair (0, 1) is mis-ranked in both directions.
  EXPECT_EQ(CountMisrankedPairsOnSubset(pred, truth, {0, 1}), 2);
  // Repeated index contributes self-pairs, which never mis-rank.
  EXPECT_EQ(CountMisrankedPairsOnSubset(pred, truth, {0, 0}), 0);
}

TEST(CountMisrankedPairsWithCountsTest, MatchesSubsetCountOnResamples) {
  Rng rng(17);
  for (size_t n : {1, 2, 7, 40}) {
    // Values on a coarse grid, so both sides have ties.
    std::vector<double> pred(n), truth(n);
    for (size_t i = 0; i < n; ++i) {
      pred[i] = static_cast<double>(rng.UniformInt(0, 5));
      truth[i] = static_cast<double>(rng.UniformInt(0, 5));
    }
    const std::vector<uint8_t> misranked = MisrankedPairs(pred, truth);
    for (int s = 0; s < 20; ++s) {
      std::vector<size_t> subset(n);
      std::vector<int32_t> counts(n, 0);
      for (size_t i = 0; i < n; ++i) {
        subset[i] = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(n) - 1));
        ++counts[subset[i]];
      }
      EXPECT_EQ(CountMisrankedPairsWithCounts(misranked, counts),
                CountMisrankedPairsOnSubset(pred, truth, subset));
    }
  }
}

/// `n` seeded points of the unit interval, one per row, with objective x.
void UnitInterval(size_t n, uint64_t seed, Matrix* x, std::vector<double>* y) {
  Rng rng(seed);
  *x = Matrix(n, 1);
  y->resize(n);
  for (size_t i = 0; i < n; ++i) (*y)[i] = (*x)(i, 0) = rng.Uniform();
}

TEST(FitSurrogateTest, LearnsRanking) {
  Matrix x;
  std::vector<double> y;
  UnitInterval(80, 1, &x, &y);
  std::unique_ptr<Surrogate> model = FitSurrogate(x, y, {false}, 2);
  ASSERT_NE(model, nullptr);
  std::vector<double> pred =
      PredictMeans(*model, DesignMatrix({{0.1}, {0.5}, {0.9}}));
  ASSERT_EQ(pred.size(), 3u);
  EXPECT_LT(pred[0], pred[1]);
  EXPECT_LT(pred[1], pred[2]);
}

TEST(FitSurrogateTest, TooLittleDataReturnsNull) {
  EXPECT_EQ(FitSurrogate(Matrix(1, 1, 0.5), {1.0}, {false}, 3), nullptr);
  EXPECT_EQ(FitSurrogate(Matrix(0, 1), {}, {false}, 3), nullptr);
}

TEST(CrossValidationPredictionsTest, ShapeAndSanity) {
  Matrix x;
  std::vector<double> y;
  UnitInterval(50, 4, &x, &y);
  std::vector<double> pred = CrossValidationPredictions(x, y, 5, {false}, 6);
  ASSERT_EQ(pred.size(), y.size());
  // Held-out predictions should still broadly rank the data correctly.
  int64_t loss = CountMisrankedPairs(pred, y);
  int64_t max_loss = static_cast<int64_t>(y.size() * y.size());
  EXPECT_LT(loss, max_loss / 4);
}

TEST(CrossValidationPredictionsTest, TooFewPointsReturnsEmpty) {
  EXPECT_TRUE(CrossValidationPredictions(DesignMatrix({{0.1}, {0.9}}),
                                         {0.1, 0.9}, 5, {false}, 8)
                  .empty());
}

class FidelityWeightsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(space_.Add(Parameter::Float("x", 0.0, 1.0)).ok());
    ASSERT_TRUE(space_.Add(Parameter::Float("y", 0.0, 1.0)).ok());
  }

  double Truth(const Configuration& c) const {
    return (c[0] - 0.4) * (c[0] - 0.4) + (c[1] - 0.6) * (c[1] - 0.6);
  }

  ConfigurationSpace space_;
};

TEST_F(FidelityWeightsTest, FallbackBeforeHighFidelityData) {
  MeasurementStore store(3);
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    Configuration c = space_.Sample(&rng);
    store.Add(1, c, Truth(c));
  }
  FidelityWeightsOptions options;
  options.seed = 10;
  FidelityWeights weights(&space_, options);
  std::vector<double> theta = weights.ComputeTheta(store);
  ASSERT_EQ(theta.size(), 3u);
  EXPECT_FALSE(weights.used_ranking_loss());
  // All mass on level 1 (the only level with data).
  EXPECT_NEAR(theta[0], 1.0, 1e-9);
  EXPECT_NEAR(theta[1], 0.0, 1e-9);
}

TEST_F(FidelityWeightsTest, InformativeLowFidelityEarnsWeight) {
  MeasurementStore store(2);
  Rng rng(11);
  // Level 1 is a faithful (noise-free) proxy of the truth; D_K is smaller.
  for (int i = 0; i < 60; ++i) {
    Configuration c = space_.Sample(&rng);
    store.Add(1, c, Truth(c));
  }
  for (int i = 0; i < 15; ++i) {
    Configuration c = space_.Sample(&rng);
    store.Add(2, c, Truth(c));
  }
  FidelityWeightsOptions options;
  options.seed = 12;
  FidelityWeights weights(&space_, options);
  std::vector<double> theta = weights.ComputeTheta(store);
  ASSERT_EQ(theta.size(), 2u);
  EXPECT_TRUE(weights.used_ranking_loss());
  EXPECT_GT(theta[0], 0.2);  // the faithful low fidelity earns real weight
}

TEST_F(FidelityWeightsTest, MisleadingLowFidelityLosesWeight) {
  MeasurementStore store(2);
  Rng rng(13);
  // Level 1 is anti-correlated with the truth; level 2 is the truth.
  for (int i = 0; i < 60; ++i) {
    Configuration c = space_.Sample(&rng);
    store.Add(1, c, -Truth(c));
  }
  for (int i = 0; i < 30; ++i) {
    Configuration c = space_.Sample(&rng);
    store.Add(2, c, Truth(c));
  }
  FidelityWeightsOptions options;
  options.seed = 14;
  FidelityWeights weights(&space_, options);
  std::vector<double> theta = weights.ComputeTheta(store);
  ASSERT_EQ(theta.size(), 2u);
  EXPECT_TRUE(weights.used_ranking_loss());
  EXPECT_LT(theta[0], 0.25);
  EXPECT_GT(theta[1], 0.75);
}

TEST_F(FidelityWeightsTest, ThetaSumsToOneAndCaches) {
  MeasurementStore store(2);
  Rng rng(15);
  for (int i = 0; i < 40; ++i) {
    Configuration c = space_.Sample(&rng);
    store.Add(1 + i % 2, c, Truth(c));
  }
  FidelityWeightsOptions options;
  options.seed = 16;
  FidelityWeights weights(&space_, options);
  const std::vector<double>& theta1 = weights.ComputeTheta(store);
  double sum = 0.0;
  for (double t : theta1) sum += t;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Unchanged store: the same cached object is returned.
  const std::vector<double>& theta2 = weights.ComputeTheta(store);
  EXPECT_EQ(&theta1, &theta2);
}

}  // namespace
}  // namespace hypertune
