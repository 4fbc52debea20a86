#include "src/surrogate/gaussian_process.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/surrogate/kernel.h"
#include "tests/design_matrix.h"

namespace hypertune {
namespace {

/// 1-D test function on the unit interval.
double Objective(double x) { return std::sin(6.0 * x) + 0.5 * x; }

TEST(KernelTest, SelfCovarianceIsSignalVariance) {
  Matern52Kernel k({0.5, 0.5}, 2.0);
  std::vector<double> x = {0.3, 0.7};
  EXPECT_DOUBLE_EQ(k(x, x), 2.0);
}

TEST(KernelTest, DecaysWithDistance) {
  Matern52Kernel k({0.5}, 1.0);
  double near = k({0.0}, {0.1});
  double far = k({0.0}, {0.9});
  EXPECT_GT(near, far);
  EXPECT_GT(far, 0.0);
}

TEST(KernelTest, ArdLengthscalesWeightDimensions) {
  // Long lengthscale in dim 0 -> distance along dim 0 matters less.
  Matern52Kernel k({10.0, 0.1}, 1.0);
  double along_insensitive = k({0.0, 0.0}, {0.5, 0.0});
  double along_sensitive = k({0.0, 0.0}, {0.0, 0.5});
  EXPECT_GT(along_insensitive, along_sensitive);
}

TEST(KernelTest, GramMatrixIsSymmetricWithUnitDiagonal) {
  Matern52Kernel k({0.5}, 1.5);
  Matrix gram = k.GramMatrix(DesignMatrix({{0.1}, {0.4}, {0.9}}));
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(gram(i, i), 1.5);
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(gram(i, j), gram(j, i));
    }
  }
}

TEST(KernelTest, DiffBlocksGramMatchesDirectGram) {
  // GaussianProcess::Fit scores every likelihood through the blocks path;
  // GramMatrix(x) is the reference it must reproduce bit for bit.
  Rng rng(17);
  for (size_t dim : {1u, 6u}) {
    for (size_t n : {0u, 1u, 2u, 37u}) {
      Matrix x(n, dim);
      for (double& v : x.data()) v = rng.Uniform(-2.0, 3.0);
      std::vector<double> lengthscales(dim);
      for (double& l : lengthscales) l = rng.Uniform(0.05, 2.0);
      Matern52Kernel kernel(std::move(lengthscales), 1.7);
      const Matrix direct = kernel.GramMatrix(x);
      const Matrix blocked = kernel.GramMatrix(BuildKernelDiffBlocks(x));
      ASSERT_EQ(blocked.rows(), n);
      ASSERT_EQ(blocked.cols(), n);
      ASSERT_EQ(direct.rows(), n);
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
          EXPECT_EQ(std::bit_cast<uint64_t>(blocked(i, j)),
                    std::bit_cast<uint64_t>(direct(i, j)))
              << "n " << n << " dim " << dim << " at (" << i << ", " << j
              << ")";
        }
      }
    }
  }
}

TEST(GaussianProcessTest, RejectsBadInput) {
  GaussianProcess gp;
  EXPECT_FALSE(gp.Fit(Matrix(), {}).ok());
  EXPECT_FALSE(gp.Fit(Matrix(1, 1, 0.1), {1.0, 2.0}).ok());
  EXPECT_FALSE(gp.fitted());
}

TEST(GaussianProcessTest, InterpolatesTrainingData) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i <= 12; ++i) {
    double v = i / 12.0;
    x.push_back({v});
    y.push_back(Objective(v));
  }
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(DesignMatrix(x), y).ok());
  EXPECT_TRUE(gp.fitted());
  EXPECT_EQ(gp.num_observations(), 13u);
  for (size_t i = 0; i < x.size(); ++i) {
    Prediction p = gp.Predict(x[i]);
    EXPECT_NEAR(p.mean, y[i], 0.12);
  }
}

TEST(GaussianProcessTest, GeneralizesBetweenPoints) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i <= 20; ++i) {
    double v = i / 20.0;
    x.push_back({v});
    y.push_back(Objective(v));
  }
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(DesignMatrix(x), y).ok());
  for (double v : {0.12, 0.47, 0.81}) {
    Prediction p = gp.Predict({v});
    EXPECT_NEAR(p.mean, Objective(v), 0.2) << "at " << v;
  }
}

TEST(GaussianProcessTest, VarianceGrowsAwayFromData) {
  std::vector<std::vector<double>> x = {{0.4}, {0.45}, {0.5}, {0.55}, {0.6}};
  std::vector<double> y;
  for (const auto& xi : x) y.push_back(Objective(xi[0]));
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(DesignMatrix(x), y).ok());
  double var_inside = gp.Predict({0.5}).variance;
  double var_outside = gp.Predict({0.0}).variance;
  EXPECT_GT(var_outside, var_inside);
}

TEST(GaussianProcessTest, HyperparameterFitImprovesLikelihood) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(5);
  for (int i = 0; i < 25; ++i) {
    double v = rng.Uniform();
    x.push_back({v});
    y.push_back(Objective(v) + 0.01 * rng.Gaussian());
  }
  GaussianProcessOptions fixed;
  fixed.optimize_hyperparameters = false;
  GaussianProcess gp_fixed(fixed);
  ASSERT_TRUE(gp_fixed.Fit(DesignMatrix(x), y).ok());

  GaussianProcess gp_opt;  // optimization on by default
  ASSERT_TRUE(gp_opt.Fit(DesignMatrix(x), y).ok());
  EXPECT_GE(gp_opt.log_marginal_likelihood(),
            gp_fixed.log_marginal_likelihood());
}

TEST(GaussianProcessTest, DeterministicGivenSeed) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(6);
  for (int i = 0; i < 15; ++i) {
    double v = rng.Uniform();
    x.push_back({v});
    y.push_back(Objective(v));
  }
  GaussianProcessOptions options;
  options.seed = 11;
  GaussianProcess a(options), b(options);
  ASSERT_TRUE(a.Fit(DesignMatrix(x), y).ok());
  ASSERT_TRUE(b.Fit(DesignMatrix(x), y).ok());
  Prediction pa = a.Predict({0.33});
  Prediction pb = b.Predict({0.33});
  EXPECT_DOUBLE_EQ(pa.mean, pb.mean);
  EXPECT_DOUBLE_EQ(pa.variance, pb.variance);
}

TEST(GaussianProcessTest, SubsamplesBeyondCap) {
  GaussianProcessOptions options;
  options.max_points = 50;
  options.num_restarts = 2;
  options.refine_sweeps = 0;
  GaussianProcess gp(options);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    double v = rng.Uniform();
    x.push_back({v});
    y.push_back(Objective(v));
  }
  ASSERT_TRUE(gp.Fit(DesignMatrix(x), y).ok());
  EXPECT_EQ(gp.num_observations(), 50u);
  // Still a sane model.
  EXPECT_NEAR(gp.Predict({0.5}).mean, Objective(0.5), 0.4);
}

TEST(GaussianProcessTest, ConstantTargetsHandled) {
  std::vector<std::vector<double>> x = {{0.1}, {0.5}, {0.9}};
  std::vector<double> y = {2.0, 2.0, 2.0};
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(DesignMatrix(x), y).ok());
  EXPECT_NEAR(gp.Predict({0.3}).mean, 2.0, 1e-6);
}

TEST(GaussianProcessTest, ClampedKernelParamsClampsOutOfBounds) {
  // Regression: the likelihood search clamps phi before scoring, and the
  // install path must apply the same clamps — a wildly out-of-bounds phi
  // may never be installed verbatim.
  KernelPhiParams p = ClampedKernelParams({10.0, -20.0, 10.0, -20.0}, 2);
  EXPECT_DOUBLE_EQ(p.lengthscales[0], std::exp(4.0));
  EXPECT_DOUBLE_EQ(p.lengthscales[1], std::exp(-6.0));
  EXPECT_DOUBLE_EQ(p.signal_variance, std::exp(4.0));
  EXPECT_DOUBLE_EQ(p.noise_variance, std::exp(-12.0));

  // In-bounds phi passes through as plain exp().
  KernelPhiParams q = ClampedKernelParams({0.5, -1.0, 0.0, -4.0}, 2);
  EXPECT_DOUBLE_EQ(q.lengthscales[0], std::exp(0.5));
  EXPECT_DOUBLE_EQ(q.lengthscales[1], std::exp(-1.0));
  EXPECT_DOUBLE_EQ(q.signal_variance, 1.0);
  EXPECT_DOUBLE_EQ(q.noise_variance, std::exp(-4.0));
}

TEST(GaussianProcessTest, FitInstallsInBoundsParameters) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(9);
  for (int i = 0; i < 30; ++i) {
    double v = rng.Uniform();
    x.push_back({v});
    y.push_back(Objective(v));
  }
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(DesignMatrix(x), y).ok());
  // Installed parameters always lie in the clamped (scored) region.
  for (double l : gp.lengthscales()) {
    EXPECT_GE(l, std::exp(-6.0));
    EXPECT_LE(l, std::exp(4.0));
  }
  EXPECT_GE(gp.signal_variance(), std::exp(-6.0));
  EXPECT_LE(gp.signal_variance(), std::exp(4.0));
  EXPECT_GE(gp.noise_variance(), std::exp(-12.0));
  EXPECT_LE(gp.noise_variance(), std::exp(2.0));
}

TEST(GaussianProcessTest, RestartSeedDerivedFromTotalCount) {
  // Regression: the restart RNG used to be seeded with the kept
  // (post-subsample) count, which is constant (== max_points) for every
  // capped fit — successive refits re-explored identical restart sequences.
  GaussianProcessOptions options;
  options.seed = 11;
  options.max_points = 50;
  options.num_restarts = 2;
  options.refine_sweeps = 0;
  auto make_data = [](int n) {
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    Rng rng(7);
    for (int i = 0; i < n; ++i) {
      double v = rng.Uniform();
      x.push_back({v});
      y.push_back(Objective(v));
    }
    return std::make_pair(x, y);
  };

  GaussianProcess a(options), b(options);
  auto [xa, ya] = make_data(60);
  auto [xb, yb] = make_data(61);
  ASSERT_TRUE(a.Fit(DesignMatrix(xa), ya).ok());
  ASSERT_TRUE(b.Fit(DesignMatrix(xb), yb).ok());
  EXPECT_EQ(a.num_observations(), 50u);
  EXPECT_EQ(b.num_observations(), 50u);
  // The seed reflects the total observation count, not the kept count.
  EXPECT_EQ(a.last_restart_seed(), CombineSeeds(11, 60));
  EXPECT_EQ(b.last_restart_seed(), CombineSeeds(11, 61));
  EXPECT_NE(a.last_restart_seed(), b.last_restart_seed());
}

}  // namespace
}  // namespace hypertune
