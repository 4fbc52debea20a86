#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/obs/observability.h"
#include "src/optimizer/bo_sampler.h"
#include "src/optimizer/median_imputation.h"
#include "src/optimizer/mfes_sampler.h"
#include "src/optimizer/random_sampler.h"
#include "src/optimizer/rea_sampler.h"
#include "src/surrogate/random_forest.h"
#include "tests/design_matrix.h"

namespace hypertune {
namespace {

ConfigurationSpace SmallSpace() {
  ConfigurationSpace space;
  EXPECT_TRUE(space.Add(Parameter::Float("x", 0.0, 1.0)).ok());
  EXPECT_TRUE(space.Add(Parameter::Float("y", 0.0, 1.0)).ok());
  return space;
}

ConfigurationSpace TinyDiscreteSpace() {
  ConfigurationSpace space;
  EXPECT_TRUE(space.Add(Parameter::Categorical("a", {"0", "1"})).ok());
  EXPECT_TRUE(space.Add(Parameter::Categorical("b", {"0", "1"})).ok());
  return space;
}

double Bowl(const Configuration& c) {
  return (c[0] - 0.25) * (c[0] - 0.25) + (c[1] - 0.75) * (c[1] - 0.75);
}

TEST(RandomSamplerTest, ProducesValidConfigs) {
  ConfigurationSpace space = SmallSpace();
  MeasurementStore store(1);
  RandomSampler sampler(&space, &store, 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(space.Validate(sampler.Sample(1)).ok());
  }
}

TEST(RandomSamplerTest, AvoidsKnownConfigsInTinySpaces) {
  ConfigurationSpace space = TinyDiscreteSpace();  // only 4 configs
  MeasurementStore store(1);
  store.Add(1, Configuration({0.0, 0.0}), 0.1);
  store.Add(1, Configuration({0.0, 1.0}), 0.2);
  store.AddPending(Configuration({1.0, 0.0}), 1);
  RandomSampler sampler(&space, &store, 2);
  // The only unknown configuration is (1, 1); rejection sampling should
  // find it almost always.
  int found = 0;
  for (int i = 0; i < 50; ++i) {
    Configuration c = sampler.Sample(1);
    if (c == Configuration({1.0, 1.0})) ++found;
  }
  EXPECT_GE(found, 40);
}

TEST(IsKnownConfigurationTest, ChecksGroupsAndPending) {
  ConfigurationSpace space = SmallSpace();
  MeasurementStore store(2);
  Configuration a({0.1, 0.2});
  Configuration b({0.3, 0.4});
  EXPECT_FALSE(IsKnownConfiguration(store, a));
  store.Add(2, a, 1.0);
  EXPECT_TRUE(IsKnownConfiguration(store, a));
  store.AddPending(b, 1);
  EXPECT_TRUE(IsKnownConfiguration(store, b));
}

TEST(MedianImputationTest, BuildsDataFromGroup) {
  ConfigurationSpace space = SmallSpace();
  MeasurementStore store(1);
  store.Add(1, Configuration({0.1, 0.2}), 1.0);
  store.Add(1, Configuration({0.3, 0.4}), 3.0);
  SurrogateData data = BuildSurrogateData(space, store, 1);
  EXPECT_EQ(data.x.rows(), 2u);
  EXPECT_EQ(data.num_real, 2u);
  EXPECT_EQ(data.num_imputed, 0u);
  EXPECT_DOUBLE_EQ(data.y[0], 1.0);
}

TEST(MedianImputationTest, PendingImputedAtMedian) {
  ConfigurationSpace space = SmallSpace();
  MeasurementStore store(1);
  store.Add(1, Configuration({0.1, 0.2}), 1.0);
  store.Add(1, Configuration({0.3, 0.4}), 3.0);
  store.Add(1, Configuration({0.5, 0.6}), 5.0);
  store.AddPending(Configuration({0.9, 0.9}), 1);
  store.AddPending(Configuration({0.8, 0.8}), 1);
  SurrogateData data = BuildSurrogateDataWithPendingMedian(space, store, 1);
  EXPECT_EQ(data.num_real, 3u);
  EXPECT_EQ(data.num_imputed, 2u);
  ASSERT_EQ(data.y.size(), 5u);
  EXPECT_DOUBLE_EQ(data.y[3], 3.0);  // median of {1, 3, 5}
  EXPECT_DOUBLE_EQ(data.y[4], 3.0);
}

TEST(MedianImputationTest, OnlyImputesPendingAtTheFittedLevel) {
  // Regression: pending configurations at *other* fidelity levels were
  // imputed into every level's surrogate data. Algorithm 2 imputes only the
  // configurations pending within the bracket/level being fit (§3.2).
  ConfigurationSpace space = SmallSpace();
  MeasurementStore store(2);
  store.Add(1, Configuration({0.1, 0.2}), 1.0);
  store.Add(1, Configuration({0.3, 0.4}), 3.0);
  store.AddPending(Configuration({0.5, 0.5}), 1);
  store.AddPending(Configuration({0.7, 0.7}), 2);  // other level: excluded
  SurrogateData level1 = BuildSurrogateDataWithPendingMedian(space, store, 1);
  EXPECT_EQ(level1.num_real, 2u);
  EXPECT_EQ(level1.num_imputed, 1u);
  ASSERT_EQ(level1.y.size(), 3u);
  EXPECT_DOUBLE_EQ(level1.y[2], 2.0);  // median of {1, 3}

  store.Add(2, Configuration({0.1, 0.2}), 0.5);
  SurrogateData level2 = BuildSurrogateDataWithPendingMedian(space, store, 2);
  EXPECT_EQ(level2.num_real, 1u);
  EXPECT_EQ(level2.num_imputed, 1u);
}

TEST(MedianImputationTest, EmptyGroupYieldsNoImputation) {
  ConfigurationSpace space = SmallSpace();
  MeasurementStore store(1);
  store.AddPending(Configuration({0.9, 0.9}), 1);
  SurrogateData data = BuildSurrogateDataWithPendingMedian(space, store, 1);
  EXPECT_EQ(data.num_real, 0u);
  EXPECT_EQ(data.num_imputed, 0u);
}

TEST(BoSamplerTest, RandomUntilEnoughData) {
  ConfigurationSpace space = SmallSpace();
  MeasurementStore store(1);
  BoSamplerOptions options;
  options.seed = 3;
  BoSampler sampler(&space, &store, options);
  Configuration c = sampler.Sample(1);
  EXPECT_TRUE(space.Validate(c).ok());
  EXPECT_EQ(sampler.last_fit_level(), 0);  // model never engaged
}

TEST(BoSamplerTest, ModelGuidesTowardsOptimum) {
  ConfigurationSpace space = SmallSpace();
  MeasurementStore store(1);
  Rng rng(4);
  for (int i = 0; i < 60; ++i) {
    Configuration c = space.Sample(&rng);
    store.Add(1, c, Bowl(c));
  }
  BoSamplerOptions options;
  options.seed = 5;
  options.random_fraction = 0.0;  // force model-based proposals
  BoSampler sampler(&space, &store, options);
  // Average proposal should be much closer to (0.25, 0.75) than uniform.
  double total_dist = 0.0;
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    Configuration c = sampler.Sample(1);
    total_dist += Bowl(c);
  }
  EXPECT_GT(sampler.last_fit_level(), 0);
  // Uniform random proposals would average ~0.3 on this bowl.
  EXPECT_LT(total_dist / n, 0.2);
}

TEST(BoSamplerTest, FitsHighestLevelWithEnoughData) {
  ConfigurationSpace space = SmallSpace();
  MeasurementStore store(3);
  Rng rng(6);
  for (int i = 0; i < 30; ++i) {
    Configuration c = space.Sample(&rng);
    store.Add(1, c, Bowl(c));
  }
  for (int i = 0; i < 10; ++i) {
    Configuration c = space.Sample(&rng);
    store.Add(2, c, Bowl(c));
  }
  BoSamplerOptions options;
  options.seed = 7;
  options.random_fraction = 0.0;
  options.min_points = 8;
  BoSampler sampler(&space, &store, options);
  sampler.Sample(1);
  EXPECT_EQ(sampler.last_fit_level(), 2);
}

TEST(MaximizeAcquisitionTest, ReturnsNulloptWhenAllKnown) {
  ConfigurationSpace space = TinyDiscreteSpace();
  // Known is measured or pending at any level: in the second round the
  // only unmeasured config is pending, at another level than the data.
  for (bool last_pending : {false, true}) {
    MeasurementStore store(2);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (double a : {0.0, 1.0}) {
      for (double b : {0.0, 1.0}) {
        Configuration c({a, b});
        if (last_pending && a + b == 2.0) {
          store.AddPending(c, 2);
          continue;
        }
        store.Add(1, c, a + b);
        x.push_back(space.Encode(c));
        y.push_back(a + b);
      }
    }
    RandomForest model;
    ASSERT_TRUE(model.Fit(DesignMatrix(x), y).ok());
    Rng rng(8);
    std::optional<Configuration> result = MaximizeAcquisition(
        space, store, model, 0.0, 1, BoSamplerOptions{}, nullptr, &rng);
    EXPECT_FALSE(result.has_value()) << "last_pending = " << last_pending;
  }
}

TEST(MfesSamplerTest, RefitsTopMemberOnlyWhenItsTrainingSetChanges) {
  ConfigurationSpace space = SmallSpace();
  MeasurementStore store(2);
  Rng rng(12);
  std::vector<Configuration> top;
  for (int i = 0; i < 24; ++i) {
    Configuration c = space.Sample(&rng);
    store.Add(1, c, Bowl(c));
    if (i % 2 == 0) {
      store.Add(2, c, Bowl(c));
      top.push_back(c);
    }
  }
  MfesSamplerOptions options;
  options.bo.seed = 13;
  options.bo.random_fraction = 0.0;
  MfesSampler sampler(&space, &store, options);
  Observability obs;
  sampler.SetObservability(&obs);
  auto fits = [&obs] {
    const MetricsSnapshot metrics = obs.metrics.Snapshot();
    auto it = metrics.counters.find("sampler.fits");
    return it != metrics.counters.end() ? it->second : 0;
  };
  sampler.Sample(2);
  EXPECT_EQ(fits(), 2);  // M_1 and M_2

  // A pending config at a lower level leaves M_2's data as it was.
  store.AddPending(space.Sample(&rng), 1);
  sampler.Sample(2);
  EXPECT_EQ(fits(), 2);

  // One pending at level 2 joins M_2's data at the median.
  store.AddPending(space.Sample(&rng), 2);
  sampler.Sample(2);
  EXPECT_EQ(fits(), 3);

  // An in-place overwrite changes no group size but does change D_2.
  store.Add(2, top[0], Bowl(top[0]) + 0.5);
  sampler.Sample(2);
  EXPECT_EQ(fits(), 4);
}

TEST(MfesSamplerTest, RandomUntilEnoughDataThenModelBased) {
  ConfigurationSpace space = SmallSpace();
  MeasurementStore store(3);
  MfesSamplerOptions options;
  options.bo.seed = 9;
  MfesSampler sampler(&space, &store, options);
  EXPECT_TRUE(space.Validate(sampler.Sample(1)).ok());

  Rng rng(10);
  for (int i = 0; i < 40; ++i) {
    Configuration c = space.Sample(&rng);
    store.Add(1, c, Bowl(c));
    if (i % 3 == 0) store.Add(2, c, Bowl(c));
    if (i % 9 == 0) store.Add(3, c, Bowl(c));
  }
  MfesSamplerOptions guided;
  guided.bo.seed = 11;
  guided.bo.random_fraction = 0.0;
  MfesSampler model_sampler(&space, &store, guided);
  double total = 0.0;
  const int n = 20;
  for (int i = 0; i < n; ++i) total += Bowl(model_sampler.Sample(1));
  EXPECT_LT(total / n, 0.15);
  EXPECT_FALSE(model_sampler.last_theta().empty());
}

TEST(MfesSamplerTest, ThetaSumsToOne) {
  ConfigurationSpace space = SmallSpace();
  MeasurementStore store(3);
  Rng rng(12);
  for (int i = 0; i < 60; ++i) {
    Configuration c = space.Sample(&rng);
    store.Add(1 + i % 3, c, Bowl(c));
  }
  MfesSamplerOptions options;
  options.bo.seed = 13;
  options.bo.random_fraction = 0.0;
  MfesSampler sampler(&space, &store, options);
  sampler.Sample(1);
  double sum = 0.0;
  for (double theta : sampler.last_theta()) sum += theta;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ReaSamplerTest, RandomWhilePopulationSmall) {
  ConfigurationSpace space = SmallSpace();
  MeasurementStore store(1);
  ReaSamplerOptions options;
  options.population_size = 10;
  options.seed = 14;
  ReaSampler sampler(&space, &store, options);
  EXPECT_EQ(sampler.population_size(), 0u);
  EXPECT_TRUE(space.Validate(sampler.Sample(1)).ok());
}

TEST(ReaSamplerTest, PopulationAgesOut) {
  ConfigurationSpace space = SmallSpace();
  MeasurementStore store(1);
  ReaSamplerOptions options;
  options.population_size = 5;
  options.seed = 15;
  ReaSampler sampler(&space, &store, options);
  Rng rng(16);
  for (int i = 0; i < 20; ++i) {
    sampler.OnObservation(space.Sample(&rng), rng.Uniform(), 1);
  }
  EXPECT_EQ(sampler.population_size(), 5u);
}

TEST(ReaSamplerTest, MutatesTournamentWinner) {
  ConfigurationSpace space = SmallSpace();
  MeasurementStore store(1);
  ReaSamplerOptions options;
  options.population_size = 4;
  options.tournament_size = 4;  // winner = global best of population
  options.seed = 17;
  ReaSampler sampler(&space, &store, options);
  Configuration best({0.25, 0.75});
  sampler.OnObservation(best, 0.0, 1);
  Rng rng(18);
  for (int i = 0; i < 3; ++i) {
    sampler.OnObservation(space.Sample(&rng), 10.0 + i, 1);
  }
  // Children mutate exactly one parameter of the best individual, so at
  // least one coordinate of the parent survives in each child.
  for (int i = 0; i < 20; ++i) {
    Configuration child = sampler.Sample(1);
    int shared = 0;
    for (size_t d = 0; d < space.size(); ++d) {
      if (child[d] == best[d]) ++shared;
    }
    EXPECT_GE(shared, 1);
  }
}

TEST(ReaSamplerTest, MinLevelFiltersObservations) {
  ConfigurationSpace space = SmallSpace();
  MeasurementStore store(3);
  ReaSamplerOptions options;
  options.min_level = 3;
  options.seed = 19;
  ReaSampler sampler(&space, &store, options);
  sampler.OnObservation(Configuration({0.1, 0.1}), 1.0, 1);
  sampler.OnObservation(Configuration({0.2, 0.2}), 1.0, 2);
  EXPECT_EQ(sampler.population_size(), 0u);
  sampler.OnObservation(Configuration({0.3, 0.3}), 1.0, 3);
  EXPECT_EQ(sampler.population_size(), 1u);
}

}  // namespace
}  // namespace hypertune
