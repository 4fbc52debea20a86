// The shared theta fit cache: FidelityWeights instances that fit through
// one cache must return exactly the theta independent instances return, at
// every refresh lag and after in-place overwrites, and the cache must stay
// out of every snapshot. One test pins theta's bits and fit counts over a
// long run of refreshes.
#include "src/allocator/fidelity_weights.h"

#include <bit>
#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "src/allocator/bracket_selector.h"
#include "src/common/rng.h"

namespace hypertune {
namespace {

class FidelityWeightsCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(space_.Add(Parameter::Categorical("c", {"a", "b", "c"})).ok());
    ASSERT_TRUE(space_.Add(Parameter::Float("x", 0.0, 1.0)).ok());
    ASSERT_TRUE(space_.Add(Parameter::Float("y", 0.0, 1.0)).ok());
  }

  /// Objective at `level` of K: the truth plus level-dependent distortion.
  double Objective(const Configuration& c, int level, Rng* rng) const {
    const double truth = (c[1] - 0.4) * (c[1] - 0.4) + 0.5 * c[2] * c[0];
    const double noise = 0.3 / static_cast<double>(level);
    return truth + noise * (c[2] - 0.5) + 0.05 * rng->Gaussian();
  }

  /// Options small enough that a few hundred measurements exercise the
  /// capped low-fidelity fits and the random evaluation subset of D_K.
  static FidelityWeightsOptions Options() {
    FidelityWeightsOptions options;
    options.seed = 21;
    options.max_fit_points = 40;
    options.max_eval_points = 12;
    options.bootstrap_samples = 20;
    options.refresh_interval = 3;
    return options;
  }

  ConfigurationSpace space_;
};

void ExpectBitwiseEqual(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

TEST_F(FidelityWeightsCacheTest, SharedCacheMatchesIndependentInstances) {
  const FidelityWeightsOptions options = Options();
  MeasurementStore store(4);
  FidelityWeights owner(&space_, options);
  FidelityWeights view(&space_, options);
  view.ShareFitCacheWith(&owner);
  FidelityWeights lone_owner(&space_, options);
  FidelityWeights lone_view(&space_, options);

  Rng rng(3);
  bool overwrote = false;
  for (int step = 0; step < 320; ++step) {
    // Mostly cheap levels, as a bracket schedule produces.
    const double u = rng.Uniform();
    const int level = u < 0.5 ? 1 : u < 0.75 ? 2 : u < 0.9 ? 3 : 4;
    if (step == 200) {
      // Re-observe a stored level-2 configuration: Add overwrites its
      // objective in place, leaving the group's size unchanged.
      const Configuration config = store.group(2).front().config;
      const size_t size = store.group(2).size();
      store.Add(2, config, Objective(config, 2, &rng) + 1.0);
      ASSERT_EQ(store.group(2).size(), size);
      overwrote = true;
    } else {
      Configuration config = space_.Sample(&rng);
      store.Add(level, config, Objective(config, level, &rng));
    }
    // The two consumers refresh at different points, as the selector and
    // the sampler do.
    if (step % 2 == 0) {
      ExpectBitwiseEqual(owner.ComputeTheta(store),
                         lone_owner.ComputeTheta(store));
      EXPECT_EQ(owner.used_ranking_loss(), lone_owner.used_ranking_loss());
    }
    if (step % 5 == 1) {
      ExpectBitwiseEqual(view.ComputeTheta(store),
                         lone_view.ComputeTheta(store));
    }
  }
  ASSERT_TRUE(overwrote);
  ASSERT_GT(store.group(4).size(), Options().max_eval_points);
  EXPECT_TRUE(owner.used_ranking_loss());

  // Sharing saved fits: one cache did less than the two independent ones.
  const FidelityWeights::FitCounts shared = view.fit_counts();
  const FidelityWeights::FitCounts a = lone_owner.fit_counts();
  const FidelityWeights::FitCounts b = lone_view.fit_counts();
  EXPECT_EQ(shared.level_fits, owner.fit_counts().level_fits);
  EXPECT_GT(shared.level_fits, 0u);
  EXPECT_LT(shared.level_fits, a.level_fits + b.level_fits);
  EXPECT_LE(shared.cv_passes, a.cv_passes + b.cv_passes);
}

/// Folds the bits of `value` into an FNV-1a digest.
void HashBits(uint64_t value, uint64_t* hash) {
  for (int byte = 0; byte < 8; ++byte) {
    *hash ^= (value >> (8 * byte)) & 0xFF;
    *hash *= 1099511628211ULL;
  }
}

// Pins theta at its own layer: the bits of every estimate over a long run
// of refreshes on a four-level store, with capped low-fidelity fits, a
// sampled evaluation subset of D_K and in-place overwrites, plus the exact
// number of fits the cache made. A change to how theta encodes, caps, fits
// or predicts its data must leave every bit as it is.
TEST_F(FidelityWeightsCacheTest, ThetaBitsAndFitCountsArePinned) {
  const FidelityWeightsOptions options = Options();
  MeasurementStore store(4);
  FidelityWeights weights(&space_, options);
  Rng rng(17);
  uint64_t digest = 1469598103934665603ULL;
  int overwrites = 0;
  for (int step = 0; step < 400; ++step) {
    const double u = rng.Uniform();
    const int level = u < 0.5 ? 1 : u < 0.75 ? 2 : u < 0.9 ? 3 : 4;
    if (step % 37 == 36 && !store.group(level).empty()) {
      // Re-observe a stored configuration: its objective changes in place.
      const auto& group = store.group(level);
      const Configuration config =
          group[static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int64_t>(group.size()) - 1))]
              .config;
      store.Add(level, config, Objective(config, level, &rng) - 0.5);
      ++overwrites;
    } else {
      Configuration config = space_.Sample(&rng);
      store.Add(level, config, Objective(config, level, &rng));
    }
    for (double theta : weights.ComputeTheta(store)) {
      HashBits(std::bit_cast<uint64_t>(theta), &digest);
    }
    HashBits(weights.used_ranking_loss() ? 1 : 0, &digest);
  }
  ASSERT_GT(overwrites, 5);
  ASSERT_GT(store.group(1).size(), options.max_fit_points);
  ASSERT_GT(store.group(4).size(), options.max_eval_points);
  EXPECT_TRUE(weights.used_ranking_loss());
  EXPECT_EQ(digest, 13489033541333727514ULL);
  EXPECT_EQ(weights.fit_counts().level_fits, 213u);
  EXPECT_EQ(weights.fit_counts().cv_passes, 112u);
}

TEST_F(FidelityWeightsCacheTest, OverwriteRefitsOnlyItsLevel) {
  FidelityWeightsOptions options = Options();
  options.refresh_interval = 1;
  // All of D_K is evaluated, so its cross-validation depends on D_K alone.
  options.max_eval_points = 64;
  MeasurementStore store(3);
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    const int level = 1 + i % 3;
    Configuration config = space_.Sample(&rng);
    store.Add(level, config, Objective(config, level, &rng));
  }
  FidelityWeights weights(&space_, options);
  weights.ComputeTheta(store);
  ASSERT_TRUE(weights.used_ranking_loss());
  const FidelityWeights::FitCounts before = weights.fit_counts();
  EXPECT_EQ(before.level_fits, 2u);
  EXPECT_EQ(before.cv_passes, 1u);

  const uint64_t level1 = store.level_version(1);
  const uint64_t level2 = store.level_version(2);
  const uint64_t level3 = store.level_version(3);
  const Configuration config = store.group(1)[7].config;
  const size_t size = store.group(1).size();
  store.Add(1, config, store.group(1)[7].objective - 2.0);
  ASSERT_EQ(store.group(1).size(), size);
  EXPECT_NE(store.level_version(1), level1);
  EXPECT_EQ(store.level_version(2), level2);
  EXPECT_EQ(store.level_version(3), level3);

  const std::vector<double> theta = weights.ComputeTheta(store);
  const FidelityWeights::FitCounts after = weights.fit_counts();
  EXPECT_EQ(after.level_fits, before.level_fits + 1);  // level 1 only
  EXPECT_EQ(after.cv_passes, before.cv_passes);        // D_K unchanged
  FidelityWeights fresh(&space_, options);
  ExpectBitwiseEqual(theta, fresh.ComputeTheta(store));
}

TEST_F(FidelityWeightsCacheTest, CacheStaysOutOfSelectorSnapshots) {
  const FidelityWeightsOptions options = Options();
  BracketSelectorOptions selector_options;
  selector_options.policy = BracketPolicy::kLearned;
  selector_options.init_selections = 4;
  selector_options.seed = 9;
  const std::vector<double> resources = {1.0, 3.0, 9.0, 27.0};

  MeasurementStore store(4);
  // The selector's weights share their cache with a second instance that
  // fits on its own schedule, so the cache is warm with entries the
  // selector never asked for.
  FidelityWeights shared(&space_, options);
  FidelityWeights other(&space_, options);
  other.ShareFitCacheWith(&shared);
  BracketSelector selector(4, resources, &shared, selector_options);
  FidelityWeights lone(&space_, options);
  BracketSelector lone_selector(4, resources, &lone, selector_options);

  Rng rng(8);
  auto grow = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const int level = 1 + static_cast<int>(rng.UniformInt(0, 3));
      Configuration config = space_.Sample(&rng);
      store.Add(level, config, Objective(config, level, &rng));
    }
  };
  std::string restore_point;
  for (int step = 0; step < 60; ++step) {
    grow(3);
    if (step % 4 == 3) other.ComputeTheta(store);
    EXPECT_EQ(selector.Select(store), lone_selector.Select(store));
    WireEncoder a, b;
    selector.Snapshot(&a);
    lone_selector.Snapshot(&b);
    ASSERT_EQ(a.bytes(), b.bytes()) << "step " << step;
    if (step == 30) restore_point = a.bytes();
  }
  EXPECT_GT(shared.fit_counts().level_fits, 0u);

  // A selector restored from those bytes onto a cold cache continues
  // exactly like the warm one: the cache carried no state.
  MeasurementStore replay(4);
  Rng replay_rng(8);
  FidelityWeights cold(&space_, options);
  BracketSelector restored(4, resources, &cold, selector_options);
  FidelityWeights warm(&space_, options);
  BracketSelector continued(4, resources, &warm, selector_options);
  auto grow_replay = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const int level = 1 + static_cast<int>(replay_rng.UniformInt(0, 3));
      Configuration config = space_.Sample(&replay_rng);
      replay.Add(level, config, Objective(config, level, &replay_rng));
    }
  };
  for (int step = 0; step <= 30; ++step) {
    grow_replay(3);
    continued.Select(replay);
  }
  WireDecoder decoder(restore_point);
  ASSERT_TRUE(restored.Restore(&decoder).ok());
  for (int step = 31; step < 60; ++step) {
    grow_replay(3);
    EXPECT_EQ(restored.Select(replay), continued.Select(replay));
    ExpectBitwiseEqual(restored.last_weights(), continued.last_weights());
  }
}

}  // namespace
}  // namespace hypertune
