#include "src/common/rng.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace hypertune {
namespace {

// Rng's std::mt19937_64-backed reference: the same seeding, the standard
// engine and the std distributions Rng's draws must stay bit-identical to.
struct StdReference {
  explicit StdReference(uint64_t seed) : engine(MixSeed(seed)) {}

  double Uniform() { return unit(engine); }
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine);
  }
  double Gaussian() { return normal(engine); }

  size_t Categorical(const std::vector<double>& weights) {
    double total = 0.0;
    for (double w : weights) {
      if (w > 0.0) total += w;
    }
    if (total <= 0.0) {
      return static_cast<size_t>(
          UniformInt(0, static_cast<int64_t>(weights.size()) - 1));
    }
    double u = Uniform() * total;
    double acc = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
      if (weights[i] > 0.0) {
        acc += weights[i];
        if (u < acc) return i;
      }
    }
    return weights.size() - 1;
  }

  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k) {
    std::vector<size_t> indices(n);
    for (size_t i = 0; i < n; ++i) indices[i] = i;
    std::vector<size_t> out;
    for (size_t i = 0; i < k; ++i) {
      size_t j = static_cast<size_t>(
          UniformInt(static_cast<int64_t>(i), static_cast<int64_t>(n) - 1));
      std::swap(indices[i], indices[j]);
      out.push_back(indices[i]);
    }
    return out;
  }

  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      size_t j =
          static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*values)[i - 1], (*values)[j]);
    }
  }

  // The state Rng::SerializeState must write for this reference.
  std::string State() const;

  std::mt19937_64 engine;
  std::uniform_real_distribution<double> unit{0.0, 1.0};
  std::normal_distribution<double> normal{0.0, 1.0};
};

// Draw counts around the lazy first generation's edges: before any draw,
// the last word computed from the seed alone, the generation boundary, and
// a later generation.
constexpr size_t kStateDrawCounts[] = {0,   1,   155, 156, 157,
                                       311, 312, 313, 1000};

void PutLE(uint64_t value, int bytes, std::string* out) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>(value >> (8 * i)));
  }
}

// The standard engine's 312 state words and position, read from its text,
// in MersenneTwister64::AppendState's little-endian layout.
std::string StdEngineState(const std::mt19937_64& engine) {
  std::stringstream text;
  text << engine;
  std::string state;
  uint64_t value = 0;
  for (int k = 0; k < 312; ++k) {
    text >> value;
    PutLE(value, 8, &state);
  }
  text >> value;
  PutLE(value, 4, &state);
  std::string extra;
  EXPECT_TRUE(text && !(text >> extra)) << "unexpected std engine text";
  return state;
}

std::string NormalText(const std::normal_distribution<double>& normal) {
  std::ostringstream out;
  out << normal;
  return out.str();
}

std::string StdReference::State() const {
  return StdEngineState(engine) + NormalText(normal);
}

std::string EngineState(const MersenneTwister64& engine) {
  std::string state;
  engine.AppendState(&state);
  return state;
}

// Overwrites the engine position at the end of a state's engine bytes.
void SetPosition(uint32_t position, std::string* state) {
  std::string bytes;
  PutLE(position, 4, &bytes);
  state->replace(8 * 312, 4, bytes);
}


TEST(MixSeedTest, DistinctInputsGiveDistinctOutputs) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) seen.insert(MixSeed(i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(CombineSeedsTest, OrderSensitive) {
  EXPECT_NE(CombineSeeds(1, 2), CombineSeeds(2, 1));
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(-2, 3));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(3);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, LogNormalIsPositive) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_GT(rng.LogNormal(0.0, 1.0), 0.0);
}

TEST(RngTest, BernoulliRespectsProbability) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(6);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngTest, CategoricalAllZeroFallsBackToUniform) {
  Rng rng(7);
  std::vector<double> weights = {0.0, 0.0, 0.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 3000; ++i) ++counts[rng.Categorical(weights)];
  for (int c : counts) EXPECT_GT(c, 700);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(8);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<size_t> sample = rng.SampleWithoutReplacement(20, 10);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
    for (size_t idx : sample) EXPECT_LT(idx, 20u);
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(9);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(5, 5);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(10);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> original = values;
  rng.Shuffle(&values);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, original);
}

TEST(MersenneTwister64Test, OutputsMatchStdEngine) {
  // Seeds 0, 1 and ~0 run 2000 draws; 100 random seeds run 0..2000 draws,
  // which cross the lazy first generation's end and later boundaries.
  std::vector<uint64_t> seeds = {0, 1, ~uint64_t{0}};
  std::mt19937_64 seeder(20261017);
  for (int i = 0; i < 100; ++i) seeds.push_back(seeder());
  for (size_t s = 0; s < seeds.size(); ++s) {
    const uint64_t seed = seeds[s];
    MersenneTwister64 ours(seed);
    std::mt19937_64 ref(seed);
    const size_t draws = s < 3 ? 2000 : static_cast<size_t>(seeder() % 2001);
    for (size_t i = 0; i < draws; ++i) {
      ASSERT_EQ(ours(), ref()) << "seed " << seed << " draw " << i;
    }
    ASSERT_EQ(EngineState(ours), StdEngineState(ref)) << "seed " << seed;
  }
}

TEST(MersenneTwister64Test, StateMatchesStdEngineAndRoundTrips) {
  for (uint64_t seed : {uint64_t{0}, uint64_t{42}, ~uint64_t{0}}) {
    for (size_t draws : kStateDrawCounts) {
      MersenneTwister64 ours(seed);
      std::mt19937_64 ref(seed);
      for (size_t i = 0; i < draws; ++i) ASSERT_EQ(ours(), ref());
      const std::string state = EngineState(ours);
      ASSERT_EQ(state.size(), MersenneTwister64::kStateBytes);
      ASSERT_EQ(state, StdEngineState(ref)) << "seed " << seed << " after "
                                            << draws << " draws";
      std::string appended = "prefix";
      ours.AppendState(&appended);
      EXPECT_EQ(appended, "prefix" + state);

      MersenneTwister64 restored(~seed);
      ASSERT_TRUE(restored.ReadState(state.data()));
      EXPECT_EQ(EngineState(restored), state);
      MersenneTwister64 copy = ours;
      MersenneTwister64 assigned(1);
      assigned = ours;
      for (int i = 0; i < 700; ++i) {
        const uint64_t expected = ref();
        ASSERT_EQ(ours(), expected) << "draws " << draws << "+" << i;
        ASSERT_EQ(restored(), expected) << "draws " << draws << "+" << i;
        ASSERT_EQ(copy(), expected) << "draws " << draws << "+" << i;
        ASSERT_EQ(assigned(), expected) << "draws " << draws << "+" << i;
      }
    }
  }
}

TEST(MersenneTwister64Test, ReadStateRejectsPositionPastTheState) {
  std::mt19937_64 ref(3);
  std::string state = StdEngineState(ref);  // position 312
  MersenneTwister64 engine(5);
  const std::string before = EngineState(engine);
  for (uint32_t position : {313u, 1u << 16, ~0u}) {
    SetPosition(position, &state);
    EXPECT_FALSE(engine.ReadState(state.data())) << position;
    EXPECT_EQ(EngineState(engine), before) << position;
  }
  SetPosition(312, &state);
  ASSERT_TRUE(engine.ReadState(state.data()));
  for (int i = 0; i < 400; ++i) ASSERT_EQ(engine(), ref());
}

TEST(RngTest, SerializedStateMatchesStdReference) {
  for (uint64_t seed : {uint64_t{0}, uint64_t{17}, uint64_t{123456789}}) {
    for (size_t draws : kStateDrawCounts) {
      for (bool cached_normal : {false, true}) {
        Rng rng(seed);
        StdReference ref(seed);
        for (size_t i = 0; i < draws; ++i) {
          ASSERT_EQ(rng.Next64(), ref.engine());
        }
        if (cached_normal) {
          ASSERT_EQ(rng.Gaussian(), ref.Gaussian());
        }
        const std::string state = rng.SerializeState();
        ASSERT_EQ(state, ref.State()) << "seed " << seed << " after "
                                      << draws << " draws";

        Rng restored(seed + 1);
        ASSERT_TRUE(restored.DeserializeState(state).ok());
        EXPECT_EQ(restored.SerializeState(), state);
        Rng copy = rng;
        for (int i = 0; i < 400; ++i) {
          const double u = ref.Uniform();
          const double g = ref.Gaussian();
          ASSERT_EQ(rng.Uniform(), u);
          ASSERT_EQ(rng.Gaussian(), g);
          ASSERT_EQ(restored.Uniform(), u);
          ASSERT_EQ(restored.Gaussian(), g);
          ASSERT_EQ(copy.Uniform(), u);
          ASSERT_EQ(copy.Gaussian(), g);
        }
      }
    }
  }
}

TEST(RngTest, UniformIsBitEqualToStdUniformRealDistribution) {
  Rng rng(2026);
  StdReference ref(2026);
  int64_t mismatches = 0;
  for (int i = 0; i < 10'000'000; ++i) {
    if (std::bit_cast<uint64_t>(rng.Uniform()) !=
        std::bit_cast<uint64_t>(ref.Uniform())) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(RngTest, UniformIntMatchesStdDistributionOverVaryingRanges) {
  // Range widths of every bit length, so both the rejection and the
  // full-range paths of std::uniform_int_distribution are exercised.
  Rng rng(99);
  StdReference ref(99);
  std::mt19937_64 ranges(99);
  int64_t mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const int64_t lo = static_cast<int64_t>(ranges() % (uint64_t{1} << 41)) -
                       (int64_t{1} << 40);
    // hi = lo + min(width, INT64_MAX - lo), in unsigned arithmetic.
    const uint64_t room =
        static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) -
        static_cast<uint64_t>(lo);
    const uint64_t width = ranges() >> (ranges() % 64);
    const int64_t hi =
        static_cast<int64_t>(static_cast<uint64_t>(lo) + std::min(width, room));
    if (rng.UniformInt(lo, hi) != ref.UniformInt(lo, hi)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
}

// An engine that returns one fixed output, to pin the conversion on edges.
struct FixedEngine {
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return value; }
  result_type value;
};

TEST(RngTest, UnitFromBitsPinsEdgeOutputs) {
  constexpr double kBelowOne = 0x1.fffffffffffffp-1;
  constexpr uint64_t kMax = ~uint64_t{0};
  const struct {
    uint64_t bits;
    double expected;
  } cases[] = {
      {0, 0.0},
      {1, 0x1p-64},
      {uint64_t{1} << 53, 0x1p-11},
      {kMax - 1024, kBelowOne},  // 2^64 - 1025 rounds down: no clamp needed
      {kMax - 1023, kBelowOne},  // 2^64 - 1024 ties to even, up to 1: clamped
      {kMax, kBelowOne},         // rounds to 1: clamped
  };
  for (const auto& c : cases) {
    EXPECT_EQ(UnitFromBits(c.bits), c.expected) << c.bits;
    FixedEngine engine{c.bits};
    EXPECT_EQ(UnitFromBits(c.bits),
              std::uniform_real_distribution<double>(0.0, 1.0)(engine))
        << c.bits;
  }
  // The last two take the clamp; 2^64 - 1025 reaches the same value without.
  EXPECT_EQ(static_cast<double>(kMax - 1024) * 0x1p-64, kBelowOne);
  EXPECT_EQ(static_cast<double>(kMax - 1023) * 0x1p-64, 1.0);
  EXPECT_EQ(static_cast<double>(kMax) * 0x1p-64, 1.0);
}

TEST(RngTest, DrawsMatchStdReference) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMaxInt = std::numeric_limits<int64_t>::max();
  const std::pair<int64_t, int64_t> ranges[] = {
      {0, 0},       {0, 1},          {-2, 3},   {0, 6},
      {5, 1000},    {0, 255},        {1, 312},  {-(1LL << 40), 1LL << 40},
      {0, kMaxInt}, {kMin, kMaxInt}, {kMin, 0},
  };
  for (uint64_t seed : {uint64_t{11}, uint64_t{808}, uint64_t{6161}}) {
    Rng rng(seed);
    StdReference ref(seed);
    std::mt19937_64 ops(seed);
    for (int step = 0; step < 20000; ++step) {
      switch (ops() % 8) {
        case 0:
          for (const auto& [lo, hi] : ranges) {
            ASSERT_EQ(rng.UniformInt(lo, hi), ref.UniformInt(lo, hi))
                << lo << ".." << hi << " step " << step;
          }
          break;
        case 1:
          ASSERT_EQ(rng.Gaussian(), ref.Gaussian()) << step;
          ASSERT_EQ(rng.Gaussian(1.5, 0.25), 1.5 + 0.25 * ref.Gaussian());
          ASSERT_EQ(rng.LogNormal(0.0, 1.0), std::exp(ref.Gaussian()));
          break;
        case 2:
          ASSERT_EQ(rng.Bernoulli(0.3), ref.Uniform() < 0.3) << step;
          ASSERT_EQ(rng.Uniform(-2.0, 5.0), -2.0 + 7.0 * ref.Uniform());
          break;
        case 3: {
          std::vector<int> ours(1 + ops() % 40);
          for (size_t i = 0; i < ours.size(); ++i) {
            ours[i] = static_cast<int>(i);
          }
          std::vector<int> theirs = ours;
          rng.Shuffle(&ours);
          ref.Shuffle(&theirs);
          ASSERT_EQ(ours, theirs) << step;
          break;
        }
        case 4: {
          std::vector<double> weights(1 + ops() % 10);
          for (double& w : weights) w = static_cast<double>(ops() % 5) - 1.0;
          ASSERT_EQ(rng.Categorical(weights), ref.Categorical(weights))
              << step;
          break;
        }
        case 5: {
          const size_t n = ops() % 50;
          const size_t k = n == 0 ? 0 : ops() % (n + 1);
          ASSERT_EQ(rng.SampleWithoutReplacement(n, k),
                    ref.SampleWithoutReplacement(n, k))
              << step;
          break;
        }
        case 6:
          ASSERT_EQ(rng.Next64(), ref.engine()) << step;
          break;
        default:
          ASSERT_EQ(rng.Uniform(), ref.Uniform()) << step;
          break;
      }
    }
    EXPECT_EQ(rng.SerializeState(), ref.State());
  }
}

TEST(RngTest, DeserializeRejectsMalformedState) {
  // Short, long and past-the-end states are rejected, and the generator is
  // left as it was. Only the exact bytes SerializeState writes restore, so
  // the text format's unit range (`0 1` before the normal distribution) is
  // rejected too.
  Rng rng(21);
  rng.Uniform();
  const std::string before = rng.SerializeState();
  auto expect_rejected = [&](const std::string& state,
                             const std::string& what) {
    EXPECT_EQ(rng.DeserializeState(state).code(),
              StatusCode::kInvalidArgument)
        << what;
    EXPECT_EQ(rng.SerializeState(), before) << what;
  };
  // No Gaussian is cached, so every proper prefix loses at least the
  // normal distribution's last token.
  for (size_t size = 0; size < before.size(); ++size) {
    expect_rejected(before.substr(0, size), "prefix " + std::to_string(size));
  }
  for (const char* tail : {" ", "\n", "0", " 0", "x"}) {
    expect_rejected(before + tail, std::string("tail '") + tail + "'");
  }
  const std::string engine = before.substr(0, MersenneTwister64::kStateBytes);
  const std::string normal = before.substr(engine.size());
  expect_rejected(engine + "0 1 " + normal, "text unit range");
  expect_rejected(engine + " " + normal, "leading space");
  for (uint32_t position : {313u, ~0u}) {
    std::string past = before;
    SetPosition(position, &past);
    expect_rejected(past, "position " + std::to_string(position));
  }

  // A cached Gaussian's text cannot grow digits either.
  Rng cached(22);
  cached.Gaussian();
  const std::string cached_state = cached.SerializeState();
  EXPECT_EQ(cached.DeserializeState(cached_state + "1").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cached.SerializeState(), cached_state);
}

TEST(RngTest, DeserializeRejectsNormalOtherThanZeroOne) {
  // Rng only ever holds N(0, 1), so any other normal distribution in a
  // snapshot would change Gaussian() silently. A non-positive deviation is
  // rejected before std's reader, which asserts on it in debug builds.
  StdReference ref(22);
  ref.Gaussian();
  const std::string engine = StdEngineState(ref.engine);
  Rng rng(22);
  rng.Gaussian();
  const std::string before = rng.SerializeState();
  ASSERT_EQ(before, ref.State());
  for (const char* normal :
       {"0 0 0", "0 -1 0", "1 1 0", "0 2 0", "0 1e-300 0"}) {
    EXPECT_EQ(rng.DeserializeState(engine + normal).code(),
              StatusCode::kInvalidArgument)
        << normal;
    EXPECT_EQ(rng.SerializeState(), before) << normal;
  }
  Rng plain(5);
  ASSERT_TRUE(
      plain.DeserializeState(engine + NormalText(std::normal_distribution<>()))
          .ok());
}

TEST(RngDeathTest, UniformIntRejectsAnEmptyRange) {
  Rng rng(1);
  EXPECT_DEATH(rng.UniformInt(3, 2), "UniformInt\\(lo=3, hi=2\\)");
  EXPECT_DEATH(rng.Categorical({}), "UniformInt\\(lo=0, hi=-1\\)");
}

TEST(RngDeathTest, SampleWithoutReplacementRejectsKAboveN) {
  Rng rng(1);
  EXPECT_DEATH(rng.SampleWithoutReplacement(3, 4),
               "SampleWithoutReplacement\\(n=3, k=4\\)");
}

}  // namespace
}  // namespace hypertune
