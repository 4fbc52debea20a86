#ifndef HYPERTUNE_COMMON_RNG_H_
#define HYPERTUNE_COMMON_RNG_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace hypertune {

/// Mixes a 64-bit value through the SplitMix64 finalizer. Used to derive
/// statistically independent seeds from structured inputs (run seed, config
/// hash, fidelity level) so that re-evaluating the same configuration under
/// the same run seed is deterministic.
uint64_t MixSeed(uint64_t x);

/// Combines two seed components into one (order-sensitive).
uint64_t CombineSeeds(uint64_t a, uint64_t b);

/// MT19937-64 with the seeding, recurrence, tempering and state of
/// std::mt19937_64: equal seeds give equal outputs, and AppendState writes
/// the state words and position the standard engine would hold. It differs
/// only in cost:
///
///  - the twist is branch-free: `(0 - (y & 1)) & a` replaces `y & 1 ? a : 0`;
///  - seeding is lazy. A fresh engine holds only its seed. Draw k of the
///    first generation computes the seed words up to min(k + 156, 311) and
///    twists word k alone; later generations twist all 312 words at once.
///
/// See DESIGN.md "Random streams" for the bit-identity argument.
class MersenneTwister64 {
 public:
  using result_type = uint64_t;

  /// Size of AppendState's output: 312 words, then the position.
  static constexpr size_t kStateBytes = 8 * 312 + 4;

  explicit MersenneTwister64(uint64_t seed) { x_[0] = seed; }

  /// Copies only the words that are set, so copying a lazily seeded engine
  /// never reads an indeterminate word.
  MersenneTwister64(const MersenneTwister64& other) { CopyFrom(other); }
  MersenneTwister64& operator=(const MersenneTwister64& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ >= ready_) [[unlikely]] Refill();
    return Temper(x_[pos_++]);
  }

  /// Appends what std::mt19937_64 would hold as kStateBytes little-endian
  /// bytes: its 312 state words, then its position as a u32. That is the
  /// seed words and position 312 before the first draw, the whole twisted
  /// generation after it.
  void AppendState(std::string* out) const;
  /// Reads kStateBytes bytes in AppendState's layout. A position above 312
  /// returns false and leaves the engine unchanged.
  [[nodiscard]] bool ReadState(const char* bytes);

 private:
  static constexpr uint32_t kN = 312;
  static constexpr uint32_t kM = 156;

  static result_type Temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  void CopyFrom(const MersenneTwister64& other);
  /// Starts the next generation, or twists the next word of a lazy first one.
  void Refill();
  /// Computes the seed words [seeded_, count).
  void Seed(uint32_t count);
  /// Twists word k of the lazy first generation.
  void TwistWord(uint32_t k);
  /// Twists the whole next generation (every word is set).
  void TwistAll();
  /// Completes a lazy first generation, leaving the state the standard
  /// engine would hold.
  void Materialize();

  uint64_t x_[kN];
  uint32_t pos_ = 0;     // next word to output
  uint32_t ready_ = 0;   // words [0, ready_) hold the current generation
  uint32_t seeded_ = 1;  // words [0, seeded_) are set; kN once seeding is done
};

/// Maps a 64-bit engine output to [0, 1) exactly as
/// std::generate_canonical<double, 53> does for a 64-bit engine: round to the
/// nearest double, scale by 2^-64, and clamp 1 to the largest double below 1.
/// Both 32-bit halves convert exactly and their sum rounds once, like the
/// direct unsigned conversion, but without its sign branch.
inline double UnitFromBits(uint64_t x) {
  const double hi = static_cast<double>(static_cast<uint32_t>(x >> 32));
  const double lo = static_cast<double>(static_cast<uint32_t>(x));
  return std::min((hi * 0x1p32 + lo) * 0x1p-64, 0x1.fffffffffffffp-1);
}

/// A seeded pseudo-random number generator over MersenneTwister64, a
/// bit-identical twin of std::mt19937_64, with the convenience draws used
/// throughout the library.
///
/// Rng is cheap to construct: seeding is lazy, so an Rng that makes a few
/// draws costs a fraction of a full engine seeding. Components that need
/// reproducible independent streams construct their own Rng from mixed seeds
/// rather than sharing one.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(MixSeed(seed)) {}

  /// Uniform double in [0, 1); bit-identical to
  /// std::uniform_real_distribution<double>(0, 1) on the same engine.
  double Uniform() { return UnitFromBits(engine_()); }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal draw.
  double Gaussian() { return normal_(engine_); }

  /// Normal draw with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    return mean + stddev * Gaussian();
  }

  /// Log-normal draw: exp(N(mu, sigma^2)).
  double LogNormal(double mu, double sigma) {
    return std::exp(Gaussian(mu, sigma));
  }

  /// Bernoulli draw with probability `p` of true.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Samples an index in [0, weights.size()) proportionally to `weights`.
  /// Non-positive weights are treated as zero; if all weights are zero the
  /// draw is uniform. Requires a non-empty `weights`.
  size_t Categorical(const std::vector<double>& weights);

  /// Returns `k` distinct indices sampled uniformly from [0, n).
  /// Requires k <= n.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Fisher-Yates shuffles `values` in place.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*values)[i - 1], (*values)[j]);
    }
  }

  /// One raw 64-bit engine output, e.g. to seed a derived stream.
  uint64_t Next64() { return engine_(); }

  /// Serializes the complete generator state: the engine's
  /// (MersenneTwister64::AppendState, little-endian on any host), then the
  /// text std::normal_distribution writes, which carries its cached second
  /// draw. A restored Rng continues the exact draw sequence — the contract
  /// scheduler snapshots rely on.
  std::string SerializeState() const;

  /// Restores state produced by SerializeState(). Rejects malformed input
  /// (short, with trailing bytes, an engine position above 312, or a normal
  /// distribution other than N(0, 1)) with InvalidArgument and leaves the
  /// generator unchanged on failure.
  [[nodiscard]] Status DeserializeState(const std::string& state);

 private:
  MersenneTwister64 engine_;
  std::normal_distribution<double> normal_{0.0, 1.0};
};

}  // namespace hypertune

#endif  // HYPERTUNE_COMMON_RNG_H_
