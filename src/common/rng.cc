#include "src/common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <sstream>

#include "src/common/logging.h"

namespace hypertune {

namespace {

// std::mt19937_64's parameters (w = 64, n = 312, m = 156, r = 31).
constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;
constexpr uint64_t kInitMultiplier = 6364136223846793005ULL;

// One step of the recurrence on the joined word y, without the data-dependent
// branch of `y & 1 ? a : 0`.
inline uint64_t TwistBits(uint64_t upper, uint64_t lower) {
  const uint64_t y = (upper & kUpperMask) | (lower & kLowerMask);
  return (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

// Copies `count` words of `Word` to little-endian bytes and back: one
// memcpy on a little-endian host, a byte loop on any other.
template <typename Word>
void StoreLE(const Word* words, size_t count, char* out) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, words, sizeof(Word) * count);
  } else {
    for (size_t k = 0; k < count; ++k) {
      for (size_t i = 0; i < sizeof(Word); ++i) {
        *out++ = static_cast<char>(words[k] >> (8 * i));
      }
    }
  }
}

template <typename Word>
void LoadLE(const char* in, size_t count, Word* words) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(words, in, sizeof(Word) * count);
  } else {
    for (size_t k = 0; k < count; ++k) {
      Word word = 0;
      for (size_t i = 0; i < sizeof(Word); ++i) {
        word |= static_cast<Word>(static_cast<uint8_t>(*in++)) << (8 * i);
      }
      words[k] = word;
    }
  }
}

// std's text for a normal distribution. The standard guarantees that
// operator<</>> round-trip a distribution exactly, its cached second draw
// included. Formatting takes microseconds, and most streams never draw a
// Gaussian, so a fresh distribution's text is formatted once.
std::string NormalText(const std::normal_distribution<double>& normal) {
  auto format = [](const std::normal_distribution<double>& n) {
    std::ostringstream out;
    out << n;
    return out.str();
  };
  static const std::string fresh = format(std::normal_distribution<double>());
  return normal == std::normal_distribution<double>() ? fresh : format(normal);
}

}  // namespace

uint64_t MixSeed(uint64_t x) {
  // SplitMix64 finalizer (Steele, Lea, Flood 2014).
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t CombineSeeds(uint64_t a, uint64_t b) {
  return MixSeed(a ^ (MixSeed(b) + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2)));
}

void MersenneTwister64::CopyFrom(const MersenneTwister64& other) {
  std::copy_n(other.x_, other.seeded_, x_);
  pos_ = other.pos_;
  ready_ = other.ready_;
  seeded_ = other.seeded_;
}

void MersenneTwister64::Seed(uint32_t count) {
  // The previous word stays in a register: reloading it from the array
  // would add a store-to-load forward to the recurrence's critical path.
  uint64_t word = x_[seeded_ - 1];
  for (; seeded_ < count; ++seeded_) {
    word = kInitMultiplier * (word ^ (word >> 62)) + seeded_;
    x_[seeded_] = word;
  }
}

void MersenneTwister64::TwistWord(uint32_t k) {
  // Word k reads seed words k, k + 1 and k + 156 when k < 156; later words
  // read k + 1 and words the first half already twisted. Word 311 reads the
  // twisted word 0, as the standard engine's last step does.
  Seed(std::min(k + kM + 1, kN));
  x_[k] = x_[(k + kM) % kN] ^ TwistBits(x_[k], x_[(k + 1) % kN]);
}

void MersenneTwister64::TwistAll() {
  uint32_t k = 0;
  for (; k < kN - kM; ++k) x_[k] = x_[k + kM] ^ TwistBits(x_[k], x_[k + 1]);
  for (; k < kN - 1; ++k) {
    x_[k] = x_[k + kM - kN] ^ TwistBits(x_[k], x_[k + 1]);
  }
  x_[kN - 1] = x_[kM - 1] ^ TwistBits(x_[kN - 1], x_[0]);
}

void MersenneTwister64::Refill() {
  if (pos_ < kN) {
    // Lazy first generation: twist just the word this draw returns.
    TwistWord(pos_);
    ready_ = pos_ + 1;
    return;
  }
  TwistAll();
  pos_ = 0;
}

void MersenneTwister64::Materialize() {
  if (ready_ == kN) return;
  if (ready_ == 0) {
    // No draw yet: the standard engine holds the seed words, due to twist.
    Seed(kN);
    pos_ = ready_ = kN;
    return;
  }
  for (uint32_t k = ready_; k < kN; ++k) TwistWord(k);
  ready_ = kN;
}

void MersenneTwister64::AppendState(std::string* out) const {
  static_assert(kStateBytes == 8 * kN + 4);
  if (ready_ < kN) {
    MersenneTwister64 full = *this;
    full.Materialize();
    full.AppendState(out);
    return;
  }
  const size_t at = out->size();
  out->resize(at + kStateBytes);
  StoreLE(x_, kN, out->data() + at);
  StoreLE(&pos_, 1, out->data() + at + 8 * kN);
}

bool MersenneTwister64::ReadState(const char* bytes) {
  uint32_t pos = 0;
  LoadLE(bytes + 8 * kN, 1, &pos);
  if (pos > kN) return false;
  LoadLE(bytes, kN, x_);
  pos_ = pos;
  ready_ = seeded_ = kN;
  return true;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  HT_CHECK(lo <= hi) << "Rng::UniformInt(lo=" << lo << ", hi=" << hi
                     << "): empty range";
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

size_t Rng::Categorical(const std::vector<double>& weights) {
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

std::string Rng::SerializeState() const {
  std::string state;
  engine_.AppendState(&state);
  state += NormalText(normal_);
  return state;
}

Status Rng::DeserializeState(const std::string& state) {
  constexpr size_t kEngineBytes = MersenneTwister64::kStateBytes;
  if (state.size() < kEngineBytes) {
    return Status::InvalidArgument("rng: serialized state is too short");
  }
  MersenneTwister64 engine(0);
  if (!engine.ReadState(state.data())) {
    return Status::InvalidArgument("rng: engine position above 312");
  }
  // The normal distribution's text starts with its mean and deviation.
  // Only N(0, 1) is ever written (Gaussian(mean, stddev) scales the
  // standard draw), and std's reader asserts a positive deviation before
  // anything could reject it, so check both first.
  const std::string text = state.substr(kEngineBytes);
  std::istringstream in(text);
  double mean = 0.0;
  double stddev = 0.0;
  in >> mean >> stddev;
  if (in && (mean != 0.0 || stddev != 1.0)) {
    return Status::InvalidArgument("rng: normal distribution is not 0 1");
  }
  in.seekg(0);
  std::normal_distribution<double> normal;
  in >> normal;
  // Only the exact text SerializeState writes restores: trailing bytes, or
  // a padded or shortened number, must not restore silently.
  if (!in || NormalText(normal) != text) {
    return Status::InvalidArgument("rng: malformed serialized state");
  }
  engine_ = engine;
  normal_ = normal;
  return Status::Ok();
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  HT_CHECK(k <= n) << "Rng::SampleWithoutReplacement(n=" << n << ", k=" << k
                   << "): k exceeds n";
  // Partial Fisher-Yates over an index vector; O(n) space, O(k) swaps.
  std::vector<size_t> indices(n);
  for (size_t i = 0; i < n; ++i) indices[i] = i;
  std::vector<size_t> out;
  out.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    size_t j = static_cast<size_t>(
        UniformInt(static_cast<int64_t>(i), static_cast<int64_t>(n) - 1));
    std::swap(indices[i], indices[j]);
    out.push_back(indices[i]);
  }
  return out;
}

}  // namespace hypertune
