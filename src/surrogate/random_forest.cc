#include "src/surrogate/random_forest.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"

namespace hypertune {

/// Column-major copy of the (capped) training set, read by every tree.
struct RandomForest::FitData {
  size_t rows = 0;
  size_t dim = 0;
  /// Feature f of training row i at columns[f * rows + i].
  std::vector<double> columns;
  std::vector<double> y;
  /// y[i] * y[i], the split score's second moments.
  std::vector<double> y_squared;
};

/// One pool slot's buffers, sized on the slot's first tree, so growing a
/// tree allocates nothing but its nodes. Aligned to a cache line so slots
/// growing trees side by side never write to one line.
struct alignas(64) RandomForest::FitScratch {
  /// The current tree's sample (row ids, with repeats under bootstrap),
  /// partitioned in place node by node.
  std::vector<size_t> indices;
  /// The current node's targets, squared targets and candidate-feature
  /// values, gathered contiguously in sample order.
  std::vector<double> node_y;
  std::vector<double> node_y_squared;
  std::vector<double> node_values;
  /// Partial Fisher-Yates permutation of the feature ids.
  std::vector<size_t> features;
  /// The tree under construction; copied out at its exact size.
  std::vector<Node> nodes;
};

namespace {

/// Thresholds scored together in one pass over a node's samples, as
/// kHalves native two-double vectors.
constexpr int kLanes = 4;
constexpr int kHalves = kLanes / 2;

/// Lane-wise vectors: element c of every operation below is the scalar
/// operation on element c, so each lane computes exactly what a scan of its
/// threshold alone computes. Two doubles is the baseline ISA's register
/// width; wider generic vectors are lowered to scalar code there.
typedef double V2 __attribute__((vector_size(16)));
typedef int64_t M2 __attribute__((vector_size(16)));

/// Marks an equality split in Node::feature.
constexpr uint32_t kEqualitySplit = 1u << 31;

/// Rows PredictBatch walks through one tree in lockstep: their node loads
/// are independent, so a block keeps several in flight.
constexpr size_t kBlock = 8;

/// Left- and right-side sums of kLanes candidate splits.
struct SplitSums {
  V2 sum_left[kHalves] = {};
  V2 sq_left[kHalves] = {};
  V2 sum_right[kHalves] = {};
  V2 sq_right[kHalves] = {};
  M2 count_left[kHalves] = {};
};

/// Scores kLanes thresholds in one branchless pass. Each side's sums take
/// every sample in order, masked to +0.0 when it goes to the other side; a
/// sum that starts at +0.0 never becomes -0.0, so adding +0.0 leaves it
/// unchanged and every lane is bit-identical to a one-threshold scan that
/// adds only its own side's samples.
template <bool kEquality>
void ScanSplits(const double* values, const double* y, const double* y_squared,
                size_t n, const double* thresholds, SplitSums* sums) {
  V2 thr[kHalves];
  for (int h = 0; h < kHalves; ++h) {
    thr[h] = V2{thresholds[2 * h], thresholds[2 * h + 1]};
  }
  SplitSums s;
  for (size_t i = 0; i < n; ++i) {
    const V2 v = {values[i], values[i]};
    const M2 t = (M2)(V2{y[i], y[i]});
    const M2 t2 = (M2)(V2{y_squared[i], y_squared[i]});
    for (int h = 0; h < kHalves; ++h) {
      const M2 left = kEquality ? (v == thr[h]) : (v <= thr[h]);  // ~0 or 0
      s.sum_left[h] += (V2)(t & left);
      s.sq_left[h] += (V2)(t2 & left);
      s.sum_right[h] += (V2)(t & ~left);
      s.sq_right[h] += (V2)(t2 & ~left);
      s.count_left[h] -= left;
    }
  }
  *sums = s;
}

}  // namespace

RandomForest::RandomForest(RandomForestOptions options) : options_(options) {}

void RandomForest::SetCategoricalFeatures(std::vector<bool> categorical) {
  categorical_ = std::move(categorical);
}

Status RandomForest::Fit(const Matrix& x, const std::vector<double>& y) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("RF: |x| != |y|");
  }
  if (x.rows() == 0) {
    return Status::InvalidArgument("RF: empty training set");
  }
  const size_t dim = x.cols();
  if (!categorical_.empty() && categorical_.size() != dim) {
    return Status::InvalidArgument("RF: categorical flag size mismatch");
  }

  fitted_ = false;
  trees_.clear();
  num_observations_ = x.rows();
  dim_ = dim;
  trees_.resize(static_cast<size_t>(std::max(1, options_.num_trees)));

  // Transpose the kept rows once; row j of the data is x row keep[j].
  const std::vector<size_t> keep = KeepBestAndRecent(
      y, options_.max_points > 0 ? options_.max_points : y.size());
  FitData data;
  const size_t rows = keep.size();
  data.rows = rows;
  data.dim = dim;
  data.columns.resize(dim * rows);
  data.y.resize(rows);
  data.y_squared.resize(rows);
  for (size_t j = 0; j < rows; ++j) {
    const double* row = x.row(keep[j]);
    for (size_t f = 0; f < dim; ++f) data.columns[f * rows + j] = row[f];
    data.y[j] = y[keep[j]];
    data.y_squared[j] = data.y[j] * data.y[j];
  }

  // Each tree draws from its own seed and writes only trees_[t], so the
  // forest is the same however the pool spreads the trees.
  ThreadPool& pool = ThreadPool::Shared();
  std::vector<FitScratch> scratch(pool.num_slots());
  pool.ParallelFor(trees_.size(), [&](size_t slot, size_t t) {
    GrowTree(data, t, &scratch[slot]);
  });
  fitted_ = true;
  return Status::Ok();
}

void RandomForest::GrowTree(const FitData& data, size_t t,
                            FitScratch* scratch) {
  const size_t rows = data.rows;
  if (scratch->node_y.empty()) {
    scratch->indices.reserve(rows);
    scratch->node_y.resize(rows);
    scratch->node_y_squared.resize(rows);
    scratch->node_values.resize(rows);
    scratch->features.resize(data.dim);
  }
  Rng rng(CombineSeeds(options_.seed, CombineSeeds(t, rows)));
  scratch->indices.clear();
  if (options_.bootstrap && rows > 1) {
    for (size_t i = 0; i < rows; ++i) {
      scratch->indices.push_back(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(rows) - 1)));
    }
  } else {
    scratch->indices.resize(rows);
    std::iota(scratch->indices.begin(), scratch->indices.end(), size_t{0});
  }
  scratch->nodes.clear();
  BuildNode(data, scratch, 0, rows, 0, &rng);
  trees_[t].nodes.assign(scratch->nodes.begin(), scratch->nodes.end());
}

int RandomForest::BuildNode(const FitData& data, FitScratch* scratch,
                            size_t begin, size_t end, int depth,
                            Rng* rng) const {
  const size_t n = end - begin;
  const size_t dim = data.dim;
  const size_t* sample = scratch->indices.data() + begin;
  double* node_y = scratch->node_y.data();
  for (size_t i = 0; i < n; ++i) node_y[i] = data.y[sample[i]];

  // Mean and (population) variance of the node's targets.
  double node_mean = 0.0;
  for (size_t i = 0; i < n; ++i) node_mean += node_y[i];
  node_mean /= static_cast<double>(n);
  double node_var = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = node_y[i] - node_mean;
    node_var += d * d;
  }
  node_var /= static_cast<double>(n);

  auto make_leaf = [&]() {
    Node leaf;
    leaf.threshold = std::numeric_limits<double>::quiet_NaN();
    leaf.right = static_cast<uint32_t>(scratch->nodes.size());
    leaf.mean = node_mean;
    leaf.second = node_var + node_mean * node_mean;
    scratch->nodes.push_back(leaf);
    return static_cast<int>(leaf.right);
  };

  if (n < 2 * options_.min_samples_leaf || depth >= options_.max_depth ||
      node_var <= 1e-14) {
    return make_leaf();
  }

  double* node_y_squared = scratch->node_y_squared.data();
  for (size_t i = 0; i < n; ++i) {
    node_y_squared[i] = data.y_squared[sample[i]];
  }

  // Candidate features without replacement: a partial Fisher-Yates shuffle
  // making the same draws as Rng::SampleWithoutReplacement.
  const size_t num_features = std::min(
      dim, std::max<size_t>(
               1, static_cast<size_t>(std::ceil(options_.feature_fraction *
                                                static_cast<double>(dim)))));
  size_t* features = scratch->features.data();
  std::iota(features, features + dim, size_t{0});
  for (size_t i = 0; i < num_features; ++i) {
    const size_t j = static_cast<size_t>(rng->UniformInt(
        static_cast<int64_t>(i), static_cast<int64_t>(dim) - 1));
    std::swap(features[i], features[j]);
  }

  double best_score = std::numeric_limits<double>::infinity();
  int best_feature = -1;
  double best_threshold = 0.0;
  bool best_equality = false;

  double* values = scratch->node_values.data();
  for (size_t k = 0; k < num_features; ++k) {
    const size_t f = features[k];
    const bool is_cat = !categorical_.empty() && categorical_[f];
    // Gather the feature and its range over this node's samples, in two
    // independent min/max chains to halve their latency. A set's extremes
    // do not depend on the order they are taken in; only a tie between
    // -0.0 and +0.0 could pick the other sign, and both give the same
    // thresholds and the same constant-feature test.
    const double* column = data.columns.data() + f * data.rows;
    double lo_even = std::numeric_limits<double>::infinity();
    double hi_even = -std::numeric_limits<double>::infinity();
    double lo_odd = lo_even, hi_odd = hi_even;
    size_t i = 0;
    for (; i + 1 < n; i += 2) {
      const double even = column[sample[i]];
      const double odd = column[sample[i + 1]];
      values[i] = even;
      values[i + 1] = odd;
      lo_even = std::min(lo_even, even);
      hi_even = std::max(hi_even, even);
      lo_odd = std::min(lo_odd, odd);
      hi_odd = std::max(hi_odd, odd);
    }
    if (i < n) {
      values[i] = column[sample[i]];
      lo_even = std::min(lo_even, values[i]);
      hi_even = std::max(hi_even, values[i]);
    }
    const double node_lo = std::min(lo_even, lo_odd);
    const double node_hi = std::max(hi_even, hi_odd);
    if (node_lo >= node_hi) continue;  // constant feature in this node

    for (int c0 = 0; c0 < options_.thresholds_per_feature; c0 += kLanes) {
      const int lanes = std::min(kLanes, options_.thresholds_per_feature - c0);
      // Thresholds are drawn in the order a one-at-a-time scan draws them;
      // scoring consumes no randomness, so the streams match.
      double thresholds[kLanes];
      for (int c = 0; c < lanes; ++c) {
        if (is_cat) {
          // The value of a random sample in the node: guarantees a
          // non-empty "equal" side.
          thresholds[c] = values[static_cast<size_t>(
              rng->UniformInt(0, static_cast<int64_t>(n) - 1))];
        } else {
          thresholds[c] = rng->Uniform(node_lo, node_hi);
        }
      }
      for (int c = lanes; c < kLanes; ++c) thresholds[c] = thresholds[0];

      SplitSums sums;
      if (is_cat) {
        ScanSplits<true>(values, node_y, node_y_squared, n, thresholds, &sums);
      } else {
        ScanSplits<false>(values, node_y, node_y_squared, n, thresholds,
                          &sums);
      }
      for (int c = 0; c < lanes; ++c) {
        // Weighted variance after the split.
        const int h = c / 2, e = c % 2;
        const size_t n_l = static_cast<size_t>(sums.count_left[h][e]);
        const size_t n_r = n - n_l;
        if (n_l < options_.min_samples_leaf ||
            n_r < options_.min_samples_leaf) {
          continue;
        }
        const double sum_l = sums.sum_left[h][e], sq_l = sums.sq_left[h][e];
        const double sum_r = sums.sum_right[h][e];
        const double sq_r = sums.sq_right[h][e];
        double var_l = sq_l / n_l - (sum_l / n_l) * (sum_l / n_l);
        double var_r = sq_r / n_r - (sum_r / n_r) * (sum_r / n_r);
        double score = (var_l * n_l + var_r * n_r) / static_cast<double>(n);
        if (score < best_score) {
          best_score = score;
          best_feature = static_cast<int>(f);
          best_threshold = thresholds[c];
          best_equality = is_cat;
        }
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  // Partition the sample in place.
  const double* column =
      data.columns.data() + static_cast<size_t>(best_feature) * data.rows;
  auto go_left = [&](size_t row) {
    const double v = column[row];
    return best_equality ? (v == best_threshold) : (v <= best_threshold);
  };
  const auto first = scratch->indices.begin();
  const size_t mid = static_cast<size_t>(
      std::partition(first + static_cast<std::ptrdiff_t>(begin),
                     first + static_cast<std::ptrdiff_t>(end), go_left) -
      first);
  if (mid == begin || mid == end) return make_leaf();  // defensive

  // Reserve this node's slot, then grow its left subtree right after it,
  // where the walk looks for a left child.
  scratch->nodes.emplace_back();
  const size_t self = scratch->nodes.size() - 1;
  BuildNode(data, scratch, begin, mid, depth + 1, rng);
  const int right = BuildNode(data, scratch, mid, end, depth + 1, rng);
  Node& node = scratch->nodes[self];
  node.threshold = best_threshold;
  node.feature = static_cast<uint32_t>(best_feature) |
                 (best_equality ? kEqualitySplit : 0u);
  node.right = static_cast<uint32_t>(right);
  return static_cast<int>(self);
}

Prediction RandomForest::Predict(const std::vector<double>& x) const {
  Matrix row(1, x.size());
  std::copy(x.begin(), x.end(), row.row(0));
  return PredictBatch(row)[0];
}

std::vector<Prediction> RandomForest::PredictBatch(const Matrix& x) const {
  HT_CHECK(fitted_) << "RF::PredictBatch before Fit";
  HT_CHECK(x.cols() == dim_) << "RF::PredictBatch: query has " << x.cols()
                             << " columns, fitted on " << dim_;
  const size_t m = x.rows();
  std::vector<Prediction> out(m);
  const double inv = 1.0 / static_cast<double>(trees_.size());
  for (size_t begin = 0; begin < m; begin += kBlock) {
    // A short last block walks copies of its last row and drops their sums.
    const double* row[kBlock];
    for (size_t r = 0; r < kBlock; ++r) {
      row[r] = x.row(std::min(begin + r, m - 1));
    }
    double sum_mean[kBlock] = {};
    double sum_second[kBlock] = {};
    for (const Tree& tree : trees_) {
      const Node* nodes = tree.nodes.data();
      uint32_t at[kBlock] = {};
      // A one-leaf tree has no split to take; it is every tree of a forest
      // fitted on no columns, whose rows have no element to read.
      bool moved = tree.nodes.size() > 1;
      while (moved) {
        moved = false;
        for (size_t r = 0; r < kBlock; ++r) {
          const Node& node = nodes[at[r]];
          const double v = row[r][node.feature & ~kEqualitySplit];
          // x == t is x <= t and x >= t, for NaN and signed zeros too.
          const uint32_t left = (v <= node.threshold) &
                                (!(node.feature & kEqualitySplit) |
                                 (v >= node.threshold));
          // A mask select: a branch here mispredicts on half the steps.
          const uint32_t next =
              node.right ^ ((node.right ^ (at[r] + 1)) & (0u - left));
          moved |= next != at[r];
          at[r] = next;
        }
      }
      for (size_t r = 0; r < kBlock; ++r) {
        sum_mean[r] += nodes[at[r]].mean;
        sum_second[r] += nodes[at[r]].second;
      }
    }
    for (size_t r = 0; r < kBlock && begin + r < m; ++r) {
      Prediction& p = out[begin + r];
      p.mean = sum_mean[r] * inv;
      p.variance = std::max(sum_second[r] * inv - p.mean * p.mean, 1e-12);
    }
  }
  return out;
}

}  // namespace hypertune
