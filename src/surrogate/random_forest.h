#ifndef HYPERTUNE_SURROGATE_RANDOM_FOREST_H_
#define HYPERTUNE_SURROGATE_RANDOM_FOREST_H_

#include <cstdint>
#include <vector>

#include "src/surrogate/surrogate.h"

namespace hypertune {

/// Options for the probabilistic random-forest surrogate.
struct RandomForestOptions {
  int num_trees = 10;
  int max_depth = 24;
  size_t min_samples_leaf = 3;
  /// Fraction of features considered at each split.
  double feature_fraction = 0.8;
  /// Random candidate thresholds drawn per considered feature
  /// (extremely-randomized-trees style splitting).
  int thresholds_per_feature = 4;
  /// Train each tree on a bootstrap resample of the data.
  bool bootstrap = true;
  /// Training sets beyond this cap are subsampled (KeepBestAndRecent) to
  /// bound fitting cost; 0 keeps every row.
  size_t max_points = 800;
  uint64_t seed = 0;
};

/// SMAC-style probabilistic regression forest.
///
/// The default surrogate for mixed continuous/categorical hyper-parameter
/// spaces (as in BOHB/MFES-HB implementations): robust to non-smooth
/// response surfaces, cheap to refit, and naturally handles categorical
/// dimensions via equality splits.
///
/// Predictive distribution at x uses the law of total variance over trees:
/// mean = avg_t m_t(x), var = avg_t (v_t(x) + m_t(x)^2) - mean^2, where
/// m_t/v_t are the mean/variance of the training targets in the leaf of
/// tree t containing x.
///
/// PredictBatch walks blocks of rows through one tree at a time in
/// lockstep, one branch-free compare-and-select step per row and level,
/// and each row adds its trees' leaves in ascending tree order; Predict is
/// a one-row PredictBatch. Both abort on a query whose width differs from
/// the fitted design matrix's.
class RandomForest : public Surrogate {
 public:
  explicit RandomForest(RandomForestOptions options = {});

  /// Marks features as categorical (equality splits instead of threshold
  /// splits). Must be called before Fit; sizes must then match the data.
  void SetCategoricalFeatures(std::vector<bool> categorical);

  [[nodiscard]] Status Fit(const Matrix& x,
                           const std::vector<double>& y) override;
  Prediction Predict(const std::vector<double>& x) const override;
  std::vector<Prediction> PredictBatch(const Matrix& x) const override;
  bool fitted() const override { return fitted_; }
  size_t num_observations() const override { return num_observations_; }

  int num_trees() const { return static_cast<int>(trees_.size()); }

 private:
  /// One tree node in 32 bytes, stored in the order BuildNode creates
  /// them. A node's left child is the next node, because BuildNode grows
  /// the left subtree right after reserving the node, so only `right` is
  /// stored. A leaf has a NaN threshold, which fails every comparison, and
  /// `right` equal to its own index, so a walk that reaches it stays put.
  struct Node {
    double threshold = 0.0;  // numeric: x[f] <= t goes left;
                             // categorical: x[f] == t goes left
    uint32_t feature = 0;    // f; kEqualitySplit (the .cc file) marks
                             // a categorical split
    uint32_t right = 0;
    double mean = 0.0;    // leaf: mean of its training targets
    double second = 0.0;  // leaf: their variance + mean², the walk's sum
  };
  static_assert(sizeof(Node) == 32);

  struct Tree {
    std::vector<Node> nodes;
  };

  /// One Fit's training data in column-major order, shared read-only by
  /// every tree (defined in the .cc file).
  struct FitData;
  /// The buffers one tree's split scan reuses from node to node; one per
  /// pool slot (defined in the .cc file).
  struct FitScratch;

  /// Grows tree `t` of the forest on `data` into `trees_[t]`.
  void GrowTree(const FitData& data, size_t t, FitScratch* scratch);

  /// Recursively grows the tree in `scratch->nodes` over the sample
  /// positions [begin, end) of `scratch->indices`; returns the index of the
  /// created node.
  int BuildNode(const FitData& data, FitScratch* scratch, size_t begin,
                size_t end, int depth, class Rng* rng) const;

  RandomForestOptions options_;
  std::vector<bool> categorical_;
  std::vector<Tree> trees_;
  bool fitted_ = false;
  size_t num_observations_ = 0;
  /// Columns of the fitted design matrix; every query must have as many.
  size_t dim_ = 0;
};

}  // namespace hypertune

#endif  // HYPERTUNE_SURROGATE_RANDOM_FOREST_H_
