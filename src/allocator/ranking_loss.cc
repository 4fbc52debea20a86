#include "src/allocator/ranking_loss.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace hypertune {

int64_t CountMisrankedPairs(const std::vector<double>& predictions,
                            const std::vector<double>& truths) {
  HT_CHECK(predictions.size() == truths.size())
      << "ranking loss: size mismatch";
  int64_t loss = 0;
  size_t n = predictions.size();
  for (size_t j = 0; j < n; ++j) {
    for (size_t k = 0; k < n; ++k) {
      bool pred_less = predictions[j] < predictions[k];
      bool true_less = truths[j] < truths[k];
      if (pred_less != true_less) ++loss;
    }
  }
  return loss;
}

int64_t CountMisrankedPairsOnSubset(const std::vector<double>& predictions,
                                    const std::vector<double>& truths,
                                    const std::vector<size_t>& subset) {
  HT_CHECK(predictions.size() == truths.size())
      << "ranking loss: size mismatch";
  int64_t loss = 0;
  for (size_t j : subset) {
    for (size_t k : subset) {
      bool pred_less = predictions[j] < predictions[k];
      bool true_less = truths[j] < truths[k];
      if (pred_less != true_less) ++loss;
    }
  }
  return loss;
}

std::vector<uint8_t> MisrankedPairs(const std::vector<double>& predictions,
                                    const std::vector<double>& truths) {
  HT_CHECK(predictions.size() == truths.size())
      << "ranking loss: size mismatch";
  const size_t n = predictions.size();
  std::vector<uint8_t> misranked(n * n);
  for (size_t j = 0; j < n; ++j) {
    for (size_t k = 0; k < n; ++k) {
      bool pred_less = predictions[j] < predictions[k];
      bool true_less = truths[j] < truths[k];
      misranked[j * n + k] = pred_less != true_less ? 1 : 0;
    }
  }
  return misranked;
}

int64_t CountMisrankedPairsWithCounts(const std::vector<uint8_t>& misranked,
                                      const std::vector<int32_t>& counts) {
  const size_t n = counts.size();
  HT_CHECK(misranked.size() == n * n) << "ranking loss: size mismatch";
  int64_t loss = 0;
  for (size_t j = 0; j < n; ++j) {
    if (counts[j] == 0) continue;
    const uint8_t* row = misranked.data() + j * n;
    // At most the multiset's size, so 32 bits hold it.
    int32_t row_pairs = 0;
    for (size_t k = 0; k < n; ++k) row_pairs += counts[k] * row[k];
    loss += static_cast<int64_t>(counts[j]) * row_pairs;
  }
  return loss;
}

std::unique_ptr<Surrogate> FitSurrogate(const Matrix& x,
                                        const std::vector<double>& y,
                                        const std::vector<bool>& categorical,
                                        uint64_t seed) {
  if (x.rows() < 2) return nullptr;
  std::unique_ptr<Surrogate> model =
      MakeSurrogate(SurrogateKind::kRandomForest, categorical, seed);
  if (!model->Fit(x, y).ok()) return nullptr;
  return model;
}

std::vector<double> PredictMeans(const Surrogate& model, const Matrix& x) {
  std::vector<double> means;
  means.reserve(x.rows());
  for (const Prediction& p : model.PredictBatch(x)) means.push_back(p.mean);
  return means;
}

std::vector<double> CrossValidationPredictions(
    const Matrix& x, const std::vector<double>& y, int folds,
    const std::vector<bool>& categorical, uint64_t seed) {
  HT_CHECK(x.rows() == y.size()) << "cross-validation: |x| != |y|";
  size_t n = x.rows();
  if (folds < 2 || n < static_cast<size_t>(folds)) return {};

  // Shuffled fold assignment for an unbiased split.
  Rng rng(CombineSeeds(seed, n));
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(&order);

  std::vector<double> predictions(n, 0.0);
  for (int fold = 0; fold < folds; ++fold) {
    std::vector<size_t> train;
    std::vector<double> train_y;
    std::vector<size_t> held_out;
    for (size_t pos = 0; pos < n; ++pos) {
      size_t idx = order[pos];
      if (static_cast<int>(pos % static_cast<size_t>(folds)) == fold) {
        held_out.push_back(idx);
      } else {
        train.push_back(idx);
        train_y.push_back(y[idx]);
      }
    }
    std::unique_ptr<Surrogate> model =
        FitSurrogate(x.SelectRows(train), train_y, categorical, seed);
    if (model == nullptr) return {};
    const std::vector<double> means =
        PredictMeans(*model, x.SelectRows(held_out));
    for (size_t h = 0; h < held_out.size(); ++h) {
      predictions[held_out[h]] = means[h];
    }
  }
  return predictions;
}

}  // namespace hypertune
