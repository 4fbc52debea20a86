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

std::unique_ptr<Surrogate> FitSurrogate(const ConfigurationSpace& space,
                                        const std::vector<Measurement>& fit_on,
                                        const SurrogateFactory& factory) {
  if (fit_on.size() < 2) return nullptr;
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  x.reserve(fit_on.size());
  y.reserve(fit_on.size());
  for (const Measurement& m : fit_on) {
    x.push_back(space.Encode(m.config));
    y.push_back(m.objective);
  }
  std::unique_ptr<Surrogate> model = factory();
  if (!model->Fit(x, y).ok()) return nullptr;
  return model;
}

std::vector<double> PredictMeans(const ConfigurationSpace& space,
                                 const Surrogate& model,
                                 const std::vector<Measurement>& eval_at) {
  std::vector<double> predictions;
  predictions.reserve(eval_at.size());
  for (const Measurement& m : eval_at) {
    predictions.push_back(model.Predict(space.Encode(m.config)).mean);
  }
  return predictions;
}

std::vector<double> CrossValidationPredictions(
    const ConfigurationSpace& space, const std::vector<Measurement>& data,
    int folds, const SurrogateFactory& factory, uint64_t seed) {
  size_t n = data.size();
  if (folds < 2 || n < static_cast<size_t>(folds)) return {};

  // Shuffled fold assignment for an unbiased split.
  Rng rng(CombineSeeds(seed, n));
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(&order);

  std::vector<double> predictions(n, 0.0);
  for (int fold = 0; fold < folds; ++fold) {
    std::vector<std::vector<double>> train_x;
    std::vector<double> train_y;
    std::vector<size_t> held_out;
    for (size_t pos = 0; pos < n; ++pos) {
      size_t idx = order[pos];
      if (static_cast<int>(pos % static_cast<size_t>(folds)) == fold) {
        held_out.push_back(idx);
      } else {
        train_x.push_back(space.Encode(data[idx].config));
        train_y.push_back(data[idx].objective);
      }
    }
    if (train_x.size() < 2) return {};
    std::unique_ptr<Surrogate> model = factory();
    if (!model->Fit(train_x, train_y).ok()) return {};
    for (size_t idx : held_out) {
      predictions[idx] = model->Predict(space.Encode(data[idx].config)).mean;
    }
  }
  return predictions;
}

}  // namespace hypertune
