#include "src/surrogate/surrogate.h"

#include <algorithm>
#include <numeric>

#include "src/surrogate/gaussian_process.h"
#include "src/surrogate/random_forest.h"

namespace hypertune {

std::unique_ptr<Surrogate> MakeSurrogate(SurrogateKind kind,
                                         const std::vector<bool>& categorical,
                                         uint64_t seed) {
  if (kind == SurrogateKind::kGaussianProcess) {
    GaussianProcessOptions gp;
    gp.seed = seed;
    return std::make_unique<GaussianProcess>(gp);
  }
  RandomForestOptions rf;
  rf.seed = seed;
  auto forest = std::make_unique<RandomForest>(rf);
  forest->SetCategoricalFeatures(categorical);
  return forest;
}

std::vector<size_t> KeepBestAndRecent(const std::vector<double>& y,
                                      size_t max_points) {
  const size_t n = y.size();
  std::vector<size_t> keep(n);
  std::iota(keep.begin(), keep.end(), size_t{0});
  if (n <= max_points) return keep;
  std::vector<size_t> by_value = keep;
  std::sort(by_value.begin(), by_value.end(),
            [&](size_t a, size_t b) { return y[a] < y[b]; });
  std::vector<bool> selected(n, false);
  size_t kept = 0;
  for (; kept < max_points / 2; ++kept) selected[by_value[kept]] = true;
  for (size_t i = n; i > 0 && kept < max_points; --i) {
    if (!selected[i - 1]) {
      selected[i - 1] = true;
      ++kept;
    }
  }
  keep.clear();
  for (size_t i = 0; i < n; ++i) {
    if (selected[i]) keep.push_back(i);
  }
  return keep;
}

}  // namespace hypertune
