#ifndef HYPERTUNE_OPTIMIZER_MEDIAN_IMPUTATION_H_
#define HYPERTUNE_OPTIMIZER_MEDIAN_IMPUTATION_H_

#include <vector>

#include "src/config/space.h"
#include "src/linalg/matrix.h"
#include "src/runtime/measurement_store.h"

namespace hypertune {

/// Training data for a surrogate: encoded design matrix (one configuration
/// per row, encoded in place) plus targets.
struct SurrogateData {
  Matrix x;
  std::vector<double> y;
  size_t num_real = 0;     ///< measurements (prefix of x/y)
  size_t num_imputed = 0;  ///< imputed pending evaluations (suffix)
};

/// Builds surrogate training data from measurement group `level` of
/// `store`, encoded through `space`.
SurrogateData BuildSurrogateData(const ConfigurationSpace& space,
                                 const MeasurementStore& store, int level);

/// Algorithm 2 (lines 1–3), the algorithm-agnostic parallel sampling
/// device: augments group `level` with every configuration pending *at that
/// level* imputed at the group's median objective (trials in flight at other
/// fidelities belong to other measurement groups and are excluded). The imputed points act as a local
/// penalty around busy workers' configurations, steering the acquisition
/// away from repeated or near-duplicate evaluations without modifying the
/// underlying sequential optimizer.
///
/// The fault runtime reuses this path for failed trials: a configuration
/// whose job was abandoned (crash/timeout after the retry cap) is left in
/// the pending set permanently, so it keeps being imputed at the median and
/// the acquisition treats a crashing configuration like a mediocre one
/// instead of re-proposing it.
SurrogateData BuildSurrogateDataWithPendingMedian(
    const ConfigurationSpace& space, const MeasurementStore& store, int level);

}  // namespace hypertune

#endif  // HYPERTUNE_OPTIMIZER_MEDIAN_IMPUTATION_H_
