#include "src/optimizer/median_imputation.h"

namespace hypertune {

SurrogateData BuildSurrogateData(const ConfigurationSpace& space,
                                 const MeasurementStore& store, int level) {
  SurrogateData data;
  const auto& group = store.group(level);
  data.x = Matrix(group.size(), space.size());
  data.y.reserve(group.size());
  for (const Measurement& m : group) {
    space.EncodeInto(m.config, data.x.row(data.y.size()));
    data.y.push_back(m.objective);
  }
  data.num_real = group.size();
  return data;
}

SurrogateData BuildSurrogateDataWithPendingMedian(
    const ConfigurationSpace& space, const MeasurementStore& store,
    int level) {
  SurrogateData data = BuildSurrogateData(space, store, level);
  if (data.num_real == 0) return data;  // no median to impute with
  double median = store.MedianObjective(level);
  // Only this level's pending configs: trials running at other fidelities
  // belong to other measurement groups, and imputing them here would
  // pollute the level-specific fit (§3.2 imputes within the bracket being
  // fit).
  const std::vector<Configuration> pending = store.PendingConfigs(level);
  data.x.Resize(data.num_real + pending.size(), space.size());
  for (const Configuration& config : pending) {
    space.EncodeInto(config, data.x.row(data.y.size()));
    data.y.push_back(median);
    ++data.num_imputed;
  }
  return data;
}

}  // namespace hypertune
