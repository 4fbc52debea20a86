#ifndef HYPERTUNE_OPTIMIZER_MFES_SAMPLER_H_
#define HYPERTUNE_OPTIMIZER_MFES_SAMPLER_H_

#include <memory>
#include <vector>

#include "src/allocator/fidelity_weights.h"
#include "src/optimizer/bo_sampler.h"
#include "src/optimizer/sampler.h"
#include "src/surrogate/mfes_ensemble.h"

namespace hypertune {

/// Options for the multi-fidelity sampler.
struct MfesSamplerOptions {
  /// Surrogate kind, acquisition, candidate counts, exploration fraction.
  BoSamplerOptions bo;
  /// theta estimation (ranking losses, bootstrap votes).
  FidelityWeightsOptions weights;
  /// Minimum measurements before a level's base surrogate is fitted.
  size_t min_points_per_level = 3;
};

/// The default multi-fidelity optimizer of Hyper-Tune (§4.3), modeled on
/// MFES-HB: one base surrogate M_i per measurement group D_i, combined by
/// weighted bagging into the ensemble M_MF of Eq. (3) with weights theta
/// from the ranking-loss machinery of §4.1. The high-fidelity member M_K is
/// refitted on D_K augmented with median-imputed pending configurations
/// (Algorithm 2), so the sampler is safe under asynchronous parallelism.
class MfesSampler : public Sampler {
 public:
  MfesSampler(const ConfigurationSpace* space, const MeasurementStore* store,
              MfesSamplerOptions options);

  Configuration Sample(int target_level) override;
  std::string name() const override { return "mfes"; }
  /// Times base-surrogate fits and acquisition optimization as trace spans.
  void SetObservability(Observability* sink) override { obs_ = sink; }

  /// Makes the sampler's theta estimate fit through `weights`' fit cache
  /// (FidelityWeights::ShareFitCacheWith): the bracket selector's estimate
  /// over the same store and options then never refits what this one fitted,
  /// and vice versa. `weights` must outlive the sampler's Sample calls.
  void ShareThetaFitsWith(FidelityWeights* weights) {
    weights_.ShareFitCacheWith(weights);
  }

  /// Ensemble weights used by the last model-based proposal (diagnostics).
  const std::vector<double>& last_theta() const { return last_theta_; }

 private:
  /// Refits base surrogates and the ensemble when the store changed.
  /// Returns false when no level has enough data to model.
  bool EnsureEnsemble();

  const ConfigurationSpace* space_;
  const MeasurementStore* store_;
  MfesSamplerOptions options_;
  FidelityWeights weights_;
  Rng rng_;

  std::vector<std::unique_ptr<Surrogate>> base_;  // index 0 <-> level 1
  MfesEnsemble ensemble_;
  std::vector<double> last_theta_;
  uint64_t fitted_version_ = ~uint64_t{0};
  uint64_t fitted_data_version_ = ~uint64_t{0};
  /// Group size each base member was last fitted on (refresh throttling).
  std::vector<size_t> fitted_sizes_;
  /// What M_K was last fitted on: level_version(K) and the configs pending
  /// at K, in order (empty without pending imputation).
  uint64_t high_fit_version_ = 0;
  std::vector<Configuration> high_fit_pending_;
  double fit_best_ = 0.0;
  int best_level_ = 0;
  Observability* obs_ = nullptr;  // null = observability off
};

}  // namespace hypertune

#endif  // HYPERTUNE_OPTIMIZER_MFES_SAMPLER_H_
