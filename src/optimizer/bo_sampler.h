#ifndef HYPERTUNE_OPTIMIZER_BO_SAMPLER_H_
#define HYPERTUNE_OPTIMIZER_BO_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "src/common/rng.h"
#include "src/optimizer/median_imputation.h"
#include "src/optimizer/sampler.h"
#include "src/surrogate/acquisition.h"
#include "src/surrogate/surrogate.h"

namespace hypertune {

/// Options shared by the model-based samplers.
struct BoSamplerOptions {
  SurrogateKind surrogate = SurrogateKind::kRandomForest;
  AcquisitionOptions acquisition;
  /// Fraction of proposals drawn uniformly at random (exploration
  /// interleaving, as in BOHB's rho).
  double random_fraction = 0.25;
  /// Observations required before the model kicks in; 0 means
  /// max(dim + 1, 6).
  size_t min_points = 0;
  /// Random candidates scored by the acquisition per proposal.
  int num_candidates = 300;
  /// Number of best observed configurations used to seed local candidates.
  int num_local_seeds = 5;
  /// Neighbors generated around each local seed.
  int neighbors_per_seed = 6;
  /// Apply Algorithm 2 (median imputation of pending configurations) when
  /// fitting — required for sensible parallel proposals.
  bool impute_pending = true;
  uint64_t seed = 0;
};

/// Maximizes an acquisition function over a candidate pool of
/// `options.num_candidates` uniform samples plus `options.neighbors_per_seed`
/// neighbors of each of the `options.num_local_seeds` best configurations in
/// measurement group `seed_level` (0 to skip local seeding), scored with
/// `options.acquisition`. Candidates that are already measured or pending in
/// `store` are excluded; the rest are encoded into one design matrix and
/// scored with a single PredictBatch pass (bit-identical to the
/// per-candidate loop). Returns nullopt when every candidate is a
/// duplicate. With a sink, the search is the trace span "acquisition" (with
/// nested "acq encode" and "acq predict" spans) and counts in the
/// sampler.acquisition_calls and sampler.acquisition_seconds metrics. Shared
/// by BoSampler and MfesSampler.
std::optional<Configuration> MaximizeAcquisition(
    const ConfigurationSpace& space, const MeasurementStore& store,
    const Surrogate& model, double best_objective, int seed_level,
    const BoSamplerOptions& options, Observability* obs, Rng* rng);

/// A fresh surrogate of `kind` (MakeSurrogate with `space`'s categorical
/// mask and `seed`) fitted on `data`, the training data of measurement group
/// `level`; null when the fit fails. With a sink, the fit is the trace span
/// "fit surrogate L<level>" and counts in the sampler.fits,
/// sampler.fit_seconds and sampler.fit_points metrics. Shared by BoSampler
/// and MfesSampler.
std::unique_ptr<Surrogate> FitTraced(SurrogateKind kind,
                                     const ConfigurationSpace& space,
                                     uint64_t seed, const SurrogateData& data,
                                     int level, Observability* obs);

/// Bayesian-optimization sampler ("BO"/"A-BO" baselines, and the model
/// inside BOHB): fits a surrogate on the highest-fidelity measurement group
/// that has enough data and maximizes the acquisition over random + local
/// candidates. Proposes uniformly at random until enough observations
/// exist, and with probability `random_fraction` thereafter.
class BoSampler : public Sampler {
 public:
  BoSampler(const ConfigurationSpace* space, const MeasurementStore* store,
            BoSamplerOptions options);

  Configuration Sample(int target_level) override;
  std::string name() const override;
  /// Times surrogate fits and acquisition optimization as trace spans.
  void SetObservability(Observability* sink) override { obs_ = sink; }

  /// Fidelity level whose data the last model-based proposal used
  /// (0 when the model has not engaged yet). Exposed for tests.
  int last_fit_level() const { return last_fit_level_; }

  /// The RNG is the only trajectory-bearing private state: the surrogate
  /// cache is invalidated by any store version change, so it is a pure
  /// function of the (snapshot-restored) store and refits identically
  /// after RestoreState. This is what lets BO-backed schedulers emit
  /// journal checkpoints (MFES declines: its deliberately-stale
  /// low-fidelity members are historical state, not derivable).
  [[nodiscard]] Status SnapshotState(WireEncoder* enc) const override;
  [[nodiscard]] Status RestoreState(WireDecoder* dec) override;

 private:
  /// Refits the surrogate if the store changed; returns false when there is
  /// not enough data to model.
  bool EnsureModel();

  /// Acquisition-maximizing proposal; falls back to random on degenerate
  /// states (e.g. every candidate already known).
  Configuration ProposeFromModel();

  const ConfigurationSpace* space_;
  const MeasurementStore* store_;
  BoSamplerOptions options_;
  Rng rng_;

  std::unique_ptr<Surrogate> model_;
  uint64_t fitted_version_ = ~uint64_t{0};
  int last_fit_level_ = 0;
  double fit_best_ = 0.0;  // best objective in the fitted group
  Observability* obs_ = nullptr;  // null = observability off
};

}  // namespace hypertune

#endif  // HYPERTUNE_OPTIMIZER_BO_SAMPLER_H_
