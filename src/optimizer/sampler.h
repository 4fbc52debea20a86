#ifndef HYPERTUNE_OPTIMIZER_SAMPLER_H_
#define HYPERTUNE_OPTIMIZER_SAMPLER_H_

#include <string>

#include "src/common/status.h"
#include "src/config/configuration.h"
#include "src/config/space.h"
#include "src/obs/observability.h"
#include "src/runtime/measurement_store.h"
#include "src/runtime/wire_format.h"

namespace hypertune {

/// The generic configuration-sampling abstraction of §4.3 ("Optimizer
/// Design"): schedulers request new configurations through this interface,
/// which makes optimizers drop-in replaceable (random search, BO,
/// multi-fidelity BO, evolution, ...).
///
/// Samplers read the shared MeasurementStore (groups D_1..D_K and the
/// pending set); schedulers write measurements into the store and
/// additionally forward each observation via OnObservation for samplers
/// that keep private state (e.g. regularized evolution's population).
class Sampler {
 public:
  virtual ~Sampler() = default;

  /// Proposes a configuration to evaluate next. `target_level` is the
  /// fidelity level (1..K) the configuration will first be evaluated at;
  /// model-based samplers may ignore it.
  virtual Configuration Sample(int target_level) = 0;

  /// Notification of a completed measurement (already added to the store).
  virtual void OnObservation(const Configuration& config, double objective,
                             int level) {
    (void)config;
    (void)objective;
    (void)level;
  }

  /// Short identifier for logs and reports.
  virtual std::string name() const = 0;

  /// Installs the run's observability sink (null disables, the default).
  /// Model-based samplers override this to time surrogate fits and
  /// acquisition optimization as trace spans. Purely observational: a
  /// sampler's proposals must be identical with and without a sink.
  virtual void SetObservability(Observability* sink) { (void)sink; }

  /// Serializes the sampler's private state (RNG, populations) onto `enc`
  /// so scheduler Snapshot() can embed it. Samplers that refit their model
  /// from the shared store on every proposal have no private state beyond
  /// the RNG; samplers that decline (the default) simply opt the owning
  /// scheduler out of journal checkpointing.
  [[nodiscard]] virtual Status SnapshotState(WireEncoder* enc) const {
    (void)enc;
    return Status::Unimplemented("sampler does not snapshot");
  }

  /// Restores state produced by SnapshotState() on an identically
  /// constructed sampler. Rejected bytes leave the sampler unchanged.
  [[nodiscard]] virtual Status RestoreState(WireDecoder* dec) {
    (void)dec;
    return Status::Unimplemented("sampler does not snapshot");
  }
};

}  // namespace hypertune

#endif  // HYPERTUNE_OPTIMIZER_SAMPLER_H_
