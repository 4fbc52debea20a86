#ifndef HYPERTUNE_CONFIG_SPACE_H_
#define HYPERTUNE_CONFIG_SPACE_H_

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/config/configuration.h"
#include "src/config/parameter.h"

namespace hypertune {

/// An ordered collection of Parameter definitions: the hyper-parameter
/// search space X of the black-box problem min_{x in X} f(x).
///
/// The space is the single source of truth for interpreting Configuration
/// values: sampling, validation, unit-cube encoding for surrogates, neighbor
/// generation for local acquisition search, and pretty-printing.
class ConfigurationSpace {
 public:
  ConfigurationSpace() = default;

  /// Appends a parameter. Fails with InvalidArgument on duplicate names.
  [[nodiscard]] Status Add(Parameter parameter);

  /// Number of parameters (the dimensionality of the space).
  size_t size() const { return parameters_.size(); }
  bool empty() const { return parameters_.empty(); }

  const Parameter& parameter(size_t i) const { return parameters_[i]; }
  const std::vector<Parameter>& parameters() const { return parameters_; }

  /// Index of the parameter with `name`, or error if absent.
  [[nodiscard]] Result<size_t> IndexOf(const std::string& name) const;

  /// Uniform random configuration.
  Configuration Sample(Rng* rng) const;

  /// Validates dimensionality and each value against its parameter.
  [[nodiscard]] Status Validate(const Configuration& config) const;

  /// Encodes a configuration into [0,1]^d for surrogate models.
  std::vector<double> Encode(const Configuration& config) const;

  /// Encode into `row`, which holds size() doubles: one row of a design
  /// matrix, written in place.
  void EncodeInto(const Configuration& config, double* row) const;

  /// Per dimension, whether its parameter is categorical (the dimensions a
  /// random forest splits by equality).
  std::vector<bool> CategoricalMask() const;

  /// Decodes a unit-cube vector back to a legal configuration (discrete
  /// values are snapped).
  Configuration Decode(const std::vector<double>& unit) const;

  /// Returns a configuration differing from `config` in `num_mutations`
  /// randomly chosen parameters (used by local search and evolution).
  Configuration Neighbor(const Configuration& config, double scale,
                         int num_mutations, Rng* rng) const;

  /// Total number of distinct configurations for fully discrete spaces;
  /// 0 when any parameter is continuous or on overflow.
  uint64_t Cardinality() const;

  /// Formats as "name=value, name=value, ...".
  std::string Format(const Configuration& config) const;

 private:
  std::vector<Parameter> parameters_;
};

}  // namespace hypertune

#endif  // HYPERTUNE_CONFIG_SPACE_H_
