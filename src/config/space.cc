#include "src/config/space.h"

#include <algorithm>

#include "src/common/logging.h"

namespace hypertune {

Status ConfigurationSpace::Add(Parameter parameter) {
  for (const Parameter& existing : parameters_) {
    if (existing.name() == parameter.name()) {
      return Status::InvalidArgument("duplicate parameter name '" +
                                     parameter.name() + "'");
    }
  }
  parameters_.push_back(std::move(parameter));
  return Status::Ok();
}

Result<size_t> ConfigurationSpace::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < parameters_.size(); ++i) {
    if (parameters_[i].name() == name) return i;
  }
  return Status::NotFound("no parameter named '" + name + "'");
}

Configuration ConfigurationSpace::Sample(Rng* rng) const {
  std::vector<double> values(parameters_.size());
  for (size_t i = 0; i < parameters_.size(); ++i) {
    values[i] = parameters_[i].SampleValue(rng);
  }
  return Configuration(std::move(values));
}

Status ConfigurationSpace::Validate(const Configuration& config) const {
  if (config.size() != parameters_.size()) {
    return Status::InvalidArgument(
        "configuration has " + std::to_string(config.size()) +
        " values; space has " + std::to_string(parameters_.size()) +
        " parameters");
  }
  for (size_t i = 0; i < parameters_.size(); ++i) {
    HT_RETURN_IF_ERROR(parameters_[i].Validate(config[i]));
  }
  return Status::Ok();
}

std::vector<double> ConfigurationSpace::Encode(
    const Configuration& config) const {
  std::vector<double> unit(parameters_.size());
  EncodeInto(config, unit.data());
  return unit;
}

void ConfigurationSpace::EncodeInto(const Configuration& config,
                                    double* row) const {
  HT_CHECK(config.size() == parameters_.size()) << "Encode: size mismatch";
  for (size_t i = 0; i < parameters_.size(); ++i) {
    row[i] = parameters_[i].ToUnit(config[i]);
  }
}

std::vector<bool> ConfigurationSpace::CategoricalMask() const {
  std::vector<bool> categorical(parameters_.size());
  for (size_t i = 0; i < parameters_.size(); ++i) {
    categorical[i] = parameters_[i].is_categorical();
  }
  return categorical;
}

Configuration ConfigurationSpace::Decode(
    const std::vector<double>& unit) const {
  HT_CHECK(unit.size() == parameters_.size()) << "Decode: size mismatch";
  std::vector<double> values(parameters_.size());
  for (size_t i = 0; i < parameters_.size(); ++i) {
    values[i] = parameters_[i].FromUnit(unit[i]);
  }
  return Configuration(std::move(values));
}

Configuration ConfigurationSpace::Neighbor(const Configuration& config,
                                           double scale, int num_mutations,
                                           Rng* rng) const {
  HT_CHECK(config.size() == parameters_.size()) << "Neighbor: size mismatch";
  Configuration out = config;
  if (parameters_.empty()) return out;
  num_mutations = std::max(
      1, std::min(num_mutations, static_cast<int>(parameters_.size())));
  std::vector<size_t> dims = rng->SampleWithoutReplacement(
      parameters_.size(), static_cast<size_t>(num_mutations));
  for (size_t d : dims) {
    out[d] = parameters_[d].Neighbor(config[d], scale, rng);
  }
  return out;
}

uint64_t ConfigurationSpace::Cardinality() const {
  uint64_t total = 1;
  for (const Parameter& p : parameters_) {
    uint64_t n = 0;
    switch (p.type()) {
      case ParameterType::kFloat:
        return 0;
      case ParameterType::kInt:
        n = static_cast<uint64_t>(p.high() - p.low()) + 1;
        break;
      case ParameterType::kCategorical:
      case ParameterType::kOrdinal:
        n = p.num_choices();
        break;
    }
    if (n != 0 && total > UINT64_MAX / n) return 0;  // overflow
    total *= n;
  }
  return total;
}

std::string ConfigurationSpace::Format(const Configuration& config) const {
  std::string out;
  for (size_t i = 0; i < parameters_.size() && i < config.size(); ++i) {
    if (i > 0) out += ", ";
    out += parameters_[i].name();
    out += "=";
    out += parameters_[i].FormatValue(config[i]);
  }
  return out;
}

}  // namespace hypertune
