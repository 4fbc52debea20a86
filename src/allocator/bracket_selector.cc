#include "src/allocator/bracket_selector.h"

#include "src/common/logging.h"

namespace hypertune {

BracketSelector::BracketSelector(int num_brackets,
                                 std::vector<double> level_resources,
                                 FidelityWeights* weights,
                                 BracketSelectorOptions options)
    : num_brackets_(num_brackets),
      level_resources_(std::move(level_resources)),
      weights_(weights),
      options_(options),
      rng_(options.seed) {
  HT_CHECK(num_brackets_ >= 1) << "need at least one bracket";
  HT_CHECK(level_resources_.size() == static_cast<size_t>(num_brackets_))
      << "one resource value per bracket required";
  HT_CHECK(options_.policy != BracketPolicy::kLearned || weights_ != nullptr)
      << "learned bracket policy needs FidelityWeights";
  for (double r : level_resources_) {
    HT_CHECK(r > 0.0) << "level resources must be positive";
  }
}

void BracketSelector::Snapshot(WireEncoder* enc) const {
  enc->PutString(rng_.SerializeState());
  enc->PutI32(num_selections_);
  enc->PutDoubles(last_weights_);
  // The learned policy samples from w = c o theta, and FidelityWeights only
  // refreshes theta every refresh_interval versions — that lag is part of
  // the trajectory and must travel with the snapshot.
  if (weights_ != nullptr) weights_->Snapshot(enc);
}

Status BracketSelector::Restore(WireDecoder* dec) {
  std::string rng_state;
  HT_RETURN_IF_ERROR(dec->GetString(&rng_state));
  int32_t selections = 0;
  HT_RETURN_IF_ERROR(dec->GetI32(&selections));
  if (selections < 0) {
    return Status::InvalidArgument("selector: negative selection count");
  }
  std::vector<double> weights;
  HT_RETURN_IF_ERROR(dec->GetDoubles(&weights));
  Rng rng(0);
  HT_RETURN_IF_ERROR(rng.DeserializeState(rng_state));
  // FidelityWeights::Restore is all or nothing, and the last step that can
  // fail, so a rejection leaves both unchanged.
  if (weights_ != nullptr) HT_RETURN_IF_ERROR(weights_->Restore(dec));
  rng_ = rng;
  num_selections_ = selections;
  last_weights_ = std::move(weights);
  return Status::Ok();
}

int BracketSelector::Select(const MeasurementStore& store) {
  int64_t selection = num_selections_++;

  // Blocked width-proportional cycle: admits init_widths[b-1] jobs to
  // bracket b per pass — the per-job analogue of executing whole brackets
  // in sequence.
  auto width_cycle = [&](int64_t index) {
    int64_t pass_width = 0;
    for (int64_t w : options_.init_widths) pass_width += w;
    if (pass_width <= 0) return 1 + static_cast<int>(index % num_brackets_);
    int64_t within_pass = index % pass_width;
    for (int b = 0; b < num_brackets_; ++b) {
      within_pass -= options_.init_widths[static_cast<size_t>(b)];
      if (within_pass < 0) return b + 1;
    }
    return num_brackets_;
  };

  switch (options_.policy) {
    case BracketPolicy::kFixed:
      return options_.fixed_bracket;
    case BracketPolicy::kRoundRobin:
      if (!options_.init_widths.empty()) return width_cycle(selection);
      return 1 + static_cast<int>(selection % num_brackets_);
    case BracketPolicy::kLearned:
      break;
  }

  // Initialization: emulate `init_rounds` round-robin bracket executions.
  if (!options_.init_widths.empty()) {
    HT_CHECK(options_.init_widths.size() ==
             static_cast<size_t>(num_brackets_))
        << "init_widths must have one entry per bracket";
    int64_t pass_width = 0;
    for (int64_t w : options_.init_widths) pass_width += w;
    int64_t init_total = options_.init_rounds * pass_width;
    if (selection < init_total && pass_width > 0) {
      return width_cycle(selection);
    }
  } else {
    int64_t init = options_.init_selections > 0
                       ? options_.init_selections
                       : static_cast<int64_t>(options_.init_rounds) *
                             num_brackets_;
    if (selection < init) {
      return 1 + selection % num_brackets_;
    }
  }

  const std::vector<double>& theta = weights_->ComputeTheta(store);
  HT_CHECK(theta.size() == static_cast<size_t>(num_brackets_))
      << "theta dimension mismatch";

  // w_i = c_i * theta_i with c_i = 1 / r_i, then normalize.
  std::vector<double> w(theta.size(), 0.0);
  double total = 0.0;
  for (size_t i = 0; i < theta.size(); ++i) {
    w[i] = theta[i] / level_resources_[i];
    total += w[i];
  }
  if (total <= 0.0) {
    // Degenerate theta: fall back to round-robin behaviour.
    last_weights_.assign(w.size(), 1.0 / static_cast<double>(w.size()));
    return 1 + selection % num_brackets_;
  }
  for (double& v : w) v /= total;
  last_weights_ = w;
  return 1 + static_cast<int>(rng_.Categorical(w));
}

}  // namespace hypertune
