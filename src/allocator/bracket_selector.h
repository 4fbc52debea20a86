#ifndef HYPERTUNE_ALLOCATOR_BRACKET_SELECTOR_H_
#define HYPERTUNE_ALLOCATOR_BRACKET_SELECTOR_H_

#include <cstdint>
#include <vector>

#include "src/allocator/fidelity_weights.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/runtime/wire_format.h"

namespace hypertune {

/// Policies for picking the next bracket (initial-resource design).
enum class BracketPolicy {
  /// Cycle Bracket-1 .. Bracket-K forever (Hyperband's outer loop).
  kRoundRobin,
  /// Hyper-Tune §4.1: sample bracket i with probability w_i, where
  /// w = normalize(c o theta), c_i = 1/r_i (cheaper brackets preferred),
  /// theta_i = precision of fidelity i (ranking-loss votes).
  kLearned,
  /// Always the given fixed bracket (SHA/ASHA use bracket 1).
  kFixed,
};

/// Options for BracketSelector.
struct BracketSelectorOptions {
  BracketPolicy policy = BracketPolicy::kLearned;
  /// Round-robin passes over all brackets before the learned sampling
  /// engages ("we select brackets by round-robin with three times").
  int init_rounds = 3;
  /// When positive, overrides init_rounds with an absolute number of
  /// initial round-robin selections (used by per-job async selection,
  /// where one paper-level "bracket execution" spans ~n1 selections).
  int64_t init_selections = 0;
  /// Per-bracket admission widths for the initialization phase of per-job
  /// selection. When non-empty (size K), each init pass admits
  /// init_widths[b-1] jobs to bracket b in blocked order — the async
  /// analogue of "executing each bracket once": uniform per-*selection*
  /// round-robin would over-spend on expensive full-fidelity brackets.
  std::vector<int64_t> init_widths;
  /// Bracket used by kFixed.
  int fixed_bracket = 1;
  uint64_t seed = 0;
};

/// The resource allocator of §4.1: decides which bracket (i.e. which
/// initial training resource r_1) the next SHA/D-ASHA procedure uses,
/// balancing the "precision vs. cost" trade-off of partial evaluations.
class BracketSelector {
 public:
  /// `num_brackets` = K; `level_resources[i-1]` = r_i in resource units
  /// (used for the cost coefficients c_i = 1/r_i). `weights` may be null
  /// for kRoundRobin/kFixed.
  BracketSelector(int num_brackets, std::vector<double> level_resources,
                  FidelityWeights* weights, BracketSelectorOptions options);

  /// Picks the bracket in [1, K] for the next SHA procedure.
  int Select(const MeasurementStore& store);

  /// The most recent learned distribution w (empty until computed).
  const std::vector<double>& last_weights() const { return last_weights_; }

  /// Number of Select calls so far.
  int num_selections() const { return num_selections_; }

  /// Serializes the selector's mutable state (RNG stream, selection count,
  /// last learned distribution) for scheduler snapshots, plus the attached
  /// FidelityWeights' theta cache when one is present — its refresh lag is
  /// trajectory-bearing, so it must be restored rather than recomputed.
  void Snapshot(WireEncoder* enc) const;

  /// Restores state produced by Snapshot() on an identically configured
  /// selector. Rejected bytes leave the selector (and its FidelityWeights)
  /// unchanged.
  [[nodiscard]] Status Restore(WireDecoder* dec);

 private:
  int num_brackets_;
  std::vector<double> level_resources_;
  FidelityWeights* weights_;  // not owned
  BracketSelectorOptions options_;
  Rng rng_;
  int num_selections_ = 0;
  std::vector<double> last_weights_;
};

}  // namespace hypertune

#endif  // HYPERTUNE_ALLOCATOR_BRACKET_SELECTOR_H_
