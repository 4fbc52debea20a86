#ifndef HYPERTUNE_SCHEDULER_BRACKET_H_
#define HYPERTUNE_SCHEDULER_BRACKET_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/rank_tree.h"
#include "src/common/status.h"
#include "src/config/configuration.h"
#include "src/runtime/job.h"
#include "src/runtime/wire_format.h"

namespace hypertune {

/// The geometric resource ladder shared by all HB-family methods: K levels
/// with resources r_k = R * eta^(k - K), so r_K = R and consecutive levels
/// differ by the discard proportion eta.
struct ResourceLadder {
  double eta = 3.0;
  int num_levels = 4;  // K
  double max_resource = 1.0;

  /// r_k for level k in [1, K].
  double ResourceAt(int level) const;

  /// All level resources, index i <-> level i+1.
  std::vector<double> LevelResources() const;

  /// Builds a ladder with K = floor(log_eta(R / min_resource)) + 1, capped
  /// at `max_levels` when positive (the paper caps at 4 brackets).
  static ResourceLadder Make(double min_resource, double max_resource,
                             double eta, int max_levels = 0);
};

/// Configuration of one bracket (one SHA procedure).
struct BracketOptions {
  /// Bracket index b in [1, K]: the initial resource level is b, so
  /// Bracket-1 starts cheapest and Bracket-K evaluates at full resource
  /// only (Table 1 of the paper).
  int index = 1;
  ResourceLadder ladder;
  /// Synchronous SHA (rung barriers + exact top-1/eta promotion) versus
  /// asynchronous ASHA-style on-the-fly promotion.
  bool synchronous = true;
  /// Async only: apply D-ASHA's delay condition
  /// |D_k| / (|D_{k+1}| + 1) >= eta (Algorithm 1, line 9).
  bool delayed_promotion = false;
  /// Maximum new configurations admitted at the base level; <= 0 means the
  /// classic Hyperband width n1 = ceil(K / (s+1) * eta^s) for sync
  /// brackets and unlimited for async brackets.
  int64_t base_quota = 0;
};

/// Rung/promotion bookkeeping for one SHA procedure over levels
/// [index, K] of the ladder. Used in two modes:
///
///   * synchronous: rung j admits a fixed number of configurations; when
///     every evaluation of a rung finishes, the top 1/eta are queued for
///     promotion (the synchronization barrier of Figure 1);
///   * asynchronous: any configuration currently in the top 1/eta of its
///     completed rung that has not been promoted is eligible immediately
///     (ASHA), optionally gated by the D-ASHA delay condition.
///
/// The bracket does not talk to samplers or stores: callers admit new
/// base-level configurations (AdmitConfig) and report completions
/// (OnJobComplete); the bracket mints promotion jobs.
class Bracket {
 public:
  explicit Bracket(const BracketOptions& options);

  int index() const { return options_.index; }
  int base_level() const { return options_.index; }
  int top_level() const { return options_.ladder.num_levels; }

  /// Classic Hyperband initial width n1 for this bracket.
  int64_t DefaultWidth() const;

  /// Number of new base-level configurations still admissible.
  bool WantsNewConfig() const;

  /// Admits a new configuration at the base level and returns its job.
  /// Requires WantsNewConfig().
  Job AdmitConfig(const Configuration& config, int64_t job_id);

  /// Returns a promotion job when one is available under the configured
  /// rules, or nullopt.
  std::optional<Job> NextPromotion(int64_t job_id);

  /// Reports the completion of a job previously minted by this bracket;
  /// aborts when no job is in flight on its rung.
  void OnJobComplete(const Job& job, double objective);

  /// Removes a previously minted, never-completed job after the runtime
  /// abandoned it (retry budget exhausted). Sync rungs shrink their target
  /// so the barrier drains without the failed member — cascading upwards
  /// when an entire rung dies — and a failed promotion candidate stays
  /// marked promoted so it is never re-promoted.
  void OnJobAbandoned(const Job& job);

  /// Evaluations issued but not yet completed.
  int64_t InFlight() const { return in_flight_; }

  /// True when no further work can ever come out of this bracket: the base
  /// quota is exhausted, nothing is in flight, and no promotion is
  /// currently eligible.
  bool Quiescent() const;

  /// Sync brackets: true when every rung fully completed.
  bool Complete() const;

  /// Completed measurements at `level` within this bracket (|D_k| of
  /// Algorithm 1 is scoped to the running SHA procedure).
  int64_t CompletedAt(int level) const;

  /// Issued evaluations at `level` (completed + in flight).
  int64_t IssuedAt(int level) const;

  /// Aborts via HT_CHECK when the rung bookkeeping is corrupted: per rung,
  /// completed results match the completion counter, a sync rung's target
  /// never drops below its resolved members, every promoted configuration
  /// completed on that rung, and the bracket-level in-flight counter equals
  /// the per-rung issued-minus-completed sum. Called continuously by
  /// SchedulerContractChecker through the schedulers' CheckInvariants();
  /// promoted-configuration checks are incremental (each promotion is
  /// verified once, on the first call after it happened), so the per-event
  /// cost is O(rungs) amortized rather than O(completions).
  void CheckInvariants() const;

  /// Total rank-tree node visits spent on promotion decisions so far — a
  /// portable, timing-free measure of per-decision work. Grows
  /// O(log completions) per completion/promotion when decisions are
  /// indexed; complexity regression tests assert against this.
  int64_t decision_work() const;

  /// Sizes of one rung's append-only logs: completed results, rank-tree
  /// nodes closed by promotion scans, and promotions. Only these grow
  /// without bound; everything else about a bracket is a few counters.
  struct RungCounts {
    uint32_t results = 0;
    uint32_t closed = 0;
    uint32_t promoted = 0;
    bool operator==(const RungCounts&) const = default;
  };
  std::vector<RungCounts> Counts() const;

  /// Serializes the bracket's state as a change from an earlier state of it
  /// whose rungs had `base` counts (each at most the current one): the rung
  /// results, closed nodes and promotions appended since, in order, and the
  /// rest whole (admitted and in-flight counters, each rung's issued count
  /// and sync target, the queued sync promotions). All-zero base counts
  /// make a full image. Construction parameters (BracketOptions) are not
  /// serialized.
  void Snapshot(const std::vector<RungCounts>& base, WireEncoder* enc) const;

  /// A decoded Snapshot(), checked against this bracket and staged for
  /// Apply().
  struct Delta {
    struct RungDelta {
      int64_t issued = 0;
      int64_t target = 0;
      std::vector<std::pair<double, Configuration>> results;
      /// Multiset of the configuration hashes of `results`.
      std::unordered_map<uint64_t, int64_t> hash_counts;
      std::vector<int32_t> closed;
      std::vector<uint64_t> promoted;  // in promotion order
      std::unordered_set<uint64_t> promoted_set;
    };
    int64_t admitted = 0;
    int64_t in_flight = 0;
    std::vector<RungDelta> rungs;
    std::deque<std::pair<Configuration, int>> sync_promotions;
    /// The rungs' counts once applied.
    std::vector<RungCounts> counts;
  };

  /// Decodes a Snapshot() written against this bracket's current counts (a
  /// full image, on a fresh bracket). Rejects bytes that do not extend the
  /// current state consistently; never mutates the bracket.
  [[nodiscard]] Status Decode(WireDecoder* dec, Delta* out) const;

  /// Applies a Delta that Decode() accepted against the current state. The
  /// rank trees grow by inserting the new results in completion order, so
  /// order statistics, and every later decision, are exact.
  void Apply(Delta delta);

 private:
  /// At most 256 bytes, so a 4-level ladder's rungs take 1 KiB, which
  /// glibc still serves from its per-thread allocation cache.
  struct Rung {
    int level = 0;
    /// Prefix of promotion_log already audited by CheckInvariants (beside
    /// `level`, in its padding). Mutable: the audit is observably const
    /// (it only verifies).
    mutable uint32_t audited = 0;
    /// Sync mode: number of configurations this rung should evaluate.
    int64_t target = 0;
    int64_t issued = 0;
    int64_t completed = 0;
    /// Completed (objective, config) pairs.
    std::vector<std::pair<double, Configuration>> results;
    /// Order-statistics tree over result objectives; node id == results
    /// index. Async promotions close nodes as they are consumed, so "best
    /// un-promoted completion" is an O(log n) query instead of a fresh
    /// sort-and-scan per decision.
    RankTree order;
    /// Async mode: node ids in the order promotion scans closed them.
    std::vector<int32_t> closed;
    /// Hashes of configurations already promoted out of this rung, as a
    /// set and in promotion order.
    std::unordered_set<uint64_t> promoted;
    std::vector<uint64_t> promotion_log;
    /// Multiset of completed configuration hashes (a config admitted twice
    /// completes twice), for incremental promoted-subset-of-completed
    /// invariant checks.
    std::unordered_map<uint64_t, int64_t> completed_hash_counts;
  };
  static_assert(sizeof(Rung) <= 256, "see Rung");

  Rung& rung(int level);
  const Rung& rung(int level) const;

  /// Sync mode: if `level`'s rung just completed, queue its top 1/eta.
  void MaybeQueueSyncPromotions(int level);

  /// Async mode: first eligible promotion scanning top-1 .. base levels.
  std::optional<Job> FindAsyncPromotion(int64_t job_id);

  Job MakeJob(const Configuration& config, int level, int64_t job_id) const;

  BracketOptions options_;
  std::vector<Rung> rungs_;  // rungs_[i] <-> level base_level() + i
  std::deque<std::pair<Configuration, int>> sync_promotions_;  // (config, from)
  int64_t admitted_ = 0;
  int64_t base_quota_ = 0;  // resolved quota (>0) or -1 for unlimited
  int64_t in_flight_ = 0;
};

}  // namespace hypertune

#endif  // HYPERTUNE_SCHEDULER_BRACKET_H_
