#ifndef HYPERTUNE_RUNTIME_MEASUREMENT_STORE_H_
#define HYPERTUNE_RUNTIME_MEASUREMENT_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/config/configuration.h"

namespace hypertune {

/// One observed (configuration, objective) pair at some fidelity.
struct Measurement {
  Configuration config;
  double objective = 0.0;
};

/// The multi-fidelity measurement groups D_1, ..., D_K of §4 ("Basic
/// Setting"): group D_i holds results of evaluations with r_i = eta^{i-1}
/// units of training resource; D_K holds the high-fidelity measurements.
///
/// The store also tracks the *pending* configurations currently being
/// evaluated on workers — required by the algorithm-agnostic sampling
/// procedure (Algorithm 2, median imputation) — and a monotonically
/// increasing version so samplers can cache fitted surrogates.
///
/// Scalability layout:
///   * Each group carries a hash -> positions index, so Add (and the
///     membership probe Contains) are O(1) expected instead of a linear
///     group scan — the store stays flat-cost at millions of measurements.
///   * The pending multiset is sharded by configuration hash into
///     kPendingShards independently locked shards, so worker threads
///     marking/unmarking pending configs contend only 1/16th of the time.
///     Shard entries are insertion-ordered with tombstoned removal
///     (count == 0) and amortized compaction, which keeps PendingConfigs()
///     deterministic: shard-major, insertion order within a shard.
///
/// Thread-safety: group data is synchronized on one mutex; pending shards
/// each carry their own. No method holds two locks at once (the group
/// mutex scope is closed before any shard lock is taken), so there is no
/// lock-order hazard. The reference returned by group() stays valid only
/// until the next Add at that level; every caller in this library reads it
/// on the serialized scheduler path, where no concurrent mutation is
/// possible — the internal lock guards against torn reads from auxiliary
/// threads (reporting, parallel surrogate fitting).
class MeasurementStore {
 public:
  /// `num_levels` is K >= 1.
  explicit MeasurementStore(int num_levels);

  int num_levels() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return static_cast<int>(levels_.size());
  }

  /// Records a measurement at `level` in [1, K]. If the same configuration
  /// is re-observed at the same level, the new value replaces the old one
  /// (a longer-trained checkpoint supersedes). O(1) expected.
  void Add(int level, const Configuration& config, double objective)
      EXCLUDES(mu_);

  /// Measurements of group D_level, level in [1, K]. See the class comment
  /// for the lifetime of the returned reference.
  const std::vector<Measurement>& group(int level) const EXCLUDES(mu_);

  /// Convenience: group sizes |D_1| .. |D_K|.
  std::vector<size_t> GroupSizes() const EXCLUDES(mu_);

  /// Total number of stored measurements.
  size_t TotalSize() const EXCLUDES(mu_);

  /// Lowest objective in the group, or +inf when empty.
  double BestObjective(int level) const EXCLUDES(mu_);

  /// Median objective of the group, or 0 when empty (Algorithm 2, line 1).
  double MedianObjective(int level) const EXCLUDES(mu_);

  /// Highest level with at least `min_count` measurements, or 0 if none.
  int HighestLevelWith(size_t min_count) const EXCLUDES(mu_);

  /// True when `config` is stored at any level or pending at any level —
  /// the O(1) membership probe behind duplicate-avoidance in samplers
  /// (replaces scanning every group plus a PendingConfigs() snapshot).
  bool Contains(const Configuration& config) const EXCLUDES(mu_);

  /// Marks a configuration as being evaluated on some worker at `level` in
  /// [1, K]. Pending entries are level-scoped: Algorithm 2 imputes the
  /// pending configs of the fidelity group being fit, so a trial running at
  /// another level must not appear in that group's C_pending.
  void AddPending(const Configuration& config, int level) EXCLUDES(mu_);

  /// Unmarks one pending instance of `config` at `level` (no-op when
  /// absent).
  void RemovePending(const Configuration& config, int level) EXCLUDES(mu_);

  /// Snapshot of all pending configurations across every level — the right
  /// set for duplicate-avoidance when sampling new configs. Deterministic
  /// order: shard-major (shard 0 first), insertion order within a shard.
  std::vector<Configuration> PendingConfigs() const;

  /// Snapshot of the configurations pending at `level` only (C_pending of
  /// that measurement group in Algorithm 2). Same deterministic order.
  std::vector<Configuration> PendingConfigs(int level) const;

  size_t NumPending() const {
    return num_pending_.load(std::memory_order_relaxed);
  }

  /// Version counter bumped on every mutation (Add and pending-set
  /// changes); lets consumers cache fitted surrogates.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Version counter bumped only when measurements are added — consumers
  /// that do not depend on the pending set (fidelity weights, low-fidelity
  /// base surrogates) cache on this instead of version().
  uint64_t data_version() const {
    return data_version_.load(std::memory_order_acquire);
  }

  /// data_version() as of the last Add at `level` in [1, K], 0 before any.
  /// It changes exactly when group(level) does, in-place overwrites
  /// included, so it keys caches of what is fitted on that group alone.
  uint64_t level_version(int level) const EXCLUDES(mu_);

  /// Distinct for every store constructed in this process: with
  /// level_version() it keys a cache exactly even if the cache is handed a
  /// different store.
  uint64_t id() const { return id_; }

 private:
  static constexpr size_t kPendingShards = 16;

  /// One measurement group D_i with its index.
  struct Level {
    std::vector<Measurement> group;
    /// Config hash -> positions in the group (hash collisions resolved by
    /// config equality at those positions).
    std::unordered_map<uint64_t, std::vector<uint32_t>> index;
    /// data_version_ right after the last Add at this level.
    uint64_t version = 0;
  };

  /// Bounds-checks `level` and returns it, lock already held.
  Level& LevelLocked(int level) REQUIRES(mu_);
  const Level& LevelLocked(int level) const REQUIRES(mu_);

  /// One (config, level) entry of the pending multiset. count == 0 marks a
  /// tombstone awaiting compaction.
  struct PendingEntry {
    Configuration config;
    int level = 0;
    int count = 0;
  };

  /// One independently locked shard of the pending multiset. Entries keep
  /// insertion order; by_hash maps config hash -> entry positions. Removal
  /// tombstones the entry (count = 0); Compact() rebuilds both containers
  /// once tombstones dominate, so churn cost stays amortized O(1).
  struct PendingShard {
    mutable Mutex mu{LockRank::kStorePendingShard, "store.pending_shard"};
    std::vector<PendingEntry> entries GUARDED_BY(mu);
    std::unordered_map<uint64_t, std::vector<uint32_t>> by_hash GUARDED_BY(mu);
    /// Tombstoned entries in `entries`.
    size_t dead GUARDED_BY(mu) = 0;
  };

  PendingShard& ShardFor(uint64_t hash) const {
    return shards_[hash % kPendingShards];
  }

  /// Drops tombstones and rebuilds by_hash when they dominate the shard.
  static void MaybeCompact(PendingShard& shard) REQUIRES(shard.mu);

  mutable Mutex mu_{LockRank::kStoreGroups, "store.groups"};
  std::vector<Level> levels_ GUARDED_BY(mu_);  // 0 <-> level 1
  mutable std::array<PendingShard, kPendingShards> shards_;
  std::atomic<size_t> num_pending_{0};
  std::atomic<uint64_t> version_{0};
  std::atomic<uint64_t> data_version_{0};
  const uint64_t id_;
};

}  // namespace hypertune

#endif  // HYPERTUNE_RUNTIME_MEASUREMENT_STORE_H_
