#include "src/runtime/measurement_store.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/logging.h"
#include "src/common/statistics.h"

namespace hypertune {
namespace {

/// Source of MeasurementStore::id(); the first store gets 1.
std::atomic<uint64_t> next_store_id{1};

}  // namespace

MeasurementStore::MeasurementStore(int num_levels)
    : id_(next_store_id.fetch_add(1, std::memory_order_relaxed)) {
  HT_CHECK(num_levels >= 1) << "MeasurementStore requires K >= 1";
  MutexLock lock(mu_);
  levels_.resize(static_cast<size_t>(num_levels));
}

MeasurementStore::Level& MeasurementStore::LevelLocked(int level) {
  HT_CHECK(level >= 1 && level <= static_cast<int>(levels_.size()))
      << "level " << level << " outside [1, " << levels_.size() << "]";
  return levels_[static_cast<size_t>(level - 1)];
}

const MeasurementStore::Level& MeasurementStore::LevelLocked(
    int level) const {
  HT_CHECK(level >= 1 && level <= static_cast<int>(levels_.size()))
      << "level " << level << " outside [1, " << levels_.size() << "]";
  return levels_[static_cast<size_t>(level - 1)];
}

void MeasurementStore::Add(int level, const Configuration& config,
                           double objective) {
  MutexLock lock(mu_);
  Level& stored = LevelLocked(level);
  auto& positions = stored.index[config.Hash()];
  bool overwritten = false;
  for (uint32_t pos : positions) {
    Measurement& m = stored.group[pos];
    if (m.config == config) {
      m.objective = objective;
      overwritten = true;
      break;
    }
  }
  if (!overwritten) {
    positions.push_back(static_cast<uint32_t>(stored.group.size()));
    stored.group.push_back(Measurement{config, objective});
  }
  version_.fetch_add(1, std::memory_order_release);
  stored.version = data_version_.fetch_add(1, std::memory_order_release) + 1;
}

const std::vector<Measurement>& MeasurementStore::group(int level) const {
  MutexLock lock(mu_);
  return LevelLocked(level).group;
}

uint64_t MeasurementStore::level_version(int level) const {
  MutexLock lock(mu_);
  return LevelLocked(level).version;
}

std::vector<size_t> MeasurementStore::GroupSizes() const {
  MutexLock lock(mu_);
  std::vector<size_t> sizes(levels_.size());
  for (size_t i = 0; i < levels_.size(); ++i) {
    sizes[i] = levels_[i].group.size();
  }
  return sizes;
}

size_t MeasurementStore::TotalSize() const {
  MutexLock lock(mu_);
  size_t total = 0;
  for (const Level& l : levels_) total += l.group.size();
  return total;
}

double MeasurementStore::BestObjective(int level) const {
  MutexLock lock(mu_);
  const auto& g = LevelLocked(level).group;
  double best = std::numeric_limits<double>::infinity();
  for (const Measurement& m : g) best = std::min(best, m.objective);
  return best;
}

double MeasurementStore::MedianObjective(int level) const {
  MutexLock lock(mu_);
  const auto& g = LevelLocked(level).group;
  if (g.empty()) return 0.0;
  std::vector<double> ys;
  ys.reserve(g.size());
  for (const Measurement& m : g) ys.push_back(m.objective);
  return Median(std::move(ys));
}

int MeasurementStore::HighestLevelWith(size_t min_count) const {
  MutexLock lock(mu_);
  for (int level = static_cast<int>(levels_.size()); level >= 1; --level) {
    if (levels_[static_cast<size_t>(level - 1)].group.size() >= min_count) {
      return level;
    }
  }
  return 0;
}

bool MeasurementStore::Contains(const Configuration& config) const {
  const uint64_t hash = config.Hash();
  {
    MutexLock lock(mu_);
    for (const Level& stored : levels_) {
      auto it = stored.index.find(hash);
      if (it == stored.index.end()) continue;
      const auto& group = stored.group;
      for (uint32_t pos : it->second) {
        if (group[pos].config == config) return true;
      }
    }
  }
  // Group lock released: at most one lock is ever held.
  PendingShard& shard = ShardFor(hash);
  MutexLock lock(shard.mu);
  auto it = shard.by_hash.find(hash);
  if (it == shard.by_hash.end()) return false;
  for (uint32_t pos : it->second) {
    const PendingEntry& entry = shard.entries[pos];
    if (entry.count > 0 && entry.config == config) return true;
  }
  return false;
}

void MeasurementStore::MaybeCompact(PendingShard& shard) {
  if (shard.dead <= 32 || shard.dead * 2 <= shard.entries.size()) return;
  std::vector<PendingEntry> live;
  live.reserve(shard.entries.size() - shard.dead);
  for (PendingEntry& entry : shard.entries) {
    if (entry.count > 0) live.push_back(std::move(entry));
  }
  shard.entries = std::move(live);
  shard.by_hash.clear();
  for (uint32_t i = 0; i < shard.entries.size(); ++i) {
    shard.by_hash[shard.entries[i].config.Hash()].push_back(i);
  }
  shard.dead = 0;
}

void MeasurementStore::AddPending(const Configuration& config, int level) {
  {
    MutexLock lock(mu_);
    HT_CHECK(level >= 1 && level <= static_cast<int>(levels_.size()))
        << "pending level " << level << " outside [1, " << levels_.size()
        << "]";
  }
  const uint64_t hash = config.Hash();
  PendingShard& shard = ShardFor(hash);
  MutexLock lock(shard.mu);
  auto& positions = shard.by_hash[hash];
  for (uint32_t pos : positions) {
    PendingEntry& entry = shard.entries[pos];
    if (entry.count > 0 && entry.level == level && entry.config == config) {
      ++entry.count;
      num_pending_.fetch_add(1, std::memory_order_relaxed);
      version_.fetch_add(1, std::memory_order_release);
      return;
    }
  }
  positions.push_back(static_cast<uint32_t>(shard.entries.size()));
  shard.entries.push_back(PendingEntry{config, level, 1});
  num_pending_.fetch_add(1, std::memory_order_relaxed);
  version_.fetch_add(1, std::memory_order_release);
}

void MeasurementStore::RemovePending(const Configuration& config, int level) {
  const uint64_t hash = config.Hash();
  PendingShard& shard = ShardFor(hash);
  MutexLock lock(shard.mu);
  auto it = shard.by_hash.find(hash);
  if (it == shard.by_hash.end()) return;
  for (uint32_t pos : it->second) {
    PendingEntry& entry = shard.entries[pos];
    if (entry.count > 0 && entry.level == level && entry.config == config) {
      num_pending_.fetch_sub(1, std::memory_order_relaxed);
      version_.fetch_add(1, std::memory_order_release);
      if (--entry.count == 0) {
        ++shard.dead;
        MaybeCompact(shard);
      }
      return;
    }
  }
}

std::vector<Configuration> MeasurementStore::PendingConfigs() const {
  std::vector<Configuration> out;
  out.reserve(NumPending());
  for (const PendingShard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const PendingEntry& entry : shard.entries) {
      for (int i = 0; i < entry.count; ++i) out.push_back(entry.config);
    }
  }
  return out;
}

std::vector<Configuration> MeasurementStore::PendingConfigs(int level) const {
  std::vector<Configuration> out;
  for (const PendingShard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const PendingEntry& entry : shard.entries) {
      if (entry.level != level) continue;
      for (int i = 0; i < entry.count; ++i) out.push_back(entry.config);
    }
  }
  return out;
}

}  // namespace hypertune
