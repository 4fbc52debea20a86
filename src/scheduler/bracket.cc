#include "src/scheduler/bracket.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/logging.h"

namespace hypertune {

double ResourceLadder::ResourceAt(int level) const {
  HT_CHECK(level >= 1 && level <= num_levels)
      << "level " << level << " outside ladder [1, " << num_levels << "]";
  return max_resource * std::pow(eta, level - num_levels);
}

std::vector<double> ResourceLadder::LevelResources() const {
  std::vector<double> out(static_cast<size_t>(num_levels));
  for (int k = 1; k <= num_levels; ++k) {
    out[static_cast<size_t>(k - 1)] = ResourceAt(k);
  }
  return out;
}

ResourceLadder ResourceLadder::Make(double min_resource, double max_resource,
                                    double eta, int max_levels) {
  HT_CHECK(eta > 1.0) << "eta must exceed 1";
  HT_CHECK(min_resource > 0.0 && max_resource >= min_resource)
      << "invalid resource range";
  ResourceLadder ladder;
  ladder.eta = eta;
  ladder.max_resource = max_resource;
  int k = 1 + static_cast<int>(std::floor(
                  std::log(max_resource / min_resource) / std::log(eta) +
                  1e-9));
  if (max_levels > 0) k = std::min(k, max_levels);
  ladder.num_levels = std::max(k, 1);
  return ladder;
}

Bracket::Bracket(const BracketOptions& options) : options_(options) {
  HT_CHECK(options_.index >= 1 && options_.index <= top_level())
      << "bracket index outside [1, K]";
  const int base = base_level();
  const int levels = top_level() - base + 1;
  rungs_.resize(static_cast<size_t>(levels));

  int64_t width = options_.base_quota > 0 ? options_.base_quota
                                          : DefaultWidth();
  if (options_.synchronous) {
    base_quota_ = width;
    int64_t n = width;
    for (int i = 0; i < levels; ++i) {
      rungs_[static_cast<size_t>(i)].level = base + i;
      rungs_[static_cast<size_t>(i)].target = std::max<int64_t>(n, 1);
      n = n / static_cast<int64_t>(options_.ladder.eta);
      if (n < 1 && i + 1 < levels) n = 1;
    }
  } else {
    base_quota_ = options_.base_quota > 0 ? options_.base_quota : -1;
    for (int i = 0; i < levels; ++i) {
      rungs_[static_cast<size_t>(i)].level = base + i;
      rungs_[static_cast<size_t>(i)].target = 0;  // unused in async mode
    }
  }
}

int64_t Bracket::DefaultWidth() const {
  // n1 = ceil(K / (s + 1) * eta^s) with s = K - b halvings remaining.
  const int k = top_level();
  const int s = k - options_.index;
  double n1 = std::ceil(static_cast<double>(k) / static_cast<double>(s + 1) *
                        std::pow(options_.ladder.eta, s));
  return static_cast<int64_t>(n1);
}

Bracket::Rung& Bracket::rung(int level) {
  HT_CHECK(level >= base_level() && level <= top_level())
      << "rung level out of range";
  return rungs_[static_cast<size_t>(level - base_level())];
}

const Bracket::Rung& Bracket::rung(int level) const {
  HT_CHECK(level >= base_level() && level <= top_level())
      << "rung level out of range";
  return rungs_[static_cast<size_t>(level - base_level())];
}

bool Bracket::WantsNewConfig() const {
  if (base_quota_ < 0) return true;
  return admitted_ < base_quota_;
}

Job Bracket::MakeJob(const Configuration& config, int level,
                     int64_t job_id) const {
  Job job;
  job.job_id = job_id;
  job.config = config;
  job.level = level;
  job.resource = options_.ladder.ResourceAt(level);
  job.resume_from =
      level > base_level() ? options_.ladder.ResourceAt(level - 1) : 0.0;
  job.bracket = options_.index;
  return job;
}

Job Bracket::AdmitConfig(const Configuration& config, int64_t job_id) {
  HT_CHECK(WantsNewConfig()) << "bracket quota exhausted";
  ++admitted_;
  Rung& r = rung(base_level());
  ++r.issued;
  ++in_flight_;
  return MakeJob(config, base_level(), job_id);
}

std::optional<Job> Bracket::NextPromotion(int64_t job_id) {
  if (options_.synchronous) {
    if (sync_promotions_.empty()) return std::nullopt;
    auto [config, from_level] = sync_promotions_.front();
    sync_promotions_.pop_front();
    Rung& next = rung(from_level + 1);
    ++next.issued;
    ++in_flight_;
    return MakeJob(config, from_level + 1, job_id);
  }
  return FindAsyncPromotion(job_id);
}

std::optional<Job> Bracket::FindAsyncPromotion(int64_t job_id) {
  const double eta = options_.ladder.eta;
  // Algorithm 1: scan from the highest promotable level downwards.
  for (int k = top_level() - 1; k >= base_level(); --k) {
    Rung& cur = rung(k);
    if (cur.completed == 0) continue;
    int64_t eligible =
        static_cast<int64_t>(static_cast<double>(cur.completed) / eta);
    if (eligible <= 0) continue;

    if (options_.delayed_promotion) {
      // Condition 2 (delay): |D_k| / (|D_{k+1}| + 1) >= eta, where the next
      // level counts issued evaluations so racing proposals are throttled.
      const Rung& next = rung(k + 1);
      if (static_cast<double>(cur.completed) /
              static_cast<double>(next.issued + 1) <
          eta) {
        continue;
      }
    }

    // Top 1/eta of completed results not yet promoted. The rank tree keeps
    // completions in ascending objective order with consumed (or
    // duplicate-hash) nodes closed, so the candidate is the best open node —
    // O(log n) — instead of a fresh sort-and-scan of the whole rung. A
    // closed node is permanently skippable: its hash is in `promoted`, which
    // the scan below would always skip anyway.
    while (true) {
      const int32_t node = cur.order.KthOpen(0);
      if (node < 0) break;
      if (cur.order.RankOf(node) >= eligible) break;
      const Configuration& candidate =
          cur.results[static_cast<size_t>(node)].second;
      const uint64_t hash = candidate.Hash();
      cur.order.Close(node);
      cur.closed.push_back(node);
      if (!cur.promoted.insert(hash).second) continue;  // duplicate completion
      cur.promotion_log.push_back(hash);
      Rung& next = rung(k + 1);
      ++next.issued;
      ++in_flight_;
      return MakeJob(candidate, k + 1, job_id);
    }
  }
  return std::nullopt;
}

void Bracket::MaybeQueueSyncPromotions(int level) {
  if (level >= top_level()) return;  // nothing above the top rung
  Rung& cur = rung(level);
  if (cur.completed < cur.target) return;

  Rung& next = rung(level + 1);
  int64_t to_promote = next.target;
  // Walk the top ranks of the rung's order tree (stable ascending by
  // objective) — O(log n) per rank instead of sorting the whole rung.
  for (int64_t rank = 0; rank < to_promote && rank < cur.order.size();
       ++rank) {
    const int32_t node = cur.order.Kth(rank);
    const Configuration& candidate =
        cur.results[static_cast<size_t>(node)].second;
    const uint64_t hash = candidate.Hash();
    if (!cur.promoted.insert(hash).second) continue;
    cur.promotion_log.push_back(hash);
    sync_promotions_.emplace_back(candidate, level);
  }

  // Promotions into the next rung come exclusively from this rung's queue,
  // and a completed rung queues exactly once — so everything the next rung
  // will ever receive is what was already issued plus what sits in the
  // queue. Failures (or duplicate survivors) can leave that short of the
  // planned rung width; shrink the width so the barrier drains around the
  // missing members, cascading when the shrink completes the next rung too
  // (the degenerate case: every member of this rung failed, the next rung's
  // width drops to zero, and the whole bracket unwinds).
  int64_t reachable = next.issued;
  for (const auto& [config, from] : sync_promotions_) {
    if (from == level) ++reachable;
  }
  if (reachable < next.target) {
    next.target = reachable;
    MaybeQueueSyncPromotions(level + 1);
  }
}

void Bracket::OnJobComplete(const Job& job, double objective) {
  Rung& r = rung(job.level);
  ++r.completed;
  --in_flight_;
  r.results.emplace_back(objective, job.config);
  const int32_t node = r.order.Insert(objective);
  HT_CHECK(static_cast<size_t>(node) + 1 == r.results.size())
      << "rung order tree out of sync with results";
  ++r.completed_hash_counts[job.config.Hash()];
  HT_CHECK(r.completed <= r.issued) << "rung accounting corrupted";
  if (options_.synchronous) MaybeQueueSyncPromotions(job.level);
}

void Bracket::OnJobAbandoned(const Job& job) {
  Rung& r = rung(job.level);
  HT_CHECK(in_flight_ > 0 && r.issued > r.completed)
      << "abandonment without a matching in-flight job";
  --r.issued;
  --in_flight_;
  if (options_.synchronous) {
    // The rung permanently lost a member: one fewer completion can ever
    // arrive, so one fewer is required for the barrier to clear. The
    // abandonment itself may be what completes the rung.
    r.target = std::max(r.target - 1, r.completed);
    MaybeQueueSyncPromotions(job.level);
  }
}

void Bracket::CheckInvariants() const {
  int64_t in_flight_sum = 0;
  for (const Rung& r : rungs_) {
    HT_CHECK(r.completed >= 0 && r.completed <= r.issued)
        << "bracket " << options_.index << " rung " << r.level
        << ": completed " << r.completed << " exceeds issued " << r.issued;
    HT_CHECK(static_cast<int64_t>(r.results.size()) == r.completed)
        << "bracket " << options_.index << " rung " << r.level << ": "
        << r.results.size() << " results but " << r.completed
        << " completions";
    if (options_.synchronous) {
      HT_CHECK(r.target >= r.completed)
          << "bracket " << options_.index << " rung " << r.level
          << ": target " << r.target << " below resolved members "
          << r.completed;
      HT_CHECK(r.issued <= r.target)
          << "bracket " << options_.index << " rung " << r.level
          << ": issued " << r.issued << " beyond target " << r.target;
    }
    HT_CHECK(r.order.size() == r.completed)
        << "bracket " << options_.index << " rung " << r.level
        << ": order tree holds " << r.order.size() << " nodes but "
        << r.completed << " completions";
    // Incremental audit: each promotion is checked against the completed
    // multiset exactly once, on the first call after it happened — O(new
    // promotions) amortized instead of rebuilding a hash set per call.
    for (; r.audited < r.promotion_log.size(); ++r.audited) {
      auto it = r.completed_hash_counts.find(r.promotion_log[r.audited]);
      HT_CHECK(it != r.completed_hash_counts.end() && it->second > 0)
          << "bracket " << options_.index << " rung " << r.level
          << ": promoted a configuration that never completed on the rung";
    }
    in_flight_sum += r.issued - r.completed;
  }
  HT_CHECK(in_flight_sum == in_flight_)
      << "bracket " << options_.index << ": in-flight counter " << in_flight_
      << " disagrees with per-rung accounting " << in_flight_sum;
  for (const auto& [config, from_level] : sync_promotions_) {
    HT_CHECK(from_level >= base_level() && from_level < top_level())
        << "bracket " << options_.index
        << ": queued promotion from invalid rung " << from_level;
  }
}

int64_t Bracket::CompletedAt(int level) const { return rung(level).completed; }

int64_t Bracket::IssuedAt(int level) const { return rung(level).issued; }

bool Bracket::Quiescent() const {
  if (WantsNewConfig()) return false;
  if (in_flight_ > 0) return false;
  if (options_.synchronous) return sync_promotions_.empty();
  // Async: quiescent when a promotion scan would come up empty. This
  // replicates FindAsyncPromotion's eligibility test without committing.
  const double eta = options_.ladder.eta;
  for (int k = top_level() - 1; k >= base_level(); --k) {
    const Rung& cur = rung(k);
    int64_t eligible =
        static_cast<int64_t>(static_cast<double>(cur.completed) / eta);
    if (eligible <= 0) continue;
    if (options_.delayed_promotion) {
      const Rung& next = rung(k + 1);
      if (static_cast<double>(cur.completed) /
              static_cast<double>(next.issued + 1) <
          eta) {
        continue;
      }
    }
    // Mirror FindAsyncPromotion without committing: walk the open nodes in
    // ascending-objective order; an open node with an un-promoted hash
    // inside the eligible prefix means a promotion is available. Open nodes
    // whose hash was already promoted (duplicate completions) are skipped,
    // exactly as the committing scan would close-and-continue them.
    for (int64_t j = 0;; ++j) {
      const int32_t node = cur.order.KthOpen(j);
      if (node < 0) break;
      if (cur.order.RankOf(node) >= eligible) break;
      const uint64_t hash =
          cur.results[static_cast<size_t>(node)].second.Hash();
      if (cur.promoted.count(hash) == 0) return false;
    }
  }
  return true;
}

int64_t Bracket::decision_work() const {
  int64_t total = 0;
  for (const Rung& r : rungs_) total += r.order.steps();
  return total;
}

void Bracket::Snapshot(WireEncoder* enc) const {
  enc->PutI64(admitted_);
  enc->PutI64(in_flight_);
  enc->PutU32(static_cast<uint32_t>(rungs_.size()));
  for (const Rung& r : rungs_) {
    enc->PutI64(r.target);
    enc->PutI64(r.issued);
    enc->PutI64(r.completed);
    enc->PutU32(static_cast<uint32_t>(r.results.size()));
    for (size_t i = 0; i < r.results.size(); ++i) {
      enc->PutF64(r.results[i].first);
      EncodeConfiguration(r.results[i].second, enc);
      enc->PutBool(!r.order.is_open(static_cast<int32_t>(i)));
    }
    enc->PutU32(static_cast<uint32_t>(r.promotion_log.size()));
    for (uint64_t hash : r.promotion_log) enc->PutU64(hash);
  }
  enc->PutU32(static_cast<uint32_t>(sync_promotions_.size()));
  for (const auto& [config, from_level] : sync_promotions_) {
    EncodeConfiguration(config, enc);
    enc->PutI32(from_level);
  }
}

Status Bracket::Restore(WireDecoder* dec) {
  int64_t admitted;
  int64_t in_flight;
  uint32_t num_rungs;
  HT_RETURN_IF_ERROR(dec->GetI64(&admitted));
  HT_RETURN_IF_ERROR(dec->GetI64(&in_flight));
  HT_RETURN_IF_ERROR(dec->GetU32(&num_rungs));
  if (admitted < 0 || in_flight < 0) {
    return Status::InvalidArgument("bracket: negative counter in snapshot");
  }
  if (num_rungs != rungs_.size()) {
    return Status::InvalidArgument(
        "bracket: snapshot rung count does not match this bracket's ladder");
  }
  std::vector<Rung> rungs(rungs_.size());
  uint64_t in_flight_sum = 0;  // wraps, rather than overflows, on garbage
  for (size_t ri = 0; ri < rungs.size(); ++ri) {
    Rung& r = rungs[ri];
    r.level = rungs_[ri].level;
    uint32_t num_results;
    HT_RETURN_IF_ERROR(dec->GetI64(&r.target));
    HT_RETURN_IF_ERROR(dec->GetI64(&r.issued));
    HT_RETURN_IF_ERROR(dec->GetI64(&r.completed));
    HT_RETURN_IF_ERROR(dec->GetU32(&num_results));
    if (static_cast<int64_t>(num_results) != r.completed ||
        r.completed > r.issued || r.completed < 0) {
      return Status::InvalidArgument("bracket: inconsistent rung counters");
    }
    // No reserve: the count comes from the bytes, so storage grows only as
    // results actually decode.
    std::vector<bool> closed;
    for (uint32_t i = 0; i < num_results; ++i) {
      double objective;
      Configuration config;
      bool was_closed;
      HT_RETURN_IF_ERROR(dec->GetF64(&objective));
      HT_RETURN_IF_ERROR(DecodeConfiguration(dec, &config));
      HT_RETURN_IF_ERROR(dec->GetBool(&was_closed));
      r.results.emplace_back(objective, std::move(config));
      closed.push_back(was_closed);
    }
    // Rebuild the order tree by re-inserting completions in completion
    // order (node id == results index, as OnJobComplete guarantees), then
    // re-close the consumed nodes.
    for (uint32_t i = 0; i < num_results; ++i) {
      const int32_t node = r.order.Insert(r.results[i].first);
      if (static_cast<uint32_t>(node) != i) {
        return Status::Internal("bracket: order tree rebuild out of sync");
      }
      ++r.completed_hash_counts[r.results[i].second.Hash()];
    }
    for (uint32_t i = 0; i < num_results; ++i) {
      if (!closed[i]) continue;
      r.order.Close(static_cast<int32_t>(i));
      r.closed.push_back(static_cast<int32_t>(i));
    }
    uint32_t num_promoted;
    HT_RETURN_IF_ERROR(dec->GetU32(&num_promoted));
    for (uint32_t i = 0; i < num_promoted; ++i) {
      uint64_t hash;
      HT_RETURN_IF_ERROR(dec->GetU64(&hash));
      if (r.completed_hash_counts.count(hash) == 0 ||
          !r.promoted.insert(hash).second) {
        return Status::InvalidArgument(
            "bracket: promoted hash repeated or never completed on its rung");
      }
      r.promotion_log.push_back(hash);
    }
    in_flight_sum += static_cast<uint64_t>(r.issued - r.completed);
  }
  if (in_flight_sum != static_cast<uint64_t>(in_flight)) {
    return Status::InvalidArgument(
        "bracket: in-flight counter disagrees with its rungs");
  }
  uint32_t num_queued;
  HT_RETURN_IF_ERROR(dec->GetU32(&num_queued));
  std::deque<std::pair<Configuration, int>> queued;
  for (uint32_t i = 0; i < num_queued; ++i) {
    Configuration config;
    int32_t from_level;
    HT_RETURN_IF_ERROR(DecodeConfiguration(dec, &config));
    HT_RETURN_IF_ERROR(dec->GetI32(&from_level));
    if (from_level < base_level() || from_level >= top_level()) {
      return Status::InvalidArgument(
          "bracket: queued promotion from invalid rung");
    }
    queued.emplace_back(std::move(config), from_level);
  }
  admitted_ = admitted;
  in_flight_ = in_flight;
  rungs_ = std::move(rungs);
  sync_promotions_ = std::move(queued);
  return Status::Ok();
}

std::vector<Bracket::RungCounts> Bracket::Counts() const {
  std::vector<RungCounts> counts;
  counts.reserve(rungs_.size());
  for (const Rung& r : rungs_) {
    counts.push_back({static_cast<uint32_t>(r.results.size()),
                      static_cast<uint32_t>(r.closed.size()),
                      static_cast<uint32_t>(r.promotion_log.size())});
  }
  return counts;
}

void Bracket::SnapshotDelta(const std::vector<RungCounts>& base,
                            WireEncoder* enc) const {
  HT_CHECK(!options_.synchronous && base.size() == rungs_.size())
      << "bracket " << options_.index << ": deltas are for async brackets";
  enc->PutI64(admitted_);
  enc->PutI64(in_flight_);
  for (size_t i = 0; i < rungs_.size(); ++i) {
    const Rung& r = rungs_[i];
    const RungCounts& from = base[i];
    HT_CHECK(from.results <= r.results.size() &&
             from.closed <= r.closed.size() &&
             from.promoted <= r.promotion_log.size())
        << "bracket " << options_.index << ": delta base is ahead of rung "
        << r.level;
    enc->PutI64(r.issued);
    enc->PutU32(static_cast<uint32_t>(r.results.size() - from.results));
    for (size_t j = from.results; j < r.results.size(); ++j) {
      enc->PutF64(r.results[j].first);
      EncodeConfiguration(r.results[j].second, enc);
    }
    enc->PutU32(static_cast<uint32_t>(r.closed.size() - from.closed));
    for (size_t j = from.closed; j < r.closed.size(); ++j) {
      enc->PutI32(r.closed[j]);
    }
    enc->PutU32(static_cast<uint32_t>(r.promotion_log.size() - from.promoted));
    for (size_t j = from.promoted; j < r.promotion_log.size(); ++j) {
      enc->PutU64(r.promotion_log[j]);
    }
  }
}

Status Bracket::DecodeDelta(WireDecoder* dec,
                            const std::vector<RungCounts>& after,
                            Delta* out) const {
  if (options_.synchronous || after.size() != rungs_.size()) {
    return Status::InvalidArgument(
        "bracket: delta does not match this bracket's mode or ladder");
  }
  Delta delta;
  HT_RETURN_IF_ERROR(dec->GetI64(&delta.admitted));
  HT_RETURN_IF_ERROR(dec->GetI64(&delta.in_flight));
  delta.rungs.resize(rungs_.size());
  uint64_t in_flight_sum = 0;  // wraps, rather than overflows, on garbage
  for (size_t i = 0; i < rungs_.size(); ++i) {
    const Rung& r = rungs_[i];
    Delta::RungDelta& d = delta.rungs[i];
    uint32_t count;
    HT_RETURN_IF_ERROR(dec->GetI64(&d.issued));
    HT_RETURN_IF_ERROR(dec->GetU32(&count));
    const int64_t completed = after[i].results;
    if (r.results.size() + count != after[i].results || completed > d.issued) {
      return Status::InvalidArgument(
          "bracket: delta results do not extend the rung consistently");
    }
    in_flight_sum += static_cast<uint64_t>(d.issued - completed);
    std::unordered_set<uint64_t> new_hashes;
    for (uint32_t j = 0; j < count; ++j) {
      double objective;
      Configuration config;
      HT_RETURN_IF_ERROR(dec->GetF64(&objective));
      HT_RETURN_IF_ERROR(DecodeConfiguration(dec, &config));
      new_hashes.insert(config.Hash());
      d.results.emplace_back(objective, std::move(config));
    }

    HT_RETURN_IF_ERROR(dec->GetU32(&count));
    if (r.closed.size() + count != after[i].closed) {
      return Status::InvalidArgument(
          "bracket: delta closes a different number of rung nodes");
    }
    std::unordered_set<int32_t> new_closed;
    for (uint32_t j = 0; j < count; ++j) {
      int32_t node;
      HT_RETURN_IF_ERROR(dec->GetI32(&node));
      // Each closed node exists once the delta's results are in, and is
      // still open: before the delta, and earlier in it.
      const bool open =
          node >= 0 && node < static_cast<int64_t>(after[i].results) &&
          (node >= r.order.size() || r.order.is_open(node)) &&
          new_closed.insert(node).second;
      if (!open) {
        return Status::InvalidArgument(
            "bracket: delta closes a missing or already closed node");
      }
      d.closed.push_back(node);
    }

    HT_RETURN_IF_ERROR(dec->GetU32(&count));
    if (r.promotion_log.size() + count != after[i].promoted) {
      return Status::InvalidArgument(
          "bracket: delta promotes a different number of configurations");
    }
    std::unordered_set<uint64_t> new_promoted;
    for (uint32_t j = 0; j < count; ++j) {
      uint64_t hash;
      HT_RETURN_IF_ERROR(dec->GetU64(&hash));
      const bool completed = r.completed_hash_counts.count(hash) > 0 ||
                             new_hashes.count(hash) > 0;
      if (!completed || r.promoted.count(hash) > 0 ||
          !new_promoted.insert(hash).second) {
        return Status::InvalidArgument(
            "bracket: delta promotion repeated or never completed on its "
            "rung");
      }
      d.promoted.push_back(hash);
    }
  }
  if (delta.admitted < 0 ||
      static_cast<uint64_t>(delta.in_flight) != in_flight_sum) {
    return Status::InvalidArgument(
        "bracket: delta counters disagree with its rungs");
  }
  *out = std::move(delta);
  return Status::Ok();
}

void Bracket::ApplyDelta(Delta delta) {
  admitted_ = delta.admitted;
  in_flight_ = delta.in_flight;
  for (size_t i = 0; i < rungs_.size(); ++i) {
    Rung& r = rungs_[i];
    Delta::RungDelta& d = delta.rungs[i];
    r.issued = d.issued;
    for (auto& result : d.results) {
      const int32_t node = r.order.Insert(result.first);
      HT_CHECK(static_cast<size_t>(node) == r.results.size())
          << "rung order tree out of sync with results";
      ++r.completed_hash_counts[result.second.Hash()];
      r.results.push_back(std::move(result));
    }
    r.completed = static_cast<int64_t>(r.results.size());
    for (int32_t node : d.closed) {
      r.order.Close(node);
      r.closed.push_back(node);
    }
    for (uint64_t hash : d.promoted) {
      r.promoted.insert(hash);
      r.promotion_log.push_back(hash);
    }
  }
}

bool Bracket::Complete() const {
  if (!options_.synchronous) return Quiescent();
  for (const Rung& r : rungs_) {
    if (r.completed < r.target) return false;
  }
  return true;
}

}  // namespace hypertune
