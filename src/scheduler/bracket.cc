#include "src/scheduler/bracket.h"

#include <algorithm>
#include <cmath>
#include <iterator>
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
  HT_CHECK(in_flight_ > 0 && r.issued > r.completed)
      << "bracket " << options_.index << ": completion at level " << job.level
      << " without a matching in-flight job";
  ++r.completed;
  --in_flight_;
  r.results.emplace_back(objective, job.config);
  const int32_t node = r.order.Insert(objective);
  HT_CHECK(static_cast<size_t>(node) + 1 == r.results.size())
      << "rung order tree out of sync with results";
  ++r.completed_hash_counts[job.config.Hash()];
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

void Bracket::Snapshot(const std::vector<RungCounts>& base,
                       WireEncoder* enc) const {
  HT_CHECK(base.size() == rungs_.size())
      << "bracket " << options_.index << ": snapshot base has "
      << base.size() << " rungs";
  enc->PutI64(admitted_);
  enc->PutI64(in_flight_);
  for (size_t i = 0; i < rungs_.size(); ++i) {
    const Rung& r = rungs_[i];
    const RungCounts& from = base[i];
    HT_CHECK(from.results <= r.results.size() &&
             from.closed <= r.closed.size() &&
             from.promoted <= r.promotion_log.size())
        << "bracket " << options_.index << ": snapshot base is ahead of rung "
        << r.level;
    enc->PutI64(r.issued);
    if (options_.synchronous) enc->PutI64(r.target);
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
  enc->PutU32(static_cast<uint32_t>(sync_promotions_.size()));
  for (const auto& [config, from_level] : sync_promotions_) {
    EncodeConfiguration(config, enc);
    enc->PutI32(from_level);
  }
}

Status Bracket::Decode(WireDecoder* dec, Delta* out) const {
  Delta delta;
  HT_RETURN_IF_ERROR(dec->GetI64(&delta.admitted));
  HT_RETURN_IF_ERROR(dec->GetI64(&delta.in_flight));
  delta.rungs.resize(rungs_.size());
  int64_t unclaimed = delta.in_flight;  // in flight, not yet in a rung
  for (size_t i = 0; i < rungs_.size(); ++i) {
    const Rung& r = rungs_[i];
    Delta::RungDelta& d = delta.rungs[i];
    uint32_t count;
    HT_RETURN_IF_ERROR(dec->GetI64(&d.issued));
    d.target = r.target;
    if (options_.synchronous) HT_RETURN_IF_ERROR(dec->GetI64(&d.target));
    HT_RETURN_IF_ERROR(dec->GetU32(&count));
    // Resolved members never outnumber issued ones, nor, in a sync rung,
    // issued ones the rung's target; the rest of the issued ones are among
    // the bracket's in-flight jobs.
    const int64_t completed = static_cast<int64_t>(r.results.size()) + count;
    if (completed > d.issued || d.issued - completed > unclaimed ||
        (options_.synchronous && d.issued > d.target)) {
      return Status::InvalidArgument(
          "bracket: rung counters disagree with its results or in-flight "
          "count");
    }
    unclaimed -= d.issued - completed;
    // No reserve: the count comes from the bytes, so storage grows only as
    // results actually decode.
    for (uint32_t j = 0; j < count; ++j) {
      double objective;
      Configuration config;
      HT_RETURN_IF_ERROR(dec->GetF64(&objective));
      HT_RETURN_IF_ERROR(DecodeConfiguration(dec, &config));
      ++d.hash_counts[config.Hash()];
      d.results.emplace_back(objective, std::move(config));
    }

    HT_RETURN_IF_ERROR(dec->GetU32(&count));
    // Each closed node exists once the new results are in, and is still
    // open: before the snapshot, and earlier in it.
    std::vector<bool> closing(static_cast<size_t>(completed));
    for (uint32_t j = 0; j < count; ++j) {
      int32_t node;
      HT_RETURN_IF_ERROR(dec->GetI32(&node));
      const bool open = node >= 0 && node < completed &&
                        !closing[static_cast<size_t>(node)] &&
                        (node >= r.order.size() || r.order.is_open(node));
      if (!open) {
        return Status::InvalidArgument(
            "bracket: snapshot closes a missing or already closed node");
      }
      closing[static_cast<size_t>(node)] = true;
      d.closed.push_back(node);
    }

    HT_RETURN_IF_ERROR(dec->GetU32(&count));
    for (uint32_t j = 0; j < count; ++j) {
      uint64_t hash;
      HT_RETURN_IF_ERROR(dec->GetU64(&hash));
      const bool completed_here = r.completed_hash_counts.count(hash) > 0 ||
                                  d.hash_counts.count(hash) > 0;
      if (!completed_here || r.promoted.count(hash) > 0 ||
          !d.promoted_set.insert(hash).second) {
        return Status::InvalidArgument(
            "bracket: promotion repeated or never completed on its rung");
      }
      d.promoted.push_back(hash);
    }
    delta.counts.push_back(
        {static_cast<uint32_t>(completed),
         static_cast<uint32_t>(r.closed.size() + d.closed.size()),
         static_cast<uint32_t>(r.promotion_log.size() + d.promoted.size())});
  }
  if (delta.admitted < 0 || unclaimed != 0) {
    return Status::InvalidArgument(
        "bracket: counters disagree with its rungs");
  }

  uint32_t num_queued;
  HT_RETURN_IF_ERROR(dec->GetU32(&num_queued));
  for (uint32_t i = 0; i < num_queued; ++i) {
    Configuration config;
    int32_t from_level;
    HT_RETURN_IF_ERROR(DecodeConfiguration(dec, &config));
    HT_RETURN_IF_ERROR(dec->GetI32(&from_level));
    if (!options_.synchronous || from_level < base_level() ||
        from_level >= top_level()) {
      return Status::InvalidArgument(
          "bracket: queued promotion from invalid rung");
    }
    delta.sync_promotions.emplace_back(std::move(config), from_level);
  }
  *out = std::move(delta);
  return Status::Ok();
}

namespace {

/// Appends `from` to `to`, taking its storage whole when `to` is empty (a
/// full image), so applying one holds each result once.
template <typename T>
void AppendAll(std::vector<T> from, std::vector<T>* to) {
  if (to->empty()) {
    to->swap(from);
    return;
  }
  to->insert(to->end(), std::make_move_iterator(from.begin()),
             std::make_move_iterator(from.end()));
}

/// Moves the nodes of `from` into `to`, keeping the larger one's storage
/// (all of a full image's); keys already in `to` stay behind in `from`.
template <typename HashContainer>
void MergeInto(HashContainer& from, HashContainer* to) {
  if (from.size() > to->size()) to->swap(from);
  to->merge(from);
}

}  // namespace

void Bracket::Apply(Delta delta) {
  admitted_ = delta.admitted;
  in_flight_ = delta.in_flight;
  for (size_t i = 0; i < rungs_.size(); ++i) {
    Rung& r = rungs_[i];
    Delta::RungDelta& d = delta.rungs[i];
    r.issued = d.issued;
    r.target = d.target;
    for (const auto& result : d.results) r.order.Insert(result.first);
    AppendAll(std::move(d.results), &r.results);
    r.completed = static_cast<int64_t>(r.results.size());
    HT_CHECK(r.order.size() == r.completed)
        << "rung order tree out of sync with results";
    MergeInto(d.hash_counts, &r.completed_hash_counts);
    for (const auto& [hash, n] : d.hash_counts) {
      r.completed_hash_counts[hash] += n;
    }
    for (int32_t node : d.closed) r.order.Close(node);
    AppendAll(std::move(d.closed), &r.closed);
    MergeInto(d.promoted_set, &r.promoted);
    AppendAll(std::move(d.promoted), &r.promotion_log);
  }
  sync_promotions_ = std::move(delta.sync_promotions);
}

bool Bracket::Complete() const {
  if (!options_.synchronous) return Quiescent();
  for (const Rung& r : rungs_) {
    if (r.completed < r.target) return false;
  }
  return true;
}

}  // namespace hypertune
