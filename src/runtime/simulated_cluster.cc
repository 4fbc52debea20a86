#include "src/runtime/simulated_cluster.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/calendar_queue.h"
#include "src/common/logging.h"
#include "src/common/rng.h"

namespace hypertune {
namespace {

/// What an event in the simulator's queue resolves to.
enum class EventKind {
  kWorkerDeath,    ///< a worker incarnation's seeded uptime expired
  kWorkerRecover,  ///< a dead worker's downtime expired, it rejoins
  kQuarantineEnd,  ///< a quarantined worker's backoff expired, it rejoins
  kRetryReady,     ///< a requeued job's backoff expired (occupies no worker)
  kComplete,       ///< evaluation finished, report to the scheduler
  kCrash,          ///< worker crashed partway through the attempt
  kTimeout,        ///< watchdog killed the attempt
  kSpeculate,      ///< straggler watchdog: consider duplicating an attempt
};

/// Tie-break rank for events at the same virtual time: worker deaths first
/// (an attempt ending exactly at its worker's death time is lost), then
/// rejoins, then retry timers, then attempt outcomes, then straggler
/// watchdogs. Fault-off queues only ever hold kComplete events, so ordering
/// there collapses to the pre-fault (end_time, job_id) order.
int EventRank(EventKind kind) {
  switch (kind) {
    case EventKind::kWorkerDeath:
      return 0;
    case EventKind::kWorkerRecover:
      return 1;
    case EventKind::kQuarantineEnd:
      return 2;
    case EventKind::kRetryReady:
      return 3;
    case EventKind::kComplete:
      return 4;
    case EventKind::kCrash:
      return 5;
    case EventKind::kTimeout:
      return 6;
    case EventKind::kSpeculate:
      return 7;
  }
  return 8;
}

/// A queued simulator event — 40 bytes, no heap payload. Attempt events
/// (kComplete/kCrash/kTimeout) and kSpeculate carry the epoch of the
/// worker's attempt at push time in `token`; they are stale — skipped
/// without effect — once the worker's epoch moved on (attempt resolved,
/// cancelled, or the worker died), and read their Job from the worker's
/// running slot, which is live exactly as long as the epoch matches.
/// Worker lifecycle events validate `token` against the worker's
/// incarnation instead. kRetryReady events own the only out-of-line
/// payload — the requeued Job, parked in a slab pool slot.
struct SimEvent {
  double end_time = 0.0;
  /// The issuing job for attempt/retry/speculate events (the second
  /// tie-break key); -1 for worker lifecycle events.
  int64_t job_id = -1;
  /// Monotone push counter: the final deterministic tie-break.
  int64_t seq = 0;
  /// Attempt epoch or worker incarnation, depending on `kind`.
  int64_t token = 0;
  int32_t worker = -1;
  EventKind kind = EventKind::kComplete;
  /// Slab slot of the requeued Job (kRetryReady only).
  uint32_t retry_slot = SlabPool<Job>::kInvalidSlot;
};

struct SimEventTime {
  double operator()(const SimEvent& e) const { return e.end_time; }
};

/// Total order "a resolves before b": (end_time, rank, job_id, seq) — the
/// exact inverse of the pre-calendar-queue heap comparator, so the pop
/// sequence (and every golden history) is bit-identical.
struct EarlierEvent {
  bool operator()(const SimEvent& a, const SimEvent& b) const {
    if (a.end_time != b.end_time) return a.end_time < b.end_time;
    const int rank_a = EventRank(a.kind);
    const int rank_b = EventRank(b.kind);
    if (rank_a != rank_b) return rank_a < rank_b;
    if (a.job_id != b.job_id) return a.job_id < b.job_id;
    return a.seq < b.seq;
  }
};

/// Per-worker mechanism state; the ledger owns the rest.
struct WorkerState {
  bool alive = true;
  /// Which life of this worker is current (0 = first); bumped at death.
  int64_t incarnation = 0;
  /// Bumped whenever the worker's running attempt is released (resolution
  /// or cancellation), invalidating queued events of the old attempt.
  int64_t epoch = 0;
  /// Seeded plan for the current incarnation.
  WorkerLifetime lifetime;
};

}  // namespace

RunResult SimulatedCluster::Run(SchedulerInterface* scheduler,
                                const TuningProblem& problem) {
  HT_CHECK(options_.num_workers >= 1) << "need at least one worker";
  double now = 0.0;
  // Trace events are stamped with the virtual clock. The ledger applies
  // the attempt policy and journals every transition before this loop
  // applies it.
  AttemptLedger ledger(options_, options_.worker_faults, options_.speculation,
                       scheduler, problem.max_resource(),
                       [&now] { return now; }, options_.retention);
  Rng straggler_rng(CombineSeeds(options_.seed, 0x5772A667ULL));

  CalendarQueue<SimEvent, SimEventTime, EarlierEvent> queue;
  int64_t next_seq = 0;
  auto push_event = [&](SimEvent event) {
    event.seq = next_seq++;
    queue.Push(event);
  };
  /// Requeued jobs parked on a retry timer, addressed by event.retry_slot.
  SlabPool<Job> retry_slab;

  std::vector<int> idle_workers;
  for (int w = options_.num_workers - 1; w >= 0; --w) idle_workers.push_back(w);
  std::vector<WorkerState> workers(options_.num_workers);

  /// Requeued jobs whose backoff already expired, awaiting an idle worker.
  std::deque<Job> ready_retries;
  /// Retry timers currently pending in the event queue.
  int pending_retry_timers = 0;

  const double budget = options_.time_budget_seconds;
  int64_t events_processed = 0;

  // Seed each worker's first incarnation. Draws nothing (and schedules
  // nothing) when worker faults are off, so fault-off runs stay
  // bit-identical to the pre-fault-domain code path.
  for (int w = 0; w < options_.num_workers; ++w) {
    workers[w].lifetime =
        PlanWorkerLifetime(options_.worker_faults, options_.seed, w, 0);
    if (std::isfinite(workers[w].lifetime.uptime_seconds)) {
      SimEvent death;
      death.end_time = workers[w].lifetime.uptime_seconds;
      death.worker = w;
      death.kind = EventKind::kWorkerDeath;
      death.token = 0;  // incarnation
      push_event(death);
    }
  }

  auto launch = [&](Job job, bool speculative_copy) {
    int worker = idle_workers.back();
    idle_workers.pop_back();

    double cost = problem.EvaluationCost(job.config, job.resource) -
                  problem.EvaluationCost(job.config, job.resume_from);
    cost = std::max(cost, 0.0);
    if (options_.straggler_sigma > 0.0) {
      // Log-normal multiplicative noise, mean-one (mu = -sigma^2/2).
      double sigma = options_.straggler_sigma;
      cost *= straggler_rng.LogNormal(-0.5 * sigma * sigma, sigma);
    }

    AttemptPlan plan =
        PlanAttempt(options_.faults, options_.seed, job, cost,
                    speculative_copy ? kSpeculativeStreamSalt : 0);
    SimEvent flight;
    flight.end_time = now + plan.duration;
    flight.worker = worker;
    flight.job_id = job.job_id;
    flight.kind = plan.failed ? (plan.kind == FailureKind::kCrash
                                    ? EventKind::kCrash
                                    : EventKind::kTimeout)
                              : EventKind::kComplete;
    flight.token = workers[worker].epoch;
    const int level = job.level;
    ledger.Launch(worker, std::move(job), speculative_copy, plan.duration,
                  now);
    push_event(flight);

    // Arm the straggler watchdog for primaries once the level's median is
    // trustworthy. The watchdog goes stale automatically (epoch mismatch)
    // if the attempt resolves first.
    if (!speculative_copy && options_.speculation.enabled()) {
      const double threshold = ledger.StragglerThreshold(level);
      if (std::isfinite(threshold)) {
        SimEvent watchdog;
        watchdog.end_time = now + threshold;
        watchdog.worker = worker;
        watchdog.job_id = flight.job_id;
        watchdog.kind = EventKind::kSpeculate;
        watchdog.token = workers[worker].epoch;
        push_event(watchdog);
      }
    }
  };

  auto try_assign = [&]() {
    while (!idle_workers.empty() && now < budget) {
      // Requeued jobs take priority over fresh scheduler work.
      if (!ready_retries.empty()) {
        Job job = std::move(ready_retries.front());
        ready_retries.pop_front();
        launch(std::move(job), /*speculative_copy=*/false);
        continue;
      }
      std::optional<Job> job = ledger.Decide(now);
      if (!job.has_value()) break;
      launch(*std::move(job), /*speculative_copy=*/false);
    }
  };

  /// Parks a requeued job on a retry timer, or runnable at once.
  auto park = [&](AttemptEnd& end) {
    if (!end.retry.has_value()) return;
    if (end.retry_delay > 0.0) {
      SimEvent timer;
      timer.end_time = now + end.retry_delay;
      timer.job_id = end.retry->job_id;
      timer.kind = EventKind::kRetryReady;
      timer.retry_slot = retry_slab.Acquire(*std::move(end.retry));
      push_event(timer);
      ++pending_retry_timers;
    } else {
      ready_retries.push_back(*std::move(end.retry));
    }
  };

  try_assign();

  // With recoveries enabled the queue never empties (death and rebirth
  // events chain forever), so the run also ends when the ledger has no
  // unresolved job and the scheduler is exhausted.
  while (!queue.empty()) {
    if (ledger.JournalFailed()) break;
    SimEvent flight = queue.PopMin();
    ++events_processed;
    if (flight.end_time > budget) {
      // The earliest remaining event lands past the budget: the run is
      // over. Worker time spent inside the budget by still-running
      // attempts counts as busy; timers and lifecycle events occupy no
      // worker and contribute nothing.
      ledger.ChargeRunning(budget);
      now = budget;
      break;
    }

    now = flight.end_time;

    if (flight.kind == EventKind::kRetryReady) {
      --pending_retry_timers;
      ready_retries.push_back(retry_slab.Take(flight.retry_slot));
      try_assign();
      continue;
    }

    const int w = flight.worker;
    WorkerState& ws = workers[w];

    if (flight.kind == EventKind::kWorkerDeath) {
      if (!ws.alive || ws.incarnation != flight.token) continue;
      if (ledger.Busy(w)) {
        ++ws.epoch;  // orphan the in-flight attempt
      } else if (!ledger.Quarantined(w)) {
        idle_workers.erase(
            std::find(idle_workers.begin(), idle_workers.end(), w));
      }
      AttemptEnd end = ledger.WorkerDeath(w, ws.lifetime.permanent, now);
      park(end);
      ws.alive = false;
      ++ws.incarnation;
      if (!ws.lifetime.permanent) {
        SimEvent rebirth;
        rebirth.end_time = now + ws.lifetime.downtime_seconds;
        rebirth.worker = w;
        rebirth.kind = EventKind::kWorkerRecover;
        rebirth.token = ws.incarnation;
        push_event(rebirth);
      }
    } else if (flight.kind == EventKind::kWorkerRecover) {
      if (ws.alive || ws.incarnation != flight.token) continue;
      ledger.WorkerRecover(w, now);
      ws.alive = true;
      ws.lifetime = PlanWorkerLifetime(options_.worker_faults, options_.seed,
                                       w, ws.incarnation);
      if (std::isfinite(ws.lifetime.uptime_seconds)) {
        SimEvent death;
        death.end_time = now + ws.lifetime.uptime_seconds;
        death.worker = w;
        death.kind = EventKind::kWorkerDeath;
        death.token = ws.incarnation;
        push_event(death);
      }
      idle_workers.push_back(w);
    } else if (flight.kind == EventKind::kQuarantineEnd) {
      if (!ws.alive || !ledger.Quarantined(w) ||
          ws.incarnation != flight.token) {
        continue;
      }
      ledger.QuarantineEnd(w, now);
      idle_workers.push_back(w);
    } else if (flight.kind == EventKind::kSpeculate) {
      // Still the same attempt, still un-duplicated, and a spare worker is
      // idle right now — otherwise the watchdog expires without effect.
      if (ws.epoch != flight.token || !ledger.CanSpeculate(w) ||
          idle_workers.empty()) {
        continue;
      }
      launch(ledger.Speculate(w, now), /*speculative_copy=*/true);
      continue;
    } else {
      // An attempt outcome (kComplete/kCrash/kTimeout). Skip it if the
      // attempt was cancelled or orphaned in the meantime — its worker
      // time was already charged then.
      if (ws.epoch != flight.token) continue;
      ++ws.epoch;
      if (flight.kind != EventKind::kComplete) {
        AttemptEnd end = ledger.Fail(w,
                                     flight.kind == EventKind::kCrash
                                         ? FailureKind::kCrash
                                         : FailureKind::kTimeout,
                                     now);
        park(end);
        if (end.quarantined) {
          SimEvent rejoin;
          rejoin.end_time = now + options_.worker_faults.quarantine_seconds;
          rejoin.worker = w;
          rejoin.kind = EventKind::kQuarantineEnd;
          rejoin.token = ws.incarnation;
          push_event(rejoin);
        } else {
          idle_workers.push_back(w);
        }
      } else {
        const Job& job = ledger.RunningJob(w);
        EvalOutcome outcome = problem.Evaluate(
            job.config, job.resource,
            CombineSeeds(options_.seed, job.config.Hash()));
        EvalResult eval;
        eval.objective = outcome.objective;
        eval.test_objective = outcome.test_objective;
        const int loser = ledger.Complete(w, eval, now);
        if (loser >= 0) {
          ++workers[loser].epoch;
          idle_workers.push_back(loser);
        }
        idle_workers.push_back(w);
        if (ledger.TrialCapReached()) break;
      }
    }
    try_assign();
    // The run ends before the budget once nothing is running or requeued
    // and the scheduler is exhausted (e.g. a single bracket fully drained).
    if (ledger.NoWorkLeft()) break;
  }

  RunResult result = ledger.Finish(std::min(now, budget));
  result.events_processed = events_processed;
  return result;
}

}  // namespace hypertune
