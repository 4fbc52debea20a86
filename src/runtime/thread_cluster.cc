#include "src/runtime/thread_cluster.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/thread_annotations.h"
#include "src/runtime/attempt_ledger.h"

namespace hypertune {
namespace {

/// Granularity of interruptible sleeps: kill flags and worker death times
/// are checked between slices of this length.
constexpr double kSleepSliceSeconds = 0.001;

/// Everything the worker threads share. Each field below `mu` is guarded
/// by it, so a Clang -Wthread-safety build proves no worker ever touches
/// the ledger or the retry queue off-lock. The scheduler is reachable only
/// through the ledger: the SchedulerInterface serialization contract
/// ("schedulers are NOT internally synchronized; ThreadCluster serializes
/// calls with its own mutex") is thereby enforced at compile time, not
/// just promised in a comment.
struct RunState {
  RunState(const ThreadClusterOptions& options, SchedulerInterface* scheduler,
           double full_resource, std::function<double()> clock)
      : ledger(options, options.worker_faults, options.speculation, scheduler,
               full_resource, std::move(clock)) {}

  Mutex mu{LockRank::kClusterRunState, "cluster.run_state"};
  CondVar cv;
  bool stop GUARDED_BY(mu) = false;
  /// Requeued jobs and the wall time at which their backoff expires.
  std::deque<std::pair<double, Job>> retry_queue GUARDED_BY(mu);
  AttemptLedger ledger GUARDED_BY(mu);
};

}  // namespace

RunResult ThreadCluster::Run(SchedulerInterface* scheduler,
                             const TuningProblem& problem) {
  HT_CHECK(options_.num_workers >= 1) << "need at least one worker";

  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  // Trace timestamps share the trial records' run-relative wall clock (this
  // file's sanctioned steady-clock seam). The contract checker sits inside
  // the serialized ledger section, so it needs no synchronization of its
  // own.
  RunState state(options_, scheduler, problem.max_resource(), elapsed);
  /// Per-worker kill flags: set under the lock when a sibling copy wins,
  /// read lock-free inside sliced sleeps.
  std::vector<std::atomic<bool>> kills(options_.num_workers);

  // Sleeps `seconds` in slices; returns true when the worker's death time
  // passed first. A set kill flag (a sibling copy won) ends the sleep early.
  // Zero-length sleeps always finish: a dead worker is reaped at the top of
  // its pull loop instead.
  auto died_while_sleeping = [&](double seconds, const std::atomic<bool>& kill,
                                 double death_at) {
    double end = elapsed() + seconds;
    for (;;) {
      double remaining = end - elapsed();
      if (remaining <= 0.0 || kill.load()) return false;
      if (elapsed() >= death_at) return true;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(remaining, kSleepSliceSeconds)));
    }
  };

  // Sleeps out a downtime/quarantine window; returns false when the run
  // stopped (budget or stop flag) before the window elapsed. The ledger
  // closes a window the stop cuts short.
  auto wait_out = [&](double seconds) {
    double end = elapsed() + seconds;
    for (;;) {
      if (elapsed() >= options_.time_budget_seconds) return false;
      {
        MutexLock lock(state.mu);
        if (state.stop) return false;
      }
      double remaining = end - elapsed();
      if (remaining <= 0.0) return true;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(remaining, 2 * kSleepSliceSeconds)));
    }
  };

  auto worker_loop = [&](int w) {
    WorkerLifetime lifetime =
        PlanWorkerLifetime(options_.worker_faults, options_.seed, w, 0);
    int64_t incarnation = 0;
    double death_at = lifetime.uptime_seconds;  // +inf when faults are off

    for (;;) {
      Job job;
      bool speculative = false;
      bool died = false;
      AttemptPlan plan;
      {
        MutexLock lock(state.mu);
        for (;;) {
          if (state.ledger.JournalFailed()) state.stop = true;
          if (state.stop || elapsed() >= options_.time_budget_seconds) return;
          if (elapsed() >= death_at) {
            died = true;
            break;
          }
          // Requeued jobs whose backoff expired take priority.
          auto ready = std::find_if(
              state.retry_queue.begin(), state.retry_queue.end(),
              [&](const auto& entry) { return entry.first <= elapsed(); });
          if (ready != state.retry_queue.end()) {
            job = std::move(ready->second);
            state.retry_queue.erase(ready);
            break;
          }
          std::optional<Job> next = state.ledger.Decide(elapsed());
          if (next.has_value()) {
            job = *std::move(next);
            break;
          }
          // No fresh work: duplicate the longest-overdue straggler instead
          // of idling.
          if (options_.speculation.enabled()) {
            const int primary = state.ledger.FindStraggler(elapsed());
            if (primary >= 0) {
              job = state.ledger.Speculate(primary, elapsed());
              speculative = true;
              break;
            }
          }
          if (state.ledger.NoWorkLeft()) {
            state.stop = true;
            state.cv.NotifyAll();
            return;
          }
          // Barrier (or pending backoff): wait for a completion or the
          // budget and retry.
          state.cv.WaitFor(state.mu, 0.002);
        }
        if (died) {
          state.ledger.WorkerDeath(w, lifetime.permanent, elapsed());
        } else {
          double nominal_sleep = 0.0;
          if (options_.cost_sleep_scale > 0.0) {
            double cost = problem.EvaluationCost(job.config, job.resource) -
                          problem.EvaluationCost(job.config, job.resume_from);
            nominal_sleep = std::max(0.0, cost) * options_.cost_sleep_scale;
          }
          plan = PlanAttempt(options_.faults, options_.seed, job, nominal_sleep,
                             speculative ? kSpeculativeStreamSalt : 0);
          kills[w].store(false);
          state.ledger.Launch(w, job, speculative, plan.duration, elapsed());
        }
      }

      AttemptEnd end;
      if (!died) {
        // Evaluate up front (cheap synthetic problems), then sleep out the
        // attempt's planned occupancy; the result is discarded if the
        // attempt is doomed, cancelled, or orphaned.
        EvalOutcome outcome = problem.Evaluate(
            job.config, job.resource,
            CombineSeeds(options_.seed, job.config.Hash()));
        died = died_while_sleeping(plan.duration, kills[w], death_at);
        MutexLock lock(state.mu);
        const double now = elapsed();
        if (died) {
          end = state.ledger.WorkerDeath(w, lifetime.permanent, now);
        } else if (!state.ledger.Busy(w)) {
          // A sibling copy finished first and cancelled this one.
        } else if (plan.failed) {
          end = state.ledger.Fail(w, plan.kind, now);
        } else {
          EvalResult eval;
          eval.objective = outcome.objective;
          eval.test_objective = outcome.test_objective;
          const int loser = state.ledger.Complete(w, eval, now);
          if (loser >= 0) kills[loser].store(true);
          if (state.ledger.TrialCapReached()) state.stop = true;
        }
        if (end.retry.has_value()) {
          state.retry_queue.emplace_back(now + end.retry_delay,
                                         *std::move(end.retry));
        }
      }
      state.cv.NotifyAll();

      if (died) {
        if (lifetime.permanent) return;
        if (!wait_out(lifetime.downtime_seconds)) return;
        {
          MutexLock lock(state.mu);
          state.ledger.WorkerRecover(w, elapsed());
        }
        lifetime = PlanWorkerLifetime(options_.worker_faults, options_.seed, w,
                                      ++incarnation);
        death_at = elapsed() + lifetime.uptime_seconds;
      } else if (end.quarantined) {
        if (!wait_out(options_.worker_faults.quarantine_seconds)) return;
        MutexLock lock(state.mu);
        state.ledger.QuarantineEnd(w, elapsed());
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(options_.num_workers));
  for (int w = 0; w < options_.num_workers; ++w) {
    threads.emplace_back(worker_loop, w);
  }
  for (auto& t : threads) t.join();

  // In-flight evaluations are allowed to finish past the budget, so report
  // the true elapsed time (keeps utilization = busy/capacity <= 1).
  MutexLock lock(state.mu);
  return state.ledger.Finish(elapsed());
}

}  // namespace hypertune
