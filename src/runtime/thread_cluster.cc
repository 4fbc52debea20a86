#include "src/runtime/thread_cluster.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/thread_annotations.h"
#include "src/runtime/journal.h"
#include "src/runtime/scheduler_contract.h"

namespace hypertune {
namespace {

/// Granularity of interruptible sleeps: kill flags and worker death times
/// are checked between slices of this length.
constexpr double kSleepSliceSeconds = 0.001;

/// Why a sliced sleep ended.
enum class SleepOutcome {
  kFinished,    ///< the full duration elapsed
  kKilled,      ///< the copy's kill flag was set (speculative loser)
  kWorkerDied,  ///< the worker's wall-clock uptime expired mid-attempt
};

/// One job currently executing on some worker(s): the primary copy, plus a
/// speculative duplicate while one races. Guarded by RunState::mu.
struct ActiveAttempt {
  Job job;
  /// Wall time the primary copy started (drives straggler detection).
  double start_time = 0.0;
  /// Copies of this attempt currently executing (1, or 2 while a
  /// speculative duplicate races its primary).
  int live_copies = 1;
  /// A copy already delivered the job's completion or failure; remaining
  /// copies are losers and only settle their accounting.
  bool resolved = false;
  /// Kill flags: slot 0 is the primary copy, slot 1 the duplicate. Written
  /// under the lock, read lock-free inside sliced sleeps.
  std::shared_ptr<std::atomic<bool>> kills[2];
};

/// Everything the worker threads share. Each field below `mu` is guarded
/// by it, so a Clang -Wthread-safety build proves no worker ever touches
/// completion/retry-queue state off-lock. The scheduler is reachable only
/// through the REQUIRES-annotated accessor: the SchedulerInterface
/// serialization contract ("schedulers are NOT internally synchronized;
/// ThreadCluster serializes calls with its own mutex") is thereby enforced
/// at compile time, not just promised in a comment.
struct RunState {
  Mutex mu{LockRank::kClusterRunState, "cluster.run_state"};
  CondVar cv;
  /// Issued jobs not yet completed/abandoned (includes jobs waiting out a
  /// retry backoff).
  int in_flight GUARDED_BY(mu) = 0;
  int64_t completed GUARDED_BY(mu) = 0;
  bool stop GUARDED_BY(mu) = false;
  /// Requeued jobs and the wall time at which their backoff expires.
  std::deque<std::pair<double, Job>> retry_queue GUARDED_BY(mu);
  /// Jobs currently executing, keyed by job_id.
  std::unordered_map<int64_t, ActiveAttempt> active GUARDED_BY(mu);
  /// Job-level failures (crash/timeout) consumed per unresolved job.
  /// Worker loss never registers here, which is how node death avoids
  /// burning the job's retry budget.
  std::unordered_map<int64_t, int> job_failures GUARDED_BY(mu);
  /// Jobs that already used their one speculative duplicate.
  std::unordered_set<int64_t> duplicated_jobs GUARDED_BY(mu);
  /// Sorted completed-attempt durations per fidelity level (running median
  /// for straggler detection).
  std::unordered_map<int, std::vector<double>> level_durations GUARDED_BY(mu);
  /// Accumulated run outcome; workers write it under the completion lock,
  /// the driver moves it out after joining every thread.
  RunResult result GUARDED_BY(mu);

  SchedulerInterface* scheduler() REQUIRES(mu) { return scheduler_; }

  SchedulerInterface* scheduler_ GUARDED_BY(mu) = nullptr;
};

/// Invokes the per-completion observer. The REQUIRES annotation encodes
/// ThreadClusterOptions::observer's documented promise that the callback
/// always runs under the completion lock.
void NotifyObserver([[maybe_unused]] RunState& state,
                    const TrialObserver& observer,
                    const TrialRecord& record) REQUIRES(state.mu) {
  if (observer) observer(record);
}

}  // namespace

RunResult ThreadCluster::Run(SchedulerInterface* scheduler,
                             const TuningProblem& problem) {
  HT_CHECK(options_.num_workers >= 1) << "need at least one worker";

  // The contract audit sits inside the serialized scheduler section, so it
  // needs no synchronization of its own (it is called only through
  // RunState::scheduler(), which requires the lock).
  SchedulerContractChecker contract_checker(scheduler);
  if (options_.check_contract) scheduler = &contract_checker;

  RunState state;
  {
    MutexLock lock(state.mu);
    state.scheduler_ = scheduler;
  }

  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  // Trace timestamps share the trial records' run-relative wall clock (this
  // file's sanctioned steady-clock seam). The installed lambda reads this
  // frame's locals, so it is re-installed as a frozen value before Run
  // returns. Recording consumes no RNG and perturbs no decision.
  Observability* const obs = options_.obs.sink;
  if (obs != nullptr) {
    obs->trace.SetClock(elapsed);
    scheduler->SetObservability(obs);
  }
  // Write-ahead journal: internally synchronized, so workers append
  // concurrently. Appends happen before the transition is applied; hooks
  // consume no RNG and perturb no decision.
  RunJournal* const journal = options_.journal;
  if (journal != nullptr) journal->SetObservability(options_.obs);
  const double full_resource = problem.max_resource();

  // Sleeps `seconds` in slices, aborting early when the copy's kill flag is
  // set or the worker's death time passes. Zero-length sleeps always
  // finish: a dead worker is reaped at the top of its pull loop instead.
  auto sliced_sleep = [&](double seconds, const std::atomic<bool>* kill,
                          double death_at) {
    double end = elapsed() + seconds;
    for (;;) {
      double remaining = end - elapsed();
      if (remaining <= 0.0) return SleepOutcome::kFinished;
      if (kill != nullptr && kill->load()) return SleepOutcome::kKilled;
      if (elapsed() >= death_at) return SleepOutcome::kWorkerDied;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(remaining, kSleepSliceSeconds)));
    }
  };

  // Sleeps out a downtime/quarantine window; returns false when the run
  // stopped (budget or stop flag) before the window elapsed.
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

  auto worker_loop = [&](int worker_id) {
    WorkerLifetime lifetime = PlanWorkerLifetime(options_.worker_faults,
                                                 options_.seed, worker_id, 0);
    int64_t incarnation = 0;
    double death_at = lifetime.uptime_seconds;  // +inf when faults are off
    int consecutive_failures = 0;

    for (;;) {
      Job job;
      bool speculative_copy = false;
      std::shared_ptr<std::atomic<bool>> my_kill;
      bool died_idle = false;
      {
        MutexLock lock(state.mu);
        for (;;) {
          // A failed journal append latches an error; applying further
          // unjournaled transitions would defeat the write-ahead guarantee.
          if (journal != nullptr && !journal->ok()) state.stop = true;
          if (state.stop || elapsed() >= options_.time_budget_seconds) return;
          if (elapsed() >= death_at) {
            died_idle = true;
            break;
          }
          // Requeued jobs whose backoff expired take priority; they are
          // already counted in in_flight.
          auto ready = state.retry_queue.end();
          for (auto it = state.retry_queue.begin();
               it != state.retry_queue.end(); ++it) {
            if (it->first <= elapsed()) {
              ready = it;
              break;
            }
          }
          if (ready != state.retry_queue.end()) {
            job = std::move(ready->second);
            state.retry_queue.erase(ready);
            break;
          }
          std::optional<Job> next = state.scheduler()->NextJob();
          if (next.has_value()) {
            job = *std::move(next);
            if (journal != nullptr) journal->Decision(job, elapsed());
            ++state.in_flight;
            break;
          }
          // No fresh work: duplicate the longest-overdue straggler instead
          // of idling (smallest job_id first, for determinism of choice).
          if (options_.speculation.enabled()) {
            const SpeculationOptions& sp = options_.speculation;
            int64_t straggler = -1;
            for (const auto& [id, entry] : state.active) {
              if (entry.resolved || entry.live_copies != 1) continue;
              if (state.duplicated_jobs.count(id) > 0) continue;
              auto lvl = state.level_durations.find(entry.job.level);
              if (lvl == state.level_durations.end() ||
                  static_cast<int>(lvl->second.size()) < sp.min_samples) {
                continue;
              }
              double median = lvl->second[(lvl->second.size() - 1) / 2];
              if (elapsed() - entry.start_time >
                      sp.speculation_factor * median &&
                  (straggler < 0 || id < straggler)) {
                straggler = id;
              }
            }
            if (straggler >= 0) {
              ActiveAttempt& entry = state.active[straggler];
              if (journal != nullptr) {
                journal->Speculate(straggler, worker_id, elapsed());
              }
              entry.live_copies = 2;
              entry.kills[1] = std::make_shared<std::atomic<bool>>(false);
              state.duplicated_jobs.insert(straggler);
              ++state.result.speculative_attempts;
              if (options_.check_contract) {
                contract_checker.NoteSpeculativeLaunch(entry.job);
              }
              job = entry.job;
              speculative_copy = true;
              my_kill = entry.kills[1];
              break;
            }
          }
          if (state.in_flight == 0 && state.scheduler()->Exhausted()) {
            state.stop = true;
            state.cv.NotifyAll();
            return;
          }
          // Barrier (or pending backoff): wait for a completion or the
          // budget and retry.
          state.cv.WaitFor(state.mu, 0.002);
        }
        if (!died_idle && !speculative_copy) {
          // Register the primary copy of this attempt.
          ActiveAttempt entry;
          entry.job = job;
          entry.start_time = elapsed();
          entry.kills[0] = std::make_shared<std::atomic<bool>>(false);
          my_kill = entry.kills[0];
          state.active[job.job_id] = std::move(entry);
        }
      }

      if (died_idle) {
        if (journal != nullptr) {
          journal->WorkerDeath(worker_id, lifetime.permanent, elapsed());
        }
        {
          MutexLock lock(state.mu);
          ++state.result.worker_deaths;
          if (lifetime.permanent) ++state.result.workers_lost_permanently;
        }
        if (obs != nullptr) {
          TraceEvent e;
          e.kind = TraceKind::kWorkerDeath;
          e.worker = worker_id;
          obs->trace.Record(std::move(e));
          obs->metrics.Increment("workers.deaths");
        }
        state.cv.NotifyAll();
        if (lifetime.permanent) return;
        double down_started = elapsed();
        if (!wait_out(lifetime.downtime_seconds)) return;
        {
          MutexLock lock(state.mu);
          state.result.worker_down_seconds += elapsed() - down_started;
        }
        if (journal != nullptr) journal->WorkerRecover(worker_id, elapsed());
        if (obs != nullptr) {
          TraceEvent e;
          e.kind = TraceKind::kWorkerRecover;
          e.worker = worker_id;
          obs->trace.Record(std::move(e));
          obs->metrics.Increment("workers.recoveries");
        }
        ++incarnation;
        lifetime = PlanWorkerLifetime(options_.worker_faults, options_.seed,
                                      worker_id, incarnation);
        death_at = elapsed() + lifetime.uptime_seconds;
        consecutive_failures = 0;
        continue;
      }

      if (obs != nullptr) {
        TraceEvent e;
        e.kind = speculative_copy ? TraceKind::kSpeculativeLaunch
                                  : TraceKind::kJobLaunch;
        e.worker = worker_id;
        e.job_id = job.job_id;
        e.level = job.level;
        e.bracket = job.bracket;
        e.attempt = job.attempt;
        e.speculative = speculative_copy;
        obs->trace.Record(std::move(e));
        obs->metrics.Increment(speculative_copy ? "speculation.launched"
                                                : "jobs.launched");
      }

      double job_start = elapsed();
      double nominal_sleep = 0.0;
      if (options_.cost_sleep_scale > 0.0) {
        double cost = problem.EvaluationCost(job.config, job.resource) -
                      problem.EvaluationCost(job.config, job.resume_from);
        nominal_sleep = std::max(0.0, cost) * options_.cost_sleep_scale;
      }
      AttemptPlan plan =
          PlanAttempt(options_.faults, options_.seed, job, nominal_sleep,
                      speculative_copy ? kSpeculativeStreamSalt : 0);
      if (journal != nullptr) {
        journal->Launch(job.job_id, job.attempt, worker_id, speculative_copy,
                        plan.duration, job_start);
      }

      // Evaluate up front (cheap synthetic problems), then sleep out the
      // attempt's planned occupancy; the result is discarded if the attempt
      // is doomed, cancelled, or orphaned.
      uint64_t noise_seed = CombineSeeds(options_.seed, job.config.Hash());
      EvalOutcome outcome =
          problem.Evaluate(job.config, job.resource, noise_seed);

      SleepOutcome slept =
          sliced_sleep(plan.duration, my_kill.get(), death_at);
      double job_end = elapsed();
      double burned = job_end - job_start;
      bool worker_died = slept == SleepOutcome::kWorkerDied;
      bool job_level_failure = false;

      {
        MutexLock lock(state.mu);
        auto it = state.active.find(job.job_id);
        ActiveAttempt* entry =
            it != state.active.end() ? &it->second : nullptr;
        bool resolved_by_sibling = entry != nullptr && entry->resolved;
        bool sibling_live = entry != nullptr && entry->live_copies > 1;
        // Copy retirement (inlined below after each outcome): decrement the
        // entry's live_copies and erase it once no copy references it.

        state.result.busy_seconds += burned;

        if (resolved_by_sibling || slept == SleepOutcome::kKilled) {
          // We lost the speculation race (cancelled, or finished after the
          // sibling delivered). Accounting only: the winner already
          // reported the job and retired the duplicate with the checker.
          state.result.speculative_wasted_seconds += burned;
          ++state.result.speculative_losses;
          if (obs != nullptr) {
            TraceEvent e;
            e.kind = TraceKind::kSpeculativeCopyLost;
            e.worker = worker_id;
            e.job_id = job.job_id;
            e.level = job.level;
            e.attempt = job.attempt;
            e.speculative = speculative_copy;
            e.value = burned;
            obs->trace.Record(std::move(e));
            obs->metrics.Increment("speculation.losses");
          }
          if (entry != nullptr && --entry->live_copies <= 0) {
            state.active.erase(it);
          }
        } else if (worker_died) {
          if (journal != nullptr) {
            journal->WorkerDeath(worker_id, lifetime.permanent, job_end);
          }
          ++state.result.worker_deaths;
          if (lifetime.permanent) ++state.result.workers_lost_permanently;
          if (obs != nullptr) {
            TraceEvent e;
            e.kind = TraceKind::kWorkerDeath;
            e.worker = worker_id;
            obs->trace.Record(std::move(e));
            obs->metrics.Increment("workers.deaths");
          }
          if (sibling_live) {
            // This copy dies silently; its sibling keeps racing.
            state.result.speculative_wasted_seconds += burned;
            ++state.result.speculative_losses;
            if (obs != nullptr) {
              TraceEvent e;
              e.kind = TraceKind::kSpeculativeCopyLost;
              e.worker = worker_id;
              e.job_id = job.job_id;
              e.level = job.level;
              e.attempt = job.attempt;
              e.speculative = speculative_copy;
              e.value = burned;
              obs->trace.Record(std::move(e));
              obs->metrics.Increment("speculation.losses");
            }
            if (options_.check_contract) {
              contract_checker.NoteSpeculativeCopyLost(job);
            }
            if (entry != nullptr && --entry->live_copies <= 0) {
              state.active.erase(it);
            }
          } else {
            // Orphaned attempt: worker-lost, requeued immediately, budget
            // untouched.
            state.result.wasted_seconds += burned;
            ++state.result.failed_attempts;
            ++state.result.worker_lost_attempts;
            if (obs != nullptr) {
              TraceEvent e;
              e.kind = TraceKind::kJobFailed;
              e.worker = worker_id;
              e.job_id = job.job_id;
              e.level = job.level;
              e.bracket = job.bracket;
              e.attempt = job.attempt;
              e.speculative = speculative_copy;
              e.name = FailureKindName(FailureKind::kWorkerLost);
              e.value = burned;
              obs->trace.Record(std::move(e));
              obs->metrics.Increment("jobs.failed_attempts");
            }
            int prior = 0;
            auto fit = state.job_failures.find(job.job_id);
            if (fit != state.job_failures.end()) prior = fit->second;
            FailureInfo info;
            info.kind = FailureKind::kWorkerLost;
            info.attempt = job.attempt;
            info.retries_remaining =
                std::max(0, options_.faults.max_retries - prior);
            info.wasted_seconds = burned;
            info.worker = worker_id;
            if (journal != nullptr) {
              journal->Failed(job.job_id, job.attempt,
                              FailureKind::kWorkerLost, worker_id, burned,
                              job_end);
            }
            if (state.scheduler()->OnJobFailed(job, info)) {
              ++state.result.retries;
              Job next_attempt = job;
              ++next_attempt.attempt;
              if (journal != nullptr) {
                journal->Requeue(job.job_id, next_attempt.attempt, job_end,
                                 job_end);
              }
              if (obs != nullptr) {
                TraceEvent e;
                e.kind = TraceKind::kJobRequeued;
                e.job_id = job.job_id;
                e.level = job.level;
                e.attempt = next_attempt.attempt;
                e.name = FailureKindName(FailureKind::kWorkerLost);
                obs->trace.Record(std::move(e));
                obs->metrics.Increment("jobs.requeued");
              }
              state.retry_queue.emplace_back(elapsed(),
                                             std::move(next_attempt));
            } else {
              if (journal != nullptr) {
                journal->Abandon(job.job_id, job.attempt, job_end);
              }
              ++state.result.failed_trials;
              if (obs != nullptr) {
                TraceEvent e;
                e.kind = TraceKind::kJobAbandoned;
                e.job_id = job.job_id;
                e.level = job.level;
                e.attempt = job.attempt;
                e.name = FailureKindName(FailureKind::kWorkerLost);
                obs->trace.Record(std::move(e));
                obs->metrics.Increment("jobs.abandoned");
              }
              TrialRecord record;
              record.job = job;
              record.result.cost_seconds = burned;
              record.start_time = job_start;
              record.end_time = job_end;
              record.worker = worker_id;
              record.failure_kind = FailureKind::kWorkerLost;
              state.result.history.RecordFailure(record);
              --state.in_flight;
              state.job_failures.erase(job.job_id);
            }
            if (entry != nullptr && --entry->live_copies <= 0) {
              state.active.erase(it);
            }
          }
        } else if (plan.failed) {
          job_level_failure = true;
          if (sibling_live) {
            // A copy crashed while its sibling races on: silent loss (the
            // scheduler hears nothing, no retry budget is consumed), but
            // the worker's failure streak still counts toward quarantine.
            state.result.speculative_wasted_seconds += burned;
            ++state.result.speculative_losses;
            if (obs != nullptr) {
              TraceEvent e;
              e.kind = TraceKind::kSpeculativeCopyLost;
              e.worker = worker_id;
              e.job_id = job.job_id;
              e.level = job.level;
              e.attempt = job.attempt;
              e.speculative = speculative_copy;
              e.value = burned;
              obs->trace.Record(std::move(e));
              obs->metrics.Increment("speculation.losses");
            }
            if (options_.check_contract) {
              contract_checker.NoteSpeculativeCopyLost(job);
            }
            if (entry != nullptr && --entry->live_copies <= 0) {
              state.active.erase(it);
            }
          } else {
            state.result.wasted_seconds += burned;
            ++state.result.failed_attempts;
            if (plan.kind == FailureKind::kCrash) {
              ++state.result.crash_attempts;
            } else {
              ++state.result.timeout_attempts;
            }
            if (obs != nullptr) {
              TraceEvent e;
              e.kind = TraceKind::kJobFailed;
              e.worker = worker_id;
              e.job_id = job.job_id;
              e.level = job.level;
              e.bracket = job.bracket;
              e.attempt = job.attempt;
              e.speculative = speculative_copy;
              e.name = FailureKindName(plan.kind);
              e.value = burned;
              obs->trace.Record(std::move(e));
              obs->metrics.Increment("jobs.failed_attempts");
            }
            int prior = 0;
            auto fit = state.job_failures.find(job.job_id);
            if (fit != state.job_failures.end()) prior = fit->second;
            FailureInfo info;
            info.kind = plan.kind;
            info.attempt = job.attempt;
            info.retries_remaining =
                std::max(0, options_.faults.max_retries - prior);
            info.wasted_seconds = burned;
            info.worker = worker_id;
            if (journal != nullptr) {
              journal->Failed(job.job_id, job.attempt, plan.kind, worker_id,
                              burned, job_end);
            }
            if (state.scheduler()->OnJobFailed(job, info)) {
              ++state.result.retries;
              state.job_failures[job.job_id] = prior + 1;
              Job next_attempt = job;
              ++next_attempt.attempt;
              double ready_at =
                  elapsed() + RetryDelay(options_.faults, options_.seed, job);
              if (journal != nullptr) {
                journal->Requeue(job.job_id, next_attempt.attempt, ready_at,
                                 job_end);
              }
              if (obs != nullptr) {
                TraceEvent e;
                e.kind = TraceKind::kJobRequeued;
                e.job_id = job.job_id;
                e.level = job.level;
                e.attempt = next_attempt.attempt;
                e.name = FailureKindName(plan.kind);
                obs->trace.Record(std::move(e));
                obs->metrics.Increment("jobs.requeued");
              }
              state.retry_queue.emplace_back(ready_at,
                                             std::move(next_attempt));
            } else {
              if (journal != nullptr) {
                journal->Abandon(job.job_id, job.attempt, job_end);
              }
              ++state.result.failed_trials;
              if (obs != nullptr) {
                TraceEvent e;
                e.kind = TraceKind::kJobAbandoned;
                e.job_id = job.job_id;
                e.level = job.level;
                e.attempt = job.attempt;
                e.name = FailureKindName(plan.kind);
                obs->trace.Record(std::move(e));
                obs->metrics.Increment("jobs.abandoned");
              }
              TrialRecord record;
              record.job = job;
              record.result.cost_seconds = burned;
              record.start_time = job_start;
              record.end_time = job_end;
              record.worker = worker_id;
              record.failure_kind = plan.kind;
              state.result.history.RecordFailure(record);
              --state.in_flight;
              state.job_failures.erase(job.job_id);
            }
            if (entry != nullptr && --entry->live_copies <= 0) {
              state.active.erase(it);
            }
          }
        } else {
          // First finisher wins: deliver the result, cancel a still-racing
          // sibling via its kill flag (the loser settles its own
          // accounting when it wakes).
          EvalResult eval;
          eval.objective = outcome.objective;
          eval.test_objective = outcome.test_objective;
          eval.cost_seconds = burned;

          if (journal != nullptr) {
            journal->Complete(job, eval, worker_id, job_start, job_end);
          }

          TrialRecord record;
          record.job = job;
          record.result = eval;
          record.start_time = job_start;
          record.end_time = job_end;
          record.worker = worker_id;
          record.speculative = speculative_copy;
          state.result.history.Record(record,
                                      job.resource >= full_resource);
          NotifyObserver(state, options_.observer, record);
          if (speculative_copy) ++state.result.speculative_wins;
          if (obs != nullptr) {
            TraceEvent e;
            e.kind = TraceKind::kJobComplete;
            e.worker = worker_id;
            e.job_id = job.job_id;
            e.level = job.level;
            e.bracket = job.bracket;
            e.attempt = job.attempt;
            e.speculative = speculative_copy;
            e.value = eval.objective;
            obs->trace.Record(std::move(e));
            obs->metrics.Increment("jobs.completed");
            if (speculative_copy) obs->metrics.Increment("speculation.wins");
            obs->metrics.Observe("trial.duration_seconds", burned);
          }

          state.scheduler()->OnJobComplete(job, eval);
          if (entry != nullptr) {
            entry->resolved = true;
            if (sibling_live) {
              int sibling_slot = speculative_copy ? 0 : 1;
              if (entry->kills[sibling_slot] != nullptr) {
                entry->kills[sibling_slot]->store(true);
              }
              if (options_.check_contract) {
                contract_checker.NoteSpeculativeCopyLost(job);
              }
            }
            if (entry != nullptr && --entry->live_copies <= 0) {
              state.active.erase(it);
            }
          }
          state.job_failures.erase(job.job_id);
          auto& durations = state.level_durations[job.level];
          durations.insert(
              std::upper_bound(durations.begin(), durations.end(), burned),
              burned);
          consecutive_failures = 0;
          --state.in_flight;
          ++state.completed;
          if (journal != nullptr) {
            journal->MaybeCheckpoint(*state.scheduler(), state.completed,
                                     job_end);
          }
          if (options_.max_trials > 0 &&
              state.completed >= options_.max_trials) {
            state.stop = true;
          }
        }
      }
      state.cv.NotifyAll();

      if (worker_died) {
        if (lifetime.permanent) return;
        double down_started = elapsed();
        if (!wait_out(lifetime.downtime_seconds)) return;
        {
          MutexLock lock(state.mu);
          state.result.worker_down_seconds += elapsed() - down_started;
        }
        if (journal != nullptr) journal->WorkerRecover(worker_id, elapsed());
        if (obs != nullptr) {
          TraceEvent e;
          e.kind = TraceKind::kWorkerRecover;
          e.worker = worker_id;
          obs->trace.Record(std::move(e));
          obs->metrics.Increment("workers.recoveries");
        }
        ++incarnation;
        lifetime = PlanWorkerLifetime(options_.worker_faults, options_.seed,
                                      worker_id, incarnation);
        death_at = elapsed() + lifetime.uptime_seconds;
        consecutive_failures = 0;
        continue;
      }

      if (job_level_failure) {
        ++consecutive_failures;
        const WorkerFaultOptions& wf = options_.worker_faults;
        if (wf.quarantine_failures > 0 && wf.quarantine_seconds > 0.0 &&
            consecutive_failures >= wf.quarantine_failures) {
          consecutive_failures = 0;
          if (journal != nullptr) {
            journal->QuarantineBegin(worker_id,
                                     elapsed() + wf.quarantine_seconds,
                                     elapsed());
          }
          {
            MutexLock lock(state.mu);
            ++state.result.quarantines;
          }
          if (obs != nullptr) {
            TraceEvent e;
            e.kind = TraceKind::kQuarantineBegin;
            e.worker = worker_id;
            e.value = wf.quarantine_seconds;
            obs->trace.Record(std::move(e));
            obs->metrics.Increment("workers.quarantines");
          }
          double down_started = elapsed();
          if (!wait_out(wf.quarantine_seconds)) return;
          {
            MutexLock lock(state.mu);
            state.result.worker_down_seconds += elapsed() - down_started;
          }
          if (journal != nullptr) journal->QuarantineEnd(worker_id, elapsed());
          if (obs != nullptr) {
            TraceEvent e;
            e.kind = TraceKind::kQuarantineEnd;
            e.worker = worker_id;
            obs->trace.Record(std::move(e));
          }
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(options_.num_workers));
  for (int w = 0; w < options_.num_workers; ++w) {
    threads.emplace_back(worker_loop, w);
  }
  for (auto& t : threads) t.join();

  RunResult result;
  {
    MutexLock lock(state.mu);
    result = std::move(state.result);
  }
  // In-flight evaluations are allowed to finish past the budget, so report
  // the true elapsed time (keeps utilization = busy/capacity <= 1).
  result.elapsed_seconds = elapsed();
  result.Finalize(options_.num_workers);
  if (journal != nullptr && journal->ok()) journal->RunEnd(result);
  if (obs != nullptr) {
    obs->metrics.SetGauge("run.elapsed_seconds", result.elapsed_seconds);
    obs->metrics.SetGauge("run.busy_seconds", result.busy_seconds);
    obs->metrics.SetGauge("run.utilization", result.utilization);
    // Freeze the clock: the installed lambda reads this frame's locals.
    obs->trace.SetClock([t = result.elapsed_seconds] { return t; });
  }
  return result;
}

}  // namespace hypertune
