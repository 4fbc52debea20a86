#ifndef HYPERTUNE_RUNTIME_PROCESS_CLUSTER_H_
#define HYPERTUNE_RUNTIME_PROCESS_CLUSTER_H_

#include <cstdint>
#include <string>

#include "src/problems/problem.h"
#include "src/runtime/attempt_ledger.h"
#include "src/runtime/scheduler_interface.h"

namespace hypertune {

/// Respawn supervision constants. The n-th consecutive death of a slot
/// waits respawn_backoff_seconds * 2^(n-1), capped at
/// kRespawnBackoffCapSeconds, then scaled by a seeded jitter factor uniform
/// in [1 - kRespawnJitter/2, 1 + kRespawnJitter/2] keyed on
/// (seed, worker, incarnation).
inline constexpr double kRespawnBackoffCapSeconds = 1.0;
inline constexpr double kRespawnJitter = 0.25;
/// A slot whose spawns die this many times in a row before completing the
/// hello handshake is declared permanently failed (fail-fast on a broken
/// binary rather than respawn-looping forever).
inline constexpr int kMaxConsecutiveSpawnFailures = 3;

/// Options for the multi-process backend: the shared BackendOptions
/// (wall-clock budget; the observer runs on the driver thread) plus the
/// worker binary and its supervision knobs. The process backend has no
/// worker-fault knobs: real process death replaces the seeded death
/// schedule.
struct ProcessClusterOptions : BackendOptions {
  /// Path to the hypertune_worker binary the driver fork+execs. Required.
  std::string worker_binary;
  /// Problem registry spec (see problems/problem_registry.h) the workers
  /// materialize. Must denote the same problem passed to Run — the driver
  /// only uses its Run argument for max_resource bookkeeping; evaluations
  /// happen in the workers.
  std::string problem_spec;
  /// Worker-side per-evaluation sleep scale (mirrors
  /// ThreadClusterOptions::cost_sleep_scale).
  double cost_sleep_scale = 0.0;

  /// Seconds between worker heartbeat messages.
  double heartbeat_interval_seconds = 0.05;
  /// A worker silent for longer than this is declared lost: SIGKILLed,
  /// its attempt orphaned, and the slot respawned. Must comfortably exceed
  /// the heartbeat interval.
  double heartbeat_timeout_seconds = 2.0;

  /// Base respawn backoff after a worker death (see
  /// kRespawnBackoffCapSeconds).
  double respawn_backoff_seconds = 0.01;

  /// Chaos injection for the supervision tests: when > 0, every N-th
  /// dispatched job is immediately followed by SIGKILL (kill) or SIGSTOP
  /// (stop) of the worker it was sent to. SIGKILL exercises EOF-driven
  /// loss handling; SIGSTOP freezes the whole process — heartbeat thread
  /// included — so only the heartbeat deadline can catch it.
  int64_t chaos_kill_every = 0;
  int64_t chaos_stop_every = 0;
};

/// Multi-process execution backend: the driver fork+execs one
/// hypertune_worker subprocess per worker slot and speaks the framed
/// process protocol (runtime/process_protocol.h) with each over a private
/// socketpair. Scheduling state lives entirely in the driver; workers are
/// stateless evaluators, so any of them can be SIGKILLed at any moment
/// without losing more than the attempt in its hands.
///
/// Supervision: every inbound message refreshes the worker's heartbeat
/// deadline, and a per-worker reader thread turns the socket into an
/// ordered inbox for the single supervisor loop. A worker's death reaches
/// the driver as EOF; the exit status classifies the failure — killed by
/// signal (or by the driver's own heartbeat/watchdog kill) means
/// FailureKind::kWorkerLost and the orphaned attempt is requeued
/// immediately without consuming its retry budget, while a nonzero exit
/// mid-attempt means FailureKind::kCrash and consumes budget. Dead slots
/// respawn under capped exponential backoff with seeded jitter, and a
/// respawn counts as the slot's recovery; slots that repeatedly die before
/// completing the hello handshake are declared permanently failed.
///
/// Faults: FaultOptions::crash_probability draws are resolved driver-side
/// via PlanAttempt (keyed on (seed, job_id, attempt)) and delivered as
/// JobMessage::inject_crash, so a doomed attempt genuinely kills its
/// worker process. timeout_seconds becomes a driver-side wall-clock
/// watchdog: an overdue worker is SIGKILLed and the attempt reported as
/// FailureKind::kTimeout.
///
/// Shutdown drains: kShutdown to every live worker, close, waitpid with a
/// grace window, SIGKILL stragglers, join readers — no zombies, no leaked
/// fds.
class ProcessCluster {
 public:
  explicit ProcessCluster(ProcessClusterOptions options)
      : options_(std::move(options)) {}

  /// Blocks until the budget elapses, the trial cap is hit, the scheduler
  /// is exhausted with no work in flight, or every worker slot failed
  /// permanently.
  RunResult Run(SchedulerInterface* scheduler, const TuningProblem& problem);

  const ProcessClusterOptions& options() const { return options_; }

 private:
  ProcessClusterOptions options_;
};

}  // namespace hypertune

#endif  // HYPERTUNE_RUNTIME_PROCESS_CLUSTER_H_
