#include "src/runtime/process_cluster.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/thread_annotations.h"
#include "src/runtime/attempt_ledger.h"
#include "src/runtime/fault_injector.h"
#include "src/runtime/process_protocol.h"

namespace hypertune {
namespace {

/// Supervisor poll granularity: the longest the driver sleeps on its inbox
/// before rechecking deadlines (heartbeats, watchdogs, retry backoffs).
constexpr double kPollSeconds = 0.01;

/// Grace window the drain gives workers between the shutdown frame and
/// SIGKILL.
constexpr double kDrainGraceSeconds = 2.0;

/// One inbound event from a worker's reader thread: a protocol frame, or
/// EOF (the single entry point for worker-loss handling).
struct InboxMessage {
  int worker = -1;
  int64_t incarnation = 0;
  bool eof = false;
  std::string payload;
};

/// The only state shared between the supervisor and the reader threads.
/// Readers push under the inbox lock; the supervisor drains under it and
/// does everything else — scheduler calls, journal, slot bookkeeping —
/// single-threaded outside it.
struct Inbox {
  Mutex mu{LockRank::kProcessInbox, "process.inbox"};
  CondVar cv;
  std::deque<InboxMessage> messages GUARDED_BY(mu);

  void Push(InboxMessage msg) EXCLUDES(mu) {
    MutexLock lock(mu);
    messages.push_back(std::move(msg));
    cv.NotifyOne();
  }

  /// Moves out every queued message, waiting up to `timeout_seconds` for
  /// the first one.
  std::vector<InboxMessage> Drain(double timeout_seconds) EXCLUDES(mu) {
    MutexLock lock(mu);
    if (messages.empty() && timeout_seconds > 0.0) {
      cv.WaitFor(mu, timeout_seconds);
    }
    std::vector<InboxMessage> out(
        std::make_move_iterator(messages.begin()),
        std::make_move_iterator(messages.end()));
    messages.clear();
    return out;
  }
};

/// Driver-side view of one worker slot across its process incarnations.
/// Touched only by the supervisor thread; the attempt it runs lives in the
/// ledger.
struct WorkerSlot {
  int id = -1;
  pid_t pid = -1;
  int fd = -1;
  int64_t incarnation = 0;
  bool alive = false;
  bool hello_seen = false;
  bool permanently_failed = false;
  std::thread reader;

  /// Wall time (run-relative) of the last inbound message.
  double last_heartbeat = 0.0;
  /// Set when the driver itself decided to kill the process (heartbeat
  /// miss, watchdog timeout); classifies the EOF that follows.
  bool kill_pending = false;
  FailureKind pending_kill_kind = FailureKind::kWorkerLost;

  /// Deaths since the last completed hello handshake (fail-fast counter).
  int prehello_deaths = 0;
  /// Deaths since the last hello (backoff counter; reset on hello).
  int consecutive_deaths = 0;
  /// Respawn due time for a dead slot.
  double respawn_at = 0.0;
};

}  // namespace

RunResult ProcessCluster::Run(SchedulerInterface* scheduler,
                              const TuningProblem& problem) {
  HT_CHECK(options_.num_workers >= 1) << "need at least one worker";
  HT_CHECK(!options_.worker_binary.empty())
      << "ProcessClusterOptions::worker_binary is required";
  HT_CHECK(!options_.problem_spec.empty())
      << "ProcessClusterOptions::problem_spec is required";

  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  // Every ledger call, and so every scheduler call, happens on this (the
  // supervisor) thread, so the contract audit needs no synchronization.
  AttemptLedger ledger(options_, WorkerFaultOptions{}, SpeculationOptions{},
                       scheduler, problem.max_resource(), elapsed);
  Observability* const obs = options_.obs.sink;

  Inbox inbox;
  std::vector<WorkerSlot> slots(static_cast<size_t>(options_.num_workers));
  std::deque<std::pair<double, Job>> retry_queue;  // (ready_at, job)
  int64_t dispatched = 0;
  bool stop = false;

  // Worker argv is identical across slots except the worker id; the
  // stable pieces are formatted once.
  const std::string seed_arg = std::to_string(options_.seed);
  const std::string sleep_arg = std::to_string(options_.cost_sleep_scale);
  const std::string beat_arg =
      std::to_string(options_.heartbeat_interval_seconds);

  auto spawn = [&](WorkerSlot& slot) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
      slot.permanently_failed = true;
      HT_LOG(kError) << "process backend: socketpair failed for worker "
                    << slot.id;
      return;
    }
    ++slot.incarnation;
    const std::string id_arg = std::to_string(slot.id);
    // execv wants mutable char*; the strings outlive the child's exec.
    std::string argv0 = options_.worker_binary;
    std::string spec = options_.problem_spec;
    std::string a1 = id_arg, a3 = seed_arg, a4 = sleep_arg, a5 = beat_arg;
    char* argv[] = {argv0.data(), a1.data(), spec.data(),
                    a3.data(),    a4.data(), a5.data(),
                    nullptr};
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      slot.permanently_failed = true;
      HT_LOG(kError) << "process backend: fork failed for worker " << slot.id;
      return;
    }
    if (pid == 0) {
      // Child. Only async-signal-safe calls until exec. dup2 onto fd 3
      // clears CLOEXEC on the duplicate, so exactly one end survives exec.
      ::dup2(fds[1], 3);
      ::execv(argv[0], argv);
      ::_exit(127);
    }
    ::close(fds[1]);
    slot.pid = pid;
    slot.fd = fds[0];
    slot.alive = true;
    slot.hello_seen = false;
    slot.kill_pending = false;
    slot.last_heartbeat = elapsed();
    const int worker = slot.id;
    const int fd = slot.fd;
    const int64_t inc = slot.incarnation;
    slot.reader = std::thread([fd, worker, inc, &inbox] {
      for (;;) {
        InboxMessage msg;
        msg.worker = worker;
        msg.incarnation = inc;
        if (!ReadFrame(fd, &msg.payload).ok()) {
          msg.eof = true;
          msg.payload.clear();
          inbox.Push(std::move(msg));
          return;
        }
        inbox.Push(std::move(msg));
      }
    });
    if (obs != nullptr) {
      TraceEvent e;
      e.kind = TraceKind::kProcessSpawn;
      e.worker = worker;
      e.value = static_cast<double>(pid);
      obs->trace.Record(std::move(e));
      obs->metrics.Increment("process.spawns");
      if (inc > 1) obs->metrics.Increment("process.respawns");
    }
    // A respawn is the slot's recovery: it closes the down window its
    // death opened.
    if (inc > 1) ledger.WorkerRecover(worker, slot.last_heartbeat);
  };

  // Reaps a dead worker after its EOF: joins the reader, classifies the
  // exit, hands the orphaned attempt to the ledger, and schedules the
  // respawn.
  auto handle_death = [&](WorkerSlot& slot) {
    if (slot.reader.joinable()) slot.reader.join();
    int status = 0;
    ::waitpid(slot.pid, &status, 0);
    ::close(slot.fd);
    slot.fd = -1;
    const double now = elapsed();

    FailureKind kind = FailureKind::kWorkerLost;
    const char* cause = "signal";
    if (slot.kill_pending) {
      kind = slot.pending_kill_kind;
      cause = kind == FailureKind::kTimeout ? "watchdog" : "heartbeat";
    } else if (WIFSIGNALED(status)) {
      kind = FailureKind::kWorkerLost;
      cause = "signal";
    } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
      // A nonzero self-exit mid-attempt is the worker's own fault — the
      // injected-crash path and real evaluation aborts land here.
      kind = FailureKind::kCrash;
      cause = "exit";
    } else {
      cause = "clean";
    }

    const bool prehello = !slot.hello_seen;
    if (prehello) ++slot.prehello_deaths;
    ++slot.consecutive_deaths;
    slot.permanently_failed =
        slot.permanently_failed ||
        (prehello && slot.prehello_deaths >= kMaxConsecutiveSpawnFailures);

    if (obs != nullptr) {
      TraceEvent e;
      e.kind = TraceKind::kProcessExit;
      e.worker = slot.id;
      e.name = cause;
      e.value = static_cast<double>(slot.pid);
      obs->trace.Record(std::move(e));
      obs->metrics.Increment("process.exits");
    }
    AttemptEnd end =
        ledger.WorkerDeath(slot.id, slot.permanently_failed, now, kind);
    if (end.retry.has_value()) {
      retry_queue.emplace_back(now + end.retry_delay, *std::move(end.retry));
    }

    slot.alive = false;
    slot.kill_pending = false;
    slot.pid = -1;
    if (!slot.permanently_failed) {
      const int exponent =
          std::min(slot.consecutive_deaths - 1, 16);  // overflow guard
      double backoff = options_.respawn_backoff_seconds *
                       std::pow(2.0, static_cast<double>(exponent));
      backoff = std::min(backoff, kRespawnBackoffCapSeconds);
      Rng rng(CombineSeeds(
          CombineSeeds(options_.seed, static_cast<uint64_t>(slot.id)),
          static_cast<uint64_t>(slot.incarnation)));
      backoff *= 1.0 + kRespawnJitter * (rng.Uniform() - 0.5);
      slot.respawn_at = now + backoff;
    }
  };

  for (int i = 0; i < options_.num_workers; ++i) {
    slots[static_cast<size_t>(i)].id = i;
    spawn(slots[static_cast<size_t>(i)]);
  }

  while (!stop) {
    const double now = elapsed();
    if (ledger.JournalFailed()) break;
    if (now >= options_.time_budget_seconds) break;

    bool any_usable = false;
    for (WorkerSlot& slot : slots) {
      // Respawn dead slots whose backoff expired.
      if (!slot.alive && !slot.permanently_failed && slot.respawn_at <= now) {
        spawn(slot);
      }
      if (!slot.permanently_failed) any_usable = true;
      if (!slot.alive) continue;

      // Heartbeat supervision: a silent worker — frozen, wedged, or
      // SIGSTOPped — is declared lost and killed; the EOF that follows
      // completes the handling.
      if (!slot.kill_pending &&
          now - slot.last_heartbeat > options_.heartbeat_timeout_seconds) {
        slot.kill_pending = true;
        slot.pending_kill_kind = FailureKind::kWorkerLost;
        if (obs != nullptr) {
          TraceEvent e;
          e.kind = TraceKind::kHeartbeatMiss;
          e.worker = slot.id;
          e.value = now - slot.last_heartbeat;
          obs->trace.Record(std::move(e));
          obs->metrics.Increment("process.heartbeat_misses");
        }
        ::kill(slot.pid, SIGKILL);
        continue;
      }
      const bool busy = ledger.Busy(slot.id);
      // Per-attempt watchdog (FaultOptions::timeout_seconds, wall clock).
      if (!slot.kill_pending && busy && options_.faults.timeout_seconds > 0.0 &&
          now - ledger.StartTime(slot.id) > options_.faults.timeout_seconds) {
        slot.kill_pending = true;
        slot.pending_kill_kind = FailureKind::kTimeout;
        ::kill(slot.pid, SIGKILL);
        continue;
      }

      // Dispatch one job to an idle, healthy worker: expired retries
      // first, then a fresh scheduler decision.
      if (busy || !slot.hello_seen || slot.kill_pending) continue;
      Job job;
      auto ready = std::find_if(
          retry_queue.begin(), retry_queue.end(),
          [now](const auto& entry) { return entry.first <= now; });
      if (ready != retry_queue.end()) {
        job = std::move(ready->second);
        retry_queue.erase(ready);
      } else {
        std::optional<Job> next = ledger.Decide(now);
        if (!next.has_value()) continue;
        job = *std::move(next);
      }

      // Crash injection is decided driver-side (seeded, keyed on
      // (seed, job_id, attempt)) and delivered in the job frame.
      AttemptPlan plan = PlanAttempt(options_.faults, options_.seed, job,
                                     /*nominal_duration=*/0.0);
      JobMessage msg;
      msg.inject_crash = plan.failed && plan.kind == FailureKind::kCrash;
      msg.job = std::move(job);
      ledger.Launch(slot.id, msg.job, /*speculative=*/false, 0.0, now);
      // A write failure means the worker died; its EOF handles the rest.
      (void)WriteFrame(slot.fd, EncodeJobMessage(msg));

      ++dispatched;
      if (options_.chaos_kill_every > 0 &&
          dispatched % options_.chaos_kill_every == 0) {
        ::kill(slot.pid, SIGKILL);  // chaos: hard loss mid-attempt
      } else if (options_.chaos_stop_every > 0 &&
                 dispatched % options_.chaos_stop_every == 0) {
        ::kill(slot.pid, SIGSTOP);  // chaos: freeze; heartbeat must catch
      }
    }

    if (!any_usable) break;  // every slot failed permanently
    if (ledger.NoWorkLeft()) break;

    for (InboxMessage& msg : inbox.Drain(kPollSeconds)) {
      WorkerSlot& slot = slots[static_cast<size_t>(msg.worker)];
      if (msg.incarnation != slot.incarnation) continue;  // stale reader
      if (msg.eof) {
        handle_death(slot);
        continue;
      }
      const double msg_now = elapsed();
      slot.last_heartbeat = msg_now;
      ProcessMessage type;
      if (!ProcessMessageTypeOf(msg.payload, &type).ok()) continue;
      if (type == ProcessMessage::kHello) {
        slot.hello_seen = true;
        slot.prehello_deaths = 0;
        slot.consecutive_deaths = 0;
      } else if (type == ProcessMessage::kResult) {
        ResultMessage res;
        if (!DecodeResultMessage(msg.payload, &res).ok()) continue;
        if (!ledger.Busy(slot.id) ||
            ledger.RunningJob(slot.id).job_id != res.job.job_id ||
            ledger.RunningJob(slot.id).attempt != res.job.attempt) {
          continue;  // stale result from before a kill decision
        }
        ledger.Complete(slot.id, res.result, msg_now);
        if (ledger.TrialCapReached()) {
          stop = true;
          break;
        }
      }
      // Heartbeats only refresh the deadline; driver-to-worker tags are
      // ignored if echoed.
    }
  }

  // Drain: running attempts are cut off (the ledger truncates them in the
  // trace), a shutdown frame goes to every live worker, a grace window,
  // SIGKILL for stragglers (SIGKILL also terminates SIGSTOPped processes),
  // then reap and join everything.
  ledger.ChargeRunning(elapsed());
  for (WorkerSlot& slot : slots) {
    if (slot.alive) (void)WriteFrame(slot.fd, EncodeShutdown());
  }
  const double drain_start = elapsed();
  for (WorkerSlot& slot : slots) {
    if (!slot.alive) continue;
    for (;;) {
      int status = 0;
      const pid_t reaped = ::waitpid(slot.pid, &status, WNOHANG);
      if (reaped == slot.pid || reaped < 0) break;
      if (elapsed() - drain_start > kDrainGraceSeconds) {
        ::kill(slot.pid, SIGKILL);
        ::waitpid(slot.pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    slot.alive = false;
  }
  for (WorkerSlot& slot : slots) {
    if (slot.reader.joinable()) slot.reader.join();
    if (slot.fd >= 0) {
      ::close(slot.fd);
      slot.fd = -1;
    }
  }
  return ledger.Finish(elapsed());
}

}  // namespace hypertune
