#ifndef HYPERTUNE_RUNTIME_PROCESS_PROTOCOL_H_
#define HYPERTUNE_RUNTIME_PROCESS_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/runtime/job.h"
#include "src/runtime/wire_format.h"

namespace hypertune {

/// Wire protocol between the ProcessCluster supervisor and its
/// hypertune_worker subprocesses.
///
/// Each direction of the per-worker socketpair carries framed records in
/// the repository's standard framing (see runtime/wire_format.h):
///
///   frame := [u32 payload_len][u32 crc32(payload)][payload bytes]
///
/// with a tag-first payload, exactly like the write-ahead journal — so a
/// half-written frame from a SIGKILL'd worker is detected by CRC, never
/// misparsed. The protocol is deliberately small: the driver owns all
/// scheduling state and pushes one job at a time to an idle worker; the
/// worker owns nothing but the evaluation in its hands.
///
///   driver -> worker:  kJob, kShutdown
///   worker -> driver:  kHello (once, after exec), kHeartbeat (periodic),
///                      kResult
///
/// Liveness is message-driven: any inbound frame refreshes the worker's
/// heartbeat deadline, and the kHeartbeat message exists so an evaluation
/// that legitimately takes a while (or an idle worker) still proves the
/// process is alive. Loss is EOF-driven: a dead worker's socket reads EOF,
/// which is the supervisor's single entry point for failure handling.

/// Tag byte identifying each protocol message (first payload byte).
/// Values are part of the wire contract; append, never renumber.
enum class ProcessMessage : uint8_t {
  kHello = 1,
  kHeartbeat = 2,
  kResult = 3,
  // 4 was a clean in-process failure message no worker ever sent; it
  // stays unassigned.
  kJob = 5,
  kShutdown = 6,
};

/// Stable lowercase identifier ("hello", "heartbeat", ...).
const char* ProcessMessageName(ProcessMessage type);

/// Reads the tag byte of a protocol message payload.
[[nodiscard]]
Status ProcessMessageTypeOf(const std::string& payload, ProcessMessage* out);

/// First message a worker sends after exec: identity proof that the spawn
/// produced a live, protocol-speaking process.
struct HelloMessage {
  int32_t worker = -1;
  int64_t pid = 0;
};

/// Periodic liveness beacon, sent by the worker's heartbeat thread every
/// heartbeat interval whether or not an evaluation is running.
struct HeartbeatMessage {
  int32_t worker = -1;
  int64_t sequence = 0;
};

/// A finished evaluation: the job echoed back plus its measured outcome.
struct ResultMessage {
  Job job;
  EvalResult result;
};

/// One evaluation assignment. `inject_crash` is the fault-injection seam:
/// the worker calls _exit(kCrashExitCode) mid-attempt instead of
/// evaluating, simulating a hard worker crash for the chaos tests.
struct JobMessage {
  Job job;
  bool inject_crash = false;
};

/// Exit status a worker uses for an injected crash (JobMessage) — the
/// supervisor classifies it as FailureKind::kCrash, consuming retry budget.
inline constexpr int kCrashExitCode = 3;
/// Exit status for a worker that could not start (bad argv, unknown
/// problem spec, exec failure) — never classified as a job failure.
inline constexpr int kStartupFailureExitCode = 2;

std::string EncodeHello(const HelloMessage& msg);
[[nodiscard]] Status DecodeHello(const std::string& payload,
                                 HelloMessage* out);

std::string EncodeHeartbeat(const HeartbeatMessage& msg);
[[nodiscard]] Status DecodeHeartbeat(const std::string& payload,
                                     HeartbeatMessage* out);

std::string EncodeResultMessage(const ResultMessage& msg);
[[nodiscard]] Status DecodeResultMessage(const std::string& payload,
                                         ResultMessage* out);

std::string EncodeJobMessage(const JobMessage& msg);
[[nodiscard]] Status DecodeJobMessage(const std::string& payload,
                                      JobMessage* out);

std::string EncodeShutdown();

/// Writes one payload to `fd`, framed by AppendRecord and sent as one
/// buffer, restarting on EINTR and never raising SIGPIPE (a dead peer
/// returns a Status instead). Not internally synchronized: callers writing
/// from multiple threads hold their own lock (the worker's io mutex; the
/// supervisor writes single-threaded).
[[nodiscard]] Status WriteFrame(int fd, const std::string& payload);

/// Blocking-reads one framed payload from `fd` into `out`. Returns
/// NotFound on clean EOF at a frame boundary, DataLoss on a torn frame or
/// CRC mismatch (the peer died mid-write), Internal on read errors.
[[nodiscard]] Status ReadFrame(int fd, std::string* out);

}  // namespace hypertune

#endif  // HYPERTUNE_RUNTIME_PROCESS_PROTOCOL_H_
