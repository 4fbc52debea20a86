#include "src/runtime/process_protocol.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

namespace hypertune {

const char* ProcessMessageName(ProcessMessage type) {
  switch (type) {
    case ProcessMessage::kHello:
      return "hello";
    case ProcessMessage::kHeartbeat:
      return "heartbeat";
    case ProcessMessage::kResult:
      return "result";
    case ProcessMessage::kJob:
      return "job";
    case ProcessMessage::kShutdown:
      return "shutdown";
  }
  return "?";
}

/// Tag 4 carried a clean-failure message no worker ever sent. It stays
/// unassigned, so a frame carrying it is rejected, never misread.
constexpr uint8_t kRetiredTag = 4;

Status ProcessMessageTypeOf(const std::string& payload, ProcessMessage* out) {
  if (payload.empty()) {
    return Status::InvalidArgument("process message: empty payload");
  }
  const uint8_t tag = static_cast<uint8_t>(payload[0]);
  if (tag < static_cast<uint8_t>(ProcessMessage::kHello) ||
      tag > static_cast<uint8_t>(ProcessMessage::kShutdown) ||
      tag == kRetiredTag) {
    return Status::InvalidArgument("process message: unknown tag");
  }
  *out = static_cast<ProcessMessage>(tag);
  return Status::Ok();
}

namespace {

/// Decodes the tag byte and rejects payloads of the wrong message type.
Status ExpectTag(WireDecoder* dec, ProcessMessage want) {
  uint8_t tag = 0;
  HT_RETURN_IF_ERROR(dec->GetU8(&tag));
  if (tag != static_cast<uint8_t>(want)) {
    return Status::InvalidArgument(
        std::string("process message: expected ") + ProcessMessageName(want));
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeHello(const HelloMessage& msg) {
  WireEncoder enc;
  enc.PutU8(static_cast<uint8_t>(ProcessMessage::kHello));
  enc.PutI32(msg.worker);
  enc.PutI64(msg.pid);
  return enc.Release();
}

Status DecodeHello(const std::string& payload, HelloMessage* out) {
  WireDecoder dec(payload);
  HT_RETURN_IF_ERROR(ExpectTag(&dec, ProcessMessage::kHello));
  HT_RETURN_IF_ERROR(dec.GetI32(&out->worker));
  HT_RETURN_IF_ERROR(dec.GetI64(&out->pid));
  return dec.ExpectEnd("hello message");
}

std::string EncodeHeartbeat(const HeartbeatMessage& msg) {
  WireEncoder enc;
  enc.PutU8(static_cast<uint8_t>(ProcessMessage::kHeartbeat));
  enc.PutI32(msg.worker);
  enc.PutI64(msg.sequence);
  return enc.Release();
}

Status DecodeHeartbeat(const std::string& payload, HeartbeatMessage* out) {
  WireDecoder dec(payload);
  HT_RETURN_IF_ERROR(ExpectTag(&dec, ProcessMessage::kHeartbeat));
  HT_RETURN_IF_ERROR(dec.GetI32(&out->worker));
  HT_RETURN_IF_ERROR(dec.GetI64(&out->sequence));
  return dec.ExpectEnd("heartbeat message");
}

std::string EncodeResultMessage(const ResultMessage& msg) {
  WireEncoder enc;
  enc.PutU8(static_cast<uint8_t>(ProcessMessage::kResult));
  EncodeJob(msg.job, &enc);
  EncodeEvalResult(msg.result, &enc);
  return enc.Release();
}

Status DecodeResultMessage(const std::string& payload, ResultMessage* out) {
  WireDecoder dec(payload);
  HT_RETURN_IF_ERROR(ExpectTag(&dec, ProcessMessage::kResult));
  HT_RETURN_IF_ERROR(DecodeJob(&dec, &out->job));
  HT_RETURN_IF_ERROR(DecodeEvalResult(&dec, &out->result));
  return dec.ExpectEnd("result message");
}

std::string EncodeJobMessage(const JobMessage& msg) {
  WireEncoder enc;
  enc.PutU8(static_cast<uint8_t>(ProcessMessage::kJob));
  EncodeJob(msg.job, &enc);
  enc.PutBool(msg.inject_crash);
  return enc.Release();
}

Status DecodeJobMessage(const std::string& payload, JobMessage* out) {
  WireDecoder dec(payload);
  HT_RETURN_IF_ERROR(ExpectTag(&dec, ProcessMessage::kJob));
  HT_RETURN_IF_ERROR(DecodeJob(&dec, &out->job));
  HT_RETURN_IF_ERROR(dec.GetBool(&out->inject_crash));
  return dec.ExpectEnd("job message");
}

std::string EncodeShutdown() {
  WireEncoder enc;
  enc.PutU8(static_cast<uint8_t>(ProcessMessage::kShutdown));
  return enc.Release();
}

namespace {

/// Writes all of [data, data+size) to `fd`. send() with MSG_NOSIGNAL so a
/// dead peer yields EPIPE instead of killing the process; falls back to
/// write() when fd is not a socket (tests over plain pipes).
Status WriteAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd, data + written, size - written);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("process protocol: write failed: ") +
                              std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

/// Reads exactly `size` bytes into `out`. Returns the byte count actually
/// read, which is < size only at EOF; -1 on a hard read error.
ssize_t ReadAll(int fd, char* out, size_t size) {
  size_t got = 0;
  while (got < size) {
    ssize_t n = ::read(fd, out + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) break;  // EOF
    got += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(got);
}

}  // namespace

Status WriteFrame(int fd, const std::string& payload) {
  std::string frame;
  AppendRecord(payload, &frame);
  return WriteAll(fd, frame.data(), frame.size());
}

Status ReadFrame(int fd, std::string* out) {
  char header[8];
  ssize_t got = ReadAll(fd, header, sizeof(header));
  if (got < 0) {
    return Status::Internal(std::string("process protocol: read failed: ") +
                            std::strerror(errno));
  }
  if (got == 0) {
    return Status::NotFound("process protocol: peer closed the stream");
  }
  if (got < static_cast<ssize_t>(sizeof(header))) {
    return Status::DataLoss("process protocol: torn frame header");
  }
  WireDecoder dec(header, sizeof(header));
  uint32_t len = 0;
  uint32_t crc = 0;
  HT_RETURN_IF_ERROR(dec.GetU32(&len));
  HT_RETURN_IF_ERROR(dec.GetU32(&crc));
  if (len > kWireMaxPayload) {
    return Status::DataLoss("process protocol: oversized frame length");
  }
  out->resize(len);
  if (len > 0) {
    got = ReadAll(fd, out->data(), len);
    if (got < 0) {
      return Status::Internal(std::string("process protocol: read failed: ") +
                              std::strerror(errno));
    }
    if (got < static_cast<ssize_t>(len)) {
      return Status::DataLoss("process protocol: torn frame payload");
    }
  }
  if (Crc32(out->data(), out->size()) != crc) {
    return Status::DataLoss("process protocol: frame CRC mismatch");
  }
  return Status::Ok();
}

}  // namespace hypertune
