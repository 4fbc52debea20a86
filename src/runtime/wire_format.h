#ifndef HYPERTUNE_RUNTIME_WIRE_FORMAT_H_
#define HYPERTUNE_RUNTIME_WIRE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/config/configuration.h"
#include "src/runtime/job.h"

namespace hypertune {

/// Versioned little-endian binary wire format.
///
/// Everything durable in Hyper-Tune — measurement stores, the write-ahead
/// journal, scheduler snapshots — is built from one framing primitive:
///
///   record := [u32 payload_len][u32 crc32(payload)][payload bytes]
///
/// All integers are little-endian regardless of host order; doubles travel
/// as their IEEE-754 bit pattern. The CRC (IEEE 802.3 reflected polynomial)
/// guards each payload independently, so a torn tail or a flipped bit is
/// detected at the record where it happened and everything before it stays
/// loadable. Payload contents are format-specific; by convention the first
/// payload byte is a record-type tag.
///
/// Decoding never trusts the input: every read is bounds-checked and
/// returns Status instead of over-reading, so arbitrary bytes (fuzz
/// corpora, torn files) produce clean errors, never crashes.

/// Current wire format version, written into file headers. Readers accept
/// versions <= this and reject newer ones with a clear error.
inline constexpr uint32_t kWireFormatVersion = 1;

/// Sanity cap on a single record payload. Anything larger is treated as a
/// corrupt length prefix, which keeps a flipped length bit from triggering
/// a multi-gigabyte allocation.
inline constexpr uint32_t kWireMaxPayload = 1u << 28;  // 256 MiB

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `size` bytes.
uint32_t Crc32(const void* data, size_t size);

/// Appends scalars to a growing byte buffer, little-endian.
class WireEncoder {
 public:
  void PutU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutF64(double v);
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  /// u32 byte count followed by the raw bytes.
  void PutString(const std::string& s);
  /// The bytes verbatim, no length prefix — for echoing an
  /// already-encoded sub-stream (e.g. a stored scheduler snapshot).
  void PutRaw(const std::string& s) { buffer_.append(s); }
  /// u32 element count followed by the doubles.
  void PutDoubles(const std::vector<double>& v);

  const std::string& bytes() const { return buffer_; }
  std::string Release() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

  /// The bytes of an earlier scheduler snapshot that a Snapshot() into
  /// this encoder may write a delta against (see
  /// SchedulerInterface::Snapshot). Null, the default, asks for a full
  /// image. The encoder borrows the bytes; they must outlive the call.
  void set_snapshot_base(const std::string* base) { snapshot_base_ = base; }
  const std::string* snapshot_base() const { return snapshot_base_; }

 private:
  std::string buffer_;
  const std::string* snapshot_base_ = nullptr;
};

/// Bounds-checked little-endian reads over a borrowed byte range. Every
/// getter either fills its output and advances, or returns OutOfRange and
/// leaves the cursor where it was; no call ever reads past `size`.
class WireDecoder {
 public:
  WireDecoder(const char* data, size_t size)
      : data_(reinterpret_cast<const uint8_t*>(data)), size_(size) {}
  explicit WireDecoder(const std::string& bytes)
      : WireDecoder(bytes.data(), bytes.size()) {}

  [[nodiscard]] Status GetU8(uint8_t* out);
  [[nodiscard]] Status GetU32(uint32_t* out);
  [[nodiscard]] Status GetU64(uint64_t* out);
  [[nodiscard]] Status GetI32(int32_t* out);
  [[nodiscard]] Status GetI64(int64_t* out);
  [[nodiscard]] Status GetF64(double* out);
  [[nodiscard]] Status GetBool(bool* out);
  [[nodiscard]] Status GetString(std::string* out);
  [[nodiscard]] Status GetDoubles(std::vector<double>* out);

  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }
  /// Returns InvalidArgument naming `what` unless the cursor consumed the
  /// whole range — decoders call this last to reject trailing garbage.
  [[nodiscard]] Status ExpectEnd(const char* what) const;

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Appends one framed record ([len][crc][payload]) to `out`.
void AppendRecord(const std::string& payload, std::string* out);

/// Result of scanning a byte stream into framed records. The scan stops at
/// the first frame that cannot be validated (truncated header, truncated
/// payload, oversized length, CRC mismatch); `clean_bytes` is the offset of
/// that frame — everything before it parsed cleanly.
struct RecordScan {
  std::vector<std::string> records;
  /// Byte offset of the end of the last valid record.
  size_t clean_bytes = 0;
  /// Ok when the stream ended exactly on a record boundary; DataLoss (with
  /// the reason) when a torn or corrupt tail was dropped.
  Status tail;
};

/// Splits `size` bytes into validated records. Never fails outright: a
/// corrupt stream yields the valid prefix plus a non-OK `tail`.
RecordScan ScanRecords(const char* data, size_t size);
inline RecordScan ScanRecords(const std::string& bytes) {
  return ScanRecords(bytes.data(), bytes.size());
}

/// Reads the whole file at `path` into `out` with one sized read. NotFound
/// when it cannot be opened, Internal on a short read; both name the path.
[[nodiscard]] Status ReadFileBytes(const std::string& path, std::string* out);

/// Typed codecs for the core runtime structures. Encoders are total;
/// decoders validate ranges (finite doubles where the runtime requires
/// them are the caller's concern — these check structure, not semantics).
void EncodeConfiguration(const Configuration& config, WireEncoder* enc);
[[nodiscard]] Status DecodeConfiguration(WireDecoder* dec, Configuration* out);

void EncodeJob(const Job& job, WireEncoder* enc);
[[nodiscard]] Status DecodeJob(WireDecoder* dec, Job* out);

void EncodeEvalResult(const EvalResult& result, WireEncoder* enc);
[[nodiscard]] Status DecodeEvalResult(WireDecoder* dec, EvalResult* out);

}  // namespace hypertune

#endif  // HYPERTUNE_RUNTIME_WIRE_FORMAT_H_
