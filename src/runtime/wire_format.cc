#include "src/runtime/wire_format.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace hypertune {

namespace {

// Slicing-by-8 tables, built at compile time: entry [0][b] is the CRC
// register after feeding byte b, and entry [k][b] that register advanced
// through k more zero bytes.
struct Crc32Tables {
  uint32_t entries[8][256] = {};
  constexpr Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t c = entries[k - 1][i];
        entries[k][i] = entries[0][c & 0xFF] ^ (c >> 8);
      }
    }
  }
};

constexpr Crc32Tables kCrc32;

// Reads bytes [0, 4) as a little-endian word on any host.
inline uint32_t LoadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

void PutLE(uint64_t v, int bytes, std::string* out) {
  char le[8] = {};
  for (int i = 0; i < bytes; ++i) {
    le[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  out->append(le, static_cast<size_t>(bytes));
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  const auto& t = kCrc32.entries;
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  // Eight bytes per step: each byte looks up the table that advances it
  // past the bytes after it in the step, so the lookups are independent.
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint32_t lo = crc ^ LoadLE32(bytes);
    const uint32_t hi = LoadLE32(bytes + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = t[0][(crc ^ *bytes) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void WireEncoder::PutU32(uint32_t v) { PutLE(v, 4, &buffer_); }

void WireEncoder::PutU64(uint64_t v) { PutLE(v, 8, &buffer_); }

void WireEncoder::PutF64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void WireEncoder::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buffer_.append(s);
}

void WireEncoder::PutDoubles(const std::vector<double>& v) {
  PutU32(static_cast<uint32_t>(v.size()));
  for (double d : v) PutF64(d);
}

Status WireDecoder::GetU8(uint8_t* out) {
  if (remaining() < 1) return Status::OutOfRange("wire: u8 past end");
  *out = data_[pos_++];
  return Status::Ok();
}

Status WireDecoder::GetU32(uint32_t* out) {
  if (remaining() < 4) return Status::OutOfRange("wire: u32 past end");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return Status::Ok();
}

Status WireDecoder::GetU64(uint64_t* out) {
  if (remaining() < 8) return Status::OutOfRange("wire: u64 past end");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  *out = v;
  return Status::Ok();
}

Status WireDecoder::GetI32(int32_t* out) {
  uint32_t v;
  HT_RETURN_IF_ERROR(GetU32(&v));
  *out = static_cast<int32_t>(v);
  return Status::Ok();
}

Status WireDecoder::GetI64(int64_t* out) {
  uint64_t v;
  HT_RETURN_IF_ERROR(GetU64(&v));
  *out = static_cast<int64_t>(v);
  return Status::Ok();
}

Status WireDecoder::GetF64(double* out) {
  uint64_t bits;
  HT_RETURN_IF_ERROR(GetU64(&bits));
  std::memcpy(out, &bits, sizeof(bits));
  return Status::Ok();
}

Status WireDecoder::GetBool(bool* out) {
  uint8_t v;
  HT_RETURN_IF_ERROR(GetU8(&v));
  if (v > 1) return Status::InvalidArgument("wire: bool byte not 0/1");
  *out = v != 0;
  return Status::Ok();
}

Status WireDecoder::GetString(std::string* out) {
  uint32_t len;
  HT_RETURN_IF_ERROR(GetU32(&len));
  if (len > remaining()) {
    return Status::OutOfRange("wire: string length exceeds remaining bytes");
  }
  out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return Status::Ok();
}

Status WireDecoder::GetDoubles(std::vector<double>* out) {
  uint32_t count;
  HT_RETURN_IF_ERROR(GetU32(&count));
  if (static_cast<size_t>(count) * 8 > remaining()) {
    return Status::OutOfRange("wire: double count exceeds remaining bytes");
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    double d;
    HT_RETURN_IF_ERROR(GetF64(&d));
    out->push_back(d);
  }
  return Status::Ok();
}

Status WireDecoder::ExpectEnd(const char* what) const {
  if (AtEnd()) return Status::Ok();
  return Status::InvalidArgument(std::string("wire: trailing bytes after ") +
                                 what);
}

void AppendRecord(const std::string& payload, std::string* out) {
  PutLE(payload.size(), 4, out);
  PutLE(Crc32(payload.data(), payload.size()), 4, out);
  out->append(payload);
}

RecordScan ScanRecords(const char* data, size_t size) {
  RecordScan scan;
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(data);
  size_t pos = 0;
  auto read_u32 = [&](size_t at) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(bytes[at + i]) << (8 * i);
    }
    return v;
  };
  while (pos < size) {
    if (size - pos < 8) {
      scan.tail = Status::DataLoss("wire: truncated record header");
      break;
    }
    uint32_t len = read_u32(pos);
    uint32_t crc = read_u32(pos + 4);
    if (len > kWireMaxPayload) {
      scan.tail = Status::DataLoss("wire: record length exceeds sanity cap");
      break;
    }
    if (size - pos - 8 < len) {
      scan.tail = Status::DataLoss("wire: truncated record payload");
      break;
    }
    if (Crc32(data + pos + 8, len) != crc) {
      scan.tail = Status::DataLoss("wire: record CRC mismatch");
      break;
    }
    scan.records.emplace_back(data + pos + 8, len);
    pos += 8 + static_cast<size_t>(len);
    scan.clean_bytes = pos;
  }
  return scan;
}

Status ReadFileBytes(const std::string& path, std::string* out) {
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  if (ec || !in) return Status::NotFound("cannot open " + path);
  out->assign(static_cast<size_t>(size), '\0');
  in.read(out->data(), static_cast<std::streamsize>(size));
  if (static_cast<uintmax_t>(in.gcount()) != size) {
    return Status::Internal("short read of " + path + " (" +
                            std::to_string(in.gcount()) + " of " +
                            std::to_string(size) + " bytes)");
  }
  return Status::Ok();
}

void EncodeConfiguration(const Configuration& config, WireEncoder* enc) {
  enc->PutDoubles(config.values());
}

Status DecodeConfiguration(WireDecoder* dec, Configuration* out) {
  std::vector<double> values;
  HT_RETURN_IF_ERROR(dec->GetDoubles(&values));
  *out = Configuration(std::move(values));
  return Status::Ok();
}

void EncodeJob(const Job& job, WireEncoder* enc) {
  enc->PutI64(job.job_id);
  EncodeConfiguration(job.config, enc);
  enc->PutI32(job.level);
  enc->PutF64(job.resource);
  enc->PutF64(job.resume_from);
  enc->PutI32(job.bracket);
  enc->PutI32(job.attempt);
}

Status DecodeJob(WireDecoder* dec, Job* out) {
  Job job;
  HT_RETURN_IF_ERROR(dec->GetI64(&job.job_id));
  HT_RETURN_IF_ERROR(DecodeConfiguration(dec, &job.config));
  HT_RETURN_IF_ERROR(dec->GetI32(&job.level));
  HT_RETURN_IF_ERROR(dec->GetF64(&job.resource));
  HT_RETURN_IF_ERROR(dec->GetF64(&job.resume_from));
  HT_RETURN_IF_ERROR(dec->GetI32(&job.bracket));
  HT_RETURN_IF_ERROR(dec->GetI32(&job.attempt));
  if (job.level < 0) return Status::InvalidArgument("wire: negative level");
  if (job.attempt < 1) return Status::InvalidArgument("wire: attempt < 1");
  *out = std::move(job);
  return Status::Ok();
}

void EncodeEvalResult(const EvalResult& result, WireEncoder* enc) {
  enc->PutF64(result.objective);
  enc->PutF64(result.test_objective);
  enc->PutF64(result.cost_seconds);
}

Status DecodeEvalResult(WireDecoder* dec, EvalResult* out) {
  EvalResult result;
  HT_RETURN_IF_ERROR(dec->GetF64(&result.objective));
  HT_RETURN_IF_ERROR(dec->GetF64(&result.test_objective));
  HT_RETURN_IF_ERROR(dec->GetF64(&result.cost_seconds));
  *out = result;
  return Status::Ok();
}

}  // namespace hypertune
