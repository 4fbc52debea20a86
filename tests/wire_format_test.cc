// Property tests for the versioned binary wire format: seeded-random
// round-trips must be exact (doubles bit-for-bit), and *no* corruption —
// every single-byte truncation, every single-bit flip, arbitrary random
// bytes — may ever crash, hang, or over-read; each must surface as a clean
// Status. The whole corpus runs under ASan/UBSan in CI, so an over-read
// would be caught even if it happened to return plausible data.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/runtime/wire_format.h"

namespace hypertune {
namespace {

uint64_t Bits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

Job RandomJob(std::mt19937_64* rng) {
  std::uniform_real_distribution<double> unit(-1e6, 1e6);
  std::uniform_int_distribution<int> small(1, 7);
  Job job;
  job.job_id = static_cast<int64_t>((*rng)());
  std::vector<double> values(small(*rng));
  for (double& v : values) v = unit(*rng);
  job.config = Configuration(std::move(values));
  job.level = small(*rng);
  job.resource = unit(*rng);
  job.resume_from = unit(*rng);
  job.bracket = small(*rng) - 2;  // includes the bracket-less -1
  job.attempt = small(*rng);
  return job;
}

EvalResult RandomResult(std::mt19937_64* rng) {
  std::uniform_real_distribution<double> unit(-1e6, 1e6);
  EvalResult result;
  result.objective = unit(*rng);
  result.test_objective = unit(*rng);
  result.cost_seconds = unit(*rng);
  return result;
}

void ExpectJobsEqual(const Job& a, const Job& b) {
  EXPECT_EQ(a.job_id, b.job_id);
  ASSERT_EQ(a.config.size(), b.config.size());
  for (size_t d = 0; d < a.config.size(); ++d) {
    EXPECT_EQ(Bits(a.config[d]), Bits(b.config[d]));
  }
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(Bits(a.resource), Bits(b.resource));
  EXPECT_EQ(Bits(a.resume_from), Bits(b.resume_from));
  EXPECT_EQ(a.bracket, b.bracket);
  EXPECT_EQ(a.attempt, b.attempt);
}

TEST(WireFormatTest, PrimitivesRoundTrip) {
  WireEncoder enc;
  enc.PutU8(0xAB);
  enc.PutU32(0xDEADBEEFu);
  enc.PutU64(0x0123456789ABCDEFull);
  enc.PutI32(-7);
  enc.PutI64(-9000000000ll);
  enc.PutF64(-0.0);
  enc.PutBool(true);
  enc.PutBool(false);
  enc.PutString("hello");
  enc.PutString("");
  enc.PutDoubles({1.5, -2.5, 3.25});
  enc.PutDoubles({});

  WireDecoder dec(enc.bytes());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  int64_t i64;
  double f64;
  bool b;
  std::string s;
  std::vector<double> ds;
  ASSERT_TRUE(dec.GetU8(&u8).ok());
  EXPECT_EQ(u8, 0xAB);
  ASSERT_TRUE(dec.GetU32(&u32).ok());
  EXPECT_EQ(u32, 0xDEADBEEFu);
  ASSERT_TRUE(dec.GetU64(&u64).ok());
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  ASSERT_TRUE(dec.GetI32(&i32).ok());
  EXPECT_EQ(i32, -7);
  ASSERT_TRUE(dec.GetI64(&i64).ok());
  EXPECT_EQ(i64, -9000000000ll);
  ASSERT_TRUE(dec.GetF64(&f64).ok());
  EXPECT_EQ(Bits(f64), Bits(-0.0));  // signed zero survives
  ASSERT_TRUE(dec.GetBool(&b).ok());
  EXPECT_TRUE(b);
  ASSERT_TRUE(dec.GetBool(&b).ok());
  EXPECT_FALSE(b);
  ASSERT_TRUE(dec.GetString(&s).ok());
  EXPECT_EQ(s, "hello");
  ASSERT_TRUE(dec.GetString(&s).ok());
  EXPECT_EQ(s, "");
  ASSERT_TRUE(dec.GetDoubles(&ds).ok());
  EXPECT_EQ(ds, (std::vector<double>{1.5, -2.5, 3.25}));
  ASSERT_TRUE(dec.GetDoubles(&ds).ok());
  EXPECT_TRUE(ds.empty());
  EXPECT_TRUE(dec.ExpectEnd("primitives").ok());
}

TEST(WireFormatTest, LittleEndianOnTheWire) {
  WireEncoder enc;
  enc.PutU32(0x01020304u);
  const std::string& b = enc.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(b[0]), 0x04);
  EXPECT_EQ(static_cast<uint8_t>(b[3]), 0x01);
}

TEST(WireFormatTest, SeededStructuresRoundTripExactly) {
  std::mt19937_64 rng(20260808);
  for (int iter = 0; iter < 200; ++iter) {
    Job job = RandomJob(&rng);
    EvalResult result = RandomResult(&rng);
    WireEncoder enc;
    EncodeJob(job, &enc);
    EncodeEvalResult(result, &enc);

    WireDecoder dec(enc.bytes());
    Job job2;
    EvalResult result2;
    ASSERT_TRUE(DecodeJob(&dec, &job2).ok());
    ASSERT_TRUE(DecodeEvalResult(&dec, &result2).ok());
    ASSERT_TRUE(dec.ExpectEnd("job+result").ok());
    ExpectJobsEqual(job, job2);
    EXPECT_EQ(Bits(result.objective), Bits(result2.objective));
    EXPECT_EQ(Bits(result.test_objective), Bits(result2.test_objective));
    EXPECT_EQ(Bits(result.cost_seconds), Bits(result2.cost_seconds));
  }
}

TEST(WireFormatTest, DecodeJobValidatesRanges) {
  Job bad;
  bad.level = -1;
  {
    WireEncoder enc;
    EncodeJob(bad, &enc);
    WireDecoder dec(enc.bytes());
    Job out;
    EXPECT_EQ(DecodeJob(&dec, &out).code(), StatusCode::kInvalidArgument);
  }
  bad.level = 1;
  bad.attempt = 0;
  {
    WireEncoder enc;
    EncodeJob(bad, &enc);
    WireDecoder dec(enc.bytes());
    Job out;
    EXPECT_EQ(DecodeJob(&dec, &out).code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireFormatTest, BoolByteMustBeZeroOrOne) {
  std::string byte(1, '\x02');
  WireDecoder dec(byte);
  bool b;
  EXPECT_EQ(dec.GetBool(&b).code(), StatusCode::kInvalidArgument);
}

TEST(WireFormatTest, LengthPrefixedReadsAreBounded) {
  // A string/vector length claiming more bytes than remain must fail
  // without touching memory past the buffer (ASan would flag it).
  WireEncoder enc;
  enc.PutU32(1000);  // claims 1000 bytes / 1000 doubles; none follow
  {
    WireDecoder dec(enc.bytes());
    std::string s;
    EXPECT_EQ(dec.GetString(&s).code(), StatusCode::kOutOfRange);
  }
  {
    WireDecoder dec(enc.bytes());
    std::vector<double> ds;
    EXPECT_EQ(dec.GetDoubles(&ds).code(), StatusCode::kOutOfRange);
  }
  // The pathological count (0xFFFFFFFF * 8 bytes) must not allocate.
  WireEncoder huge;
  huge.PutU32(0xFFFFFFFFu);
  WireDecoder dec(huge.bytes());
  std::vector<double> ds;
  EXPECT_EQ(dec.GetDoubles(&ds).code(), StatusCode::kOutOfRange);
}

std::string BuildStream(std::vector<std::string>* payloads_out) {
  std::mt19937_64 rng(7);
  std::string stream;
  std::vector<std::string> payloads;
  for (int i = 0; i < 3; ++i) {
    WireEncoder enc;
    enc.PutU8(static_cast<uint8_t>(i + 1));
    EncodeJob(RandomJob(&rng), &enc);
    payloads.push_back(enc.bytes());
    AppendRecord(enc.Release(), &stream);
  }
  if (payloads_out != nullptr) *payloads_out = payloads;
  return stream;
}

TEST(WireFormatTest, FramedRecordsRoundTrip) {
  std::vector<std::string> payloads;
  std::string stream = BuildStream(&payloads);
  RecordScan scan = ScanRecords(stream);
  EXPECT_TRUE(scan.tail.ok());
  EXPECT_EQ(scan.clean_bytes, stream.size());
  ASSERT_EQ(scan.records.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(scan.records[i], payloads[i]);
  }
}

TEST(WireFormatTest, EveryTruncationYieldsCleanPrefix) {
  std::vector<std::string> payloads;
  std::string stream = BuildStream(&payloads);
  // Record boundaries, to distinguish "clean cut" from "torn record".
  std::vector<size_t> boundaries = {0};
  for (const std::string& p : payloads) {
    boundaries.push_back(boundaries.back() + 8 + p.size());
  }
  for (size_t cut = 0; cut < stream.size(); ++cut) {
    RecordScan scan = ScanRecords(stream.data(), cut);
    const bool on_boundary =
        std::find(boundaries.begin(), boundaries.end(), cut) !=
        boundaries.end();
    if (on_boundary) {
      EXPECT_TRUE(scan.tail.ok()) << "cut at " << cut;
      EXPECT_EQ(scan.clean_bytes, cut);
    } else {
      EXPECT_EQ(scan.tail.code(), StatusCode::kDataLoss) << "cut at " << cut;
    }
    // Whatever survived is an exact prefix of the original records.
    ASSERT_LE(scan.records.size(), payloads.size());
    for (size_t i = 0; i < scan.records.size(); ++i) {
      EXPECT_EQ(scan.records[i], payloads[i]);
    }
  }
}

TEST(WireFormatTest, EveryBitFlipIsDetected) {
  std::vector<std::string> payloads;
  std::string stream = BuildStream(&payloads);
  for (size_t byte = 0; byte < stream.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = stream;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      RecordScan scan = ScanRecords(corrupt);
      // A flip anywhere (length, CRC, or payload) must stop the scan with
      // DataLoss at the damaged record; records before it are untouched.
      EXPECT_EQ(scan.tail.code(), StatusCode::kDataLoss)
          << "flip at byte " << byte << " bit " << bit;
      ASSERT_LT(scan.records.size(), payloads.size() + 1);
      for (size_t i = 0; i < scan.records.size(); ++i) {
        EXPECT_EQ(scan.records[i], payloads[i])
            << "flip at byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST(WireFormatTest, OversizedLengthPrefixIsRejectedWithoutAllocating) {
  std::string stream;
  WireEncoder header;
  header.PutU32(kWireMaxPayload + 1);
  header.PutU32(0);  // crc, irrelevant: length check fires first
  stream = header.Release();
  stream.append(16, '\0');
  RecordScan scan = ScanRecords(stream);
  EXPECT_EQ(scan.tail.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_NE(scan.tail.message().find("sanity cap"), std::string::npos);
}

TEST(WireFormatTest, RandomBytesNeverCrashTheScannerOrDecoders) {
  // Pure fuzz: feed arbitrary bytes to the scanner and the typed decoders.
  // The assertions are weak on purpose — the property under test is "no
  // crash, no hang, no over-read", which ASan/UBSan enforce in CI.
  std::mt19937_64 rng(0xF00DF00D);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> len(0, 512);
  for (int iter = 0; iter < 256; ++iter) {
    std::string noise(len(rng), '\0');
    for (char& c : noise) c = static_cast<char>(byte(rng));
    RecordScan scan = ScanRecords(noise);
    EXPECT_LE(scan.clean_bytes, noise.size());
    for (const std::string& payload : scan.records) {
      WireDecoder dec(payload);
      Job job;
      DecodeJob(&dec, &job).IgnoreError();
      WireDecoder dec2(payload);
      EvalResult result;
      DecodeEvalResult(&dec2, &result).IgnoreError();
      WireDecoder dec3(payload);
      std::string s;
      dec3.GetString(&s).IgnoreError();
    }
  }
}

TEST(WireFormatTest, ExpectEndRejectsTrailingGarbage) {
  WireEncoder enc;
  enc.PutU8(1);
  enc.PutU8(2);
  WireDecoder dec(enc.bytes());
  uint8_t v;
  ASSERT_TRUE(dec.GetU8(&v).ok());
  Status tail = dec.ExpectEnd("test record");
  EXPECT_EQ(tail.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(tail.message().find("test record"), std::string::npos);
}

TEST(WireFormatTest, Crc32MatchesKnownVector) {
  // IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

// The bit-at-a-time definition of CRC-32 (IEEE 802.3, reflected).
uint32_t BitwiseCrc32(const uint8_t* bytes, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(WireFormatTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Every length up to well past the 8-byte step, at every alignment.
  std::mt19937_64 rng(325);
  std::vector<uint8_t> bytes(8 + 1031);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size = 0; size <= 1031; ++size) {
      ASSERT_EQ(Crc32(bytes.data() + offset, size),
                BitwiseCrc32(bytes.data() + offset, size))
          << "offset " << offset << " size " << size;
    }
  }
}

}  // namespace
}  // namespace hypertune
