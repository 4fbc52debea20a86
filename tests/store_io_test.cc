#include "src/runtime/store_io.h"

#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/tuner_factory.h"
#include "src/problems/counting_ones.h"
#include "src/runtime/wire_format.h"

namespace hypertune {
namespace {

ConfigurationSpace MixedSpace() {
  ConfigurationSpace space;
  EXPECT_TRUE(space.Add(Parameter::Float("lr", 1e-3, 1.0, true)).ok());
  EXPECT_TRUE(space.Add(Parameter::Int("depth", 3, 12)).ok());
  EXPECT_TRUE(space.Add(Parameter::Categorical("op", {"a", "b"})).ok());
  return space;
}

const std::vector<std::string> kMixedNames = {"lr", "depth", "op"};

struct WireRow {
  int32_t level = 1;
  double objective = 0.0;
  std::vector<double> values;
};

/// A v1 store stream built by hand, so a test can write what
/// EncodeStoreWire never would: a header claiming `version` and naming
/// `names`, then one measurement record per row.
std::string HandBuiltStream(const std::vector<std::string>& names,
                            const std::vector<WireRow>& rows,
                            uint32_t version = kWireFormatVersion) {
  std::string bytes(kStoreWireMagic, sizeof(kStoreWireMagic));
  WireEncoder header;
  header.PutU8(1);  // store header tag
  header.PutU32(version);
  header.PutU32(2);  // num_levels
  header.PutU32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) header.PutString(name);
  AppendRecord(header.Release(), &bytes);
  for (const WireRow& row : rows) {
    WireEncoder enc;
    enc.PutU8(2);  // store measurement tag
    enc.PutI32(row.level);
    enc.PutF64(row.objective);
    enc.PutDoubles(row.values);
    AppendRecord(enc.Release(), &bytes);
  }
  return bytes;
}

TEST(StoreIoTest, PendingIsNotPersisted) {
  ConfigurationSpace space = MixedSpace();
  MeasurementStore store(1);
  store.Add(1, Configuration({0.1, 5.0, 1.0}), 2.0);
  store.AddPending(Configuration({0.2, 6.0, 0.0}), 1);
  std::string bytes;
  ASSERT_TRUE(EncodeStoreWire(store, space, &bytes).ok());
  MeasurementStore loaded(1);
  ASSERT_TRUE(DecodeStoreWire(bytes, space, &loaded).ok());
  EXPECT_EQ(loaded.TotalSize(), 1u);
  EXPECT_EQ(loaded.NumPending(), 0u);
}

TEST(StoreIoTest, HeaderMismatchRejected) {
  ConfigurationSpace space = MixedSpace();
  MeasurementStore store(1);
  Status renamed = DecodeStoreWire(
      HandBuiltStream({"lr", "depth", "kernel"}, {}), space, &store);
  EXPECT_EQ(renamed.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(renamed.message().find("'kernel'"), std::string::npos)
      << renamed.message();
  // Names must match in order too.
  EXPECT_EQ(DecodeStoreWire(HandBuiltStream({"depth", "lr", "op"}, {}), space,
                            &store)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeStoreWire(HandBuiltStream({"lr"}, {}), space, &store).code(),
            StatusCode::kInvalidArgument);
  // No header record at all, and no magic.
  const std::string magic_only(kStoreWireMagic, sizeof(kStoreWireMagic));
  EXPECT_EQ(DecodeStoreWire(magic_only, space, &store).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeStoreWire("", space, &store).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.TotalSize(), 0u);
}

TEST(StoreIoTest, MalformedRowsRejected) {
  ConfigurationSpace space = MixedSpace();
  MeasurementStore store(2);
  auto decode_row = [&](const WireRow& row) {
    return DecodeStoreWire(HandBuiltStream(kMixedNames, {row}), space, &store)
        .code();
  };
  // Levels outside [1, K] for this two-level store.
  for (int32_t level : {0, 3, 9, -1}) {
    EXPECT_EQ(decode_row({level, 1.0, {0.1, 5.0, 1.0}}),
              StatusCode::kInvalidArgument)
        << level;
  }
  // One value short of the space's arity.
  EXPECT_EQ(decode_row({1, 1.0, {0.1, 5.0}}), StatusCode::kInvalidArgument);
  // A value outside the space: depth lies in [3, 12].
  EXPECT_EQ(decode_row({1, 1.0, {0.1, 99.0, 1.0}}), StatusCode::kOutOfRange);
  EXPECT_EQ(store.TotalSize(), 0u);
}

TEST(StoreIoTest, RejectedStreamLeavesTheStoreEmpty) {
  // Two valid rows at level 1, then one at level 2: a one-level store
  // rejects the stream at its last record, and must keep none of it.
  ConfigurationSpace space = MixedSpace();
  MeasurementStore store(1);
  const std::string bytes =
      HandBuiltStream(kMixedNames, {{1, 1.0, {0.1, 5.0, 1.0}},
                                    {1, 2.0, {0.2, 6.0, 0.0}},
                                    {2, 3.0, {0.3, 7.0, 1.0}}});
  EXPECT_EQ(DecodeStoreWire(bytes, space, &store).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.TotalSize(), 0u);
  EXPECT_EQ(store.version(), 0u);
}

TEST(StoreIoTest, NonFiniteObjectivesRejectedOnWriteAndRead) {
  ConfigurationSpace space = MixedSpace();
  // Write side: a store holding a failed-trial marker (+inf) or a NaN must
  // not be persisted at all — it could never round-trip as history.
  for (double poison : {std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN()}) {
    MeasurementStore store(1);
    store.Add(1, Configuration({0.1, 5.0, 1.0}), 2.0);
    store.Add(1, Configuration({0.2, 6.0, 0.0}), poison);
    std::string bytes;
    Status status = EncodeStoreWire(store, space, &bytes);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("non-finite"), std::string::npos);
  }
  // Read side: a stream that carries one anyway is rejected the same way.
  for (double poison : {std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN(),
                        -std::numeric_limits<double>::infinity()}) {
    MeasurementStore store(1);
    const std::string bytes =
        HandBuiltStream(kMixedNames, {{1, poison, {0.1, 5.0, 1.0}}});
    EXPECT_EQ(DecodeStoreWire(bytes, space, &store).code(),
              StatusCode::kInvalidArgument)
        << poison;
    EXPECT_EQ(store.TotalSize(), 0u);
  }
}

TEST(StoreIoTest, FiniteObjectiveRoundTripSurvivesExtremes) {
  ConfigurationSpace space = MixedSpace();
  MeasurementStore store(1);
  // Denormals and huge-but-finite magnitudes round-trip bit-exactly.
  store.Add(1, Configuration({0.1, 5.0, 1.0}),
            std::numeric_limits<double>::denorm_min());
  store.Add(1, Configuration({0.2, 6.0, 0.0}),
            -std::numeric_limits<double>::max());
  std::string bytes;
  ASSERT_TRUE(EncodeStoreWire(store, space, &bytes).ok());
  MeasurementStore loaded(1);
  ASSERT_TRUE(DecodeStoreWire(bytes, space, &loaded).ok());
  ASSERT_EQ(loaded.group(1).size(), 2u);
  EXPECT_EQ(loaded.group(1)[0].objective,
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(loaded.group(1)[1].objective,
            -std::numeric_limits<double>::max());
}

TEST(StoreIoTest, FileRoundTripAndWarmStart) {
  // End-to-end warm start: run a short session, persist its measurements,
  // load them into a fresh tuner, and verify the model-based sampler
  // starts informed (the fresh tuner's store is pre-populated).
  CountingOnesOptions options;
  options.num_categorical = 3;
  options.num_continuous = 3;
  options.max_samples = 27.0;
  CountingOnes problem(options);

  TunerFactoryOptions factory;
  factory.method = Method::kHyperTune;
  factory.seed = 5;
  std::unique_ptr<Tuner> first = CreateTuner(problem, factory);
  ClusterOptions cluster;
  cluster.num_workers = 4;
  cluster.time_budget_seconds = 400.0;
  cluster.seed = 5;
  first->Run(problem, cluster);
  ASSERT_GT(first->store()->TotalSize(), 10u);

  std::string path = ::testing::TempDir() + "/hypertune_store.bin";
  ASSERT_TRUE(SaveStore(*first->store(), problem.space(), path).ok());

  factory.seed = 6;
  std::unique_ptr<Tuner> second = CreateTuner(problem, factory);
  ASSERT_TRUE(LoadStore(path, problem.space(), second->store()).ok());
  EXPECT_EQ(second->store()->TotalSize(), first->store()->TotalSize());

  // The warm-started run proceeds normally.
  cluster.seed = 6;
  RunResult warm = second->Run(problem, cluster);
  EXPECT_GT(warm.history.num_trials(), 5u);
}

TEST(StoreIoTest, LoadMissingFileIsNotFound) {
  ConfigurationSpace space = MixedSpace();
  MeasurementStore store(1);
  EXPECT_EQ(LoadStore("/nonexistent/path.bin", space, &store).code(),
            StatusCode::kNotFound);
}

TEST(StoreIoTest, SaveStoreWritesBinaryAndRoundTripsExactly) {
  ConfigurationSpace space = MixedSpace();
  MeasurementStore store(3);
  Rng rng(2);
  for (int i = 0; i < 40; ++i) {
    store.Add(1 + i % 3, space.Sample(&rng), rng.Gaussian(5.0, 2.0));
  }
  std::string path = ::testing::TempDir() + "/hypertune_store_v1.bin";
  ASSERT_TRUE(SaveStore(store, space, path).ok());

  // What landed on disk is the v1 binary format, not CSV.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GE(bytes.size(), sizeof(kStoreWireMagic));
  EXPECT_EQ(
      std::memcmp(bytes.data(), kStoreWireMagic, sizeof(kStoreWireMagic)), 0);

  MeasurementStore loaded(3);
  ASSERT_TRUE(LoadStore(path, space, &loaded).ok());
  ASSERT_EQ(loaded.GroupSizes(), store.GroupSizes());
  for (int level = 1; level <= 3; ++level) {
    const auto& a = store.group(level);
    const auto& b = loaded.group(level);
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(a[i].config == b[i].config) << "level " << level;
      // Bit-exact, not just close: binary doubles skip text formatting.
      EXPECT_EQ(a[i].objective, b[i].objective);
    }
  }
}

TEST(StoreIoTest, LoadStoreRejectsCsvNamingThePath) {
  // The CSV format of early builds is no longer read: such a file fails
  // at the magic, and the error names the file.
  const std::string path = ::testing::TempDir() + "/hypertune_store_v0.csv";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "level,objective,lr,depth,op\n1,2.5,0.1,5,1\n";
  }
  ConfigurationSpace space = MixedSpace();
  MeasurementStore store(2);
  Status status = LoadStore(path, space, &store);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(path), std::string::npos)
      << status.message();
  EXPECT_EQ(store.TotalSize(), 0u);
}

TEST(StoreIoTest, NewerWireVersionIsRejectedWithClearError) {
  ConfigurationSpace space = MixedSpace();
  // A header claiming version kWireFormatVersion + 1, as a future build
  // would write it. The reader must refuse with an upgrade hint rather
  // than misparse records it cannot understand.
  const std::string bytes =
      HandBuiltStream(kMixedNames, {}, kWireFormatVersion + 1);
  MeasurementStore store(2);
  Status status = DecodeStoreWire(bytes, space, &store);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("newer wire format version"),
            std::string::npos);
  EXPECT_EQ(store.TotalSize(), 0u);
}

TEST(StoreIoTest, CorruptBinaryStoreIsRejected) {
  ConfigurationSpace space = MixedSpace();
  MeasurementStore store(1);
  store.Add(1, Configuration({0.1, 5.0, 1.0}), 2.0);
  std::string bytes;
  ASSERT_TRUE(EncodeStoreWire(store, space, &bytes).ok());

  // Bad magic: not recognized as a binary stream at all.
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  MeasurementStore loaded(1);
  EXPECT_EQ(DecodeStoreWire(wrong_magic, space, &loaded).code(),
            StatusCode::kInvalidArgument);

  // A flipped payload bit trips the record CRC.
  std::string flipped = bytes;
  flipped[flipped.size() - 3] =
      static_cast<char>(flipped[flipped.size() - 3] ^ 0x40);
  EXPECT_EQ(DecodeStoreWire(flipped, space, &loaded).code(),
            StatusCode::kDataLoss);

  // A truncated tail is detected rather than silently dropped.
  std::string truncated = bytes.substr(0, bytes.size() - 2);
  EXPECT_EQ(DecodeStoreWire(truncated, space, &loaded).code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace hypertune
