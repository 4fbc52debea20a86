#include "src/runtime/store_io.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "src/runtime/wire_format.h"

namespace hypertune {
namespace {

/// Record tags of the v1 binary store stream (first payload byte).
constexpr uint8_t kStoreHeaderTag = 1;
constexpr uint8_t kStoreMeasurementTag = 2;

Status CheckFiniteObjectives(const MeasurementStore& store,
                             const ConfigurationSpace& space) {
  for (int level = 1; level <= store.num_levels(); ++level) {
    for (const Measurement& m : store.group(level)) {
      if (m.config.size() != space.size()) {
        return Status::Internal("measurement arity mismatch with space");
      }
      if (!std::isfinite(m.objective)) {
        return Status::InvalidArgument(
            "measurement at level " + std::to_string(level) +
            " has a non-finite objective; a persisted store holding inf/nan "
            "cannot round-trip (failed trials must not be persisted)");
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Status EncodeStoreWire(const MeasurementStore& store,
                       const ConfigurationSpace& space, std::string* out) {
  if (out == nullptr) return Status::InvalidArgument("null output string");
  HT_RETURN_IF_ERROR(CheckFiniteObjectives(store, space));
  out->assign(kStoreWireMagic, sizeof(kStoreWireMagic));

  WireEncoder header;
  header.PutU8(kStoreHeaderTag);
  header.PutU32(kWireFormatVersion);
  header.PutU32(static_cast<uint32_t>(store.num_levels()));
  header.PutU32(static_cast<uint32_t>(space.size()));
  for (const Parameter& p : space.parameters()) header.PutString(p.name());
  AppendRecord(header.bytes(), out);

  for (int level = 1; level <= store.num_levels(); ++level) {
    for (const Measurement& m : store.group(level)) {
      WireEncoder enc;
      enc.PutU8(kStoreMeasurementTag);
      enc.PutI32(level);
      enc.PutF64(m.objective);
      enc.PutDoubles(m.config.values());
      AppendRecord(enc.bytes(), out);
    }
  }
  return Status::Ok();
}

Status DecodeStoreWire(const std::string& bytes,
                       const ConfigurationSpace& space,
                       MeasurementStore* store) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  if (bytes.size() < sizeof(kStoreWireMagic) ||
      std::memcmp(bytes.data(), kStoreWireMagic, sizeof(kStoreWireMagic)) !=
          0) {
    return Status::InvalidArgument("not a binary store stream (bad magic)");
  }
  RecordScan scan = ScanRecords(bytes.data() + sizeof(kStoreWireMagic),
                                bytes.size() - sizeof(kStoreWireMagic));
  HT_RETURN_IF_ERROR(scan.tail);
  if (scan.records.empty()) {
    return Status::DataLoss("binary store stream has no header record");
  }

  WireDecoder header(scan.records[0]);
  uint8_t tag = 0;
  HT_RETURN_IF_ERROR(header.GetU8(&tag));
  if (tag != kStoreHeaderTag) {
    return Status::InvalidArgument("binary store stream: first record is not "
                                   "a header");
  }
  uint32_t version = 0;
  HT_RETURN_IF_ERROR(header.GetU32(&version));
  if (version > kWireFormatVersion) {
    return Status::InvalidArgument(
        "store was written by wire format version " +
        std::to_string(version) + " but this build reads up to version " +
        std::to_string(kWireFormatVersion) +
        "; upgrade to read it (newer wire format version)");
  }
  uint32_t num_levels = 0;
  uint32_t num_params = 0;
  HT_RETURN_IF_ERROR(header.GetU32(&num_levels));
  HT_RETURN_IF_ERROR(header.GetU32(&num_params));
  if (num_params != space.size()) {
    return Status::InvalidArgument(
        "binary store stream has " + std::to_string(num_params) +
        " parameters but the space has " + std::to_string(space.size()));
  }
  for (size_t d = 0; d < space.size(); ++d) {
    std::string name;
    HT_RETURN_IF_ERROR(header.GetString(&name));
    if (name != space.parameter(d).name()) {
      return Status::InvalidArgument("binary store parameter '" + name +
                                     "' does not match space parameter '" +
                                     space.parameter(d).name() + "'");
    }
  }
  HT_RETURN_IF_ERROR(header.ExpectEnd("store header record"));

  // Every record is checked before the first is added, so a rejected
  // stream leaves the store as it was.
  struct Row {
    int level;
    Configuration config;
    double objective;
  };
  std::vector<Row> rows;
  rows.reserve(scan.records.size() - 1);
  for (size_t i = 1; i < scan.records.size(); ++i) {
    WireDecoder dec(scan.records[i]);
    HT_RETURN_IF_ERROR(dec.GetU8(&tag));
    if (tag != kStoreMeasurementTag) {
      return Status::InvalidArgument(
          "binary store stream: unexpected record tag " +
          std::to_string(static_cast<int>(tag)));
    }
    int32_t level = 0;
    double objective = 0.0;
    std::vector<double> values;
    HT_RETURN_IF_ERROR(dec.GetI32(&level));
    HT_RETURN_IF_ERROR(dec.GetF64(&objective));
    HT_RETURN_IF_ERROR(dec.GetDoubles(&values));
    HT_RETURN_IF_ERROR(dec.ExpectEnd("store measurement record"));
    if (level < 1 || level > store->num_levels()) {
      return Status::InvalidArgument("binary store measurement has level " +
                                     std::to_string(level) +
                                     " outside the target store's range");
    }
    if (!std::isfinite(objective)) {
      return Status::InvalidArgument(
          "binary store measurement has a non-finite objective");
    }
    if (values.size() != space.size()) {
      return Status::InvalidArgument(
          "binary store measurement arity mismatch with space");
    }
    Configuration config(std::move(values));
    HT_RETURN_IF_ERROR(space.Validate(config));
    rows.push_back({static_cast<int>(level), std::move(config), objective});
  }
  for (const Row& row : rows) store->Add(row.level, row.config, row.objective);
  return Status::Ok();
}

Status SaveStore(const MeasurementStore& store,
                 const ConfigurationSpace& space, const std::string& path) {
  std::string bytes;
  HT_RETURN_IF_ERROR(EncodeStoreWire(store, space, &bytes));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return Status::Internal("cannot open " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out.good()) return Status::Internal("store write failed: " + path);
  return Status::Ok();
}

Status LoadStore(const std::string& path, const ConfigurationSpace& space,
                 MeasurementStore* store) {
  std::string bytes;
  HT_RETURN_IF_ERROR(ReadFileBytes(path, &bytes));
  Status status = DecodeStoreWire(bytes, space, store);
  if (status.ok()) return status;
  return Status(status.code(), path + ": " + status.message());
}

}  // namespace hypertune
