#ifndef HYPERTUNE_RUNTIME_STORE_IO_H_
#define HYPERTUNE_RUNTIME_STORE_IO_H_

#include <string>

#include "src/common/status.h"
#include "src/config/space.h"
#include "src/runtime/measurement_store.h"

namespace hypertune {

/// Persistence for multi-fidelity measurements, enabling warm-started
/// tuning sessions: a finished run's store is written out and loaded into
/// a fresh Tuner's store before the next run, so the surrogates, fidelity
/// weights and bracket selection start from history instead of from
/// scratch.
///
/// The format (v1) is the versioned binary wire format of
/// runtime/wire_format.h: a 4-byte magic, then CRC-guarded length-prefixed
/// records (one header record naming the space's parameters, one record per
/// measurement). Doubles round-trip bit-exactly and corruption is detected
/// per record.
///
/// Pending entries are intentionally not persisted — they are transient
/// worker state.

/// Magic prefix of a v1 binary store stream.
inline constexpr char kStoreWireMagic[4] = {'H', 'T', 'W', 'S'};

/// Serializes every measurement group of `store` into the v1 binary wire
/// format. Non-finite objectives (the +inf marker of failed trials, NaN
/// from a broken problem) are rejected with InvalidArgument: a persisted
/// store must round-trip, and failure markers do not belong in warm-start
/// history.
[[nodiscard]] Status EncodeStoreWire(const MeasurementStore& store,
                       const ConfigurationSpace& space, std::string* out);

/// Decodes a v1 binary store stream into `store`. The stream's parameter
/// names must match `space` exactly (order included); a version newer than
/// kWireFormatVersion is rejected with a clear upgrade error; truncated or
/// corrupt records are rejected with DataLoss. A rejected stream adds
/// nothing to `store`.
[[nodiscard]] Status DecodeStoreWire(const std::string& bytes,
                       const ConfigurationSpace& space,
                       MeasurementStore* store);

/// File-path convenience wrappers around EncodeStoreWire and
/// DecodeStoreWire. LoadStore reads the file with ReadFileBytes, and every
/// error it returns names the path.
[[nodiscard]] Status SaveStore(const MeasurementStore& store,
                 const ConfigurationSpace& space, const std::string& path);
[[nodiscard]]
Status LoadStore(const std::string& path, const ConfigurationSpace& space,
                 MeasurementStore* store);

}  // namespace hypertune

#endif  // HYPERTUNE_RUNTIME_STORE_IO_H_
