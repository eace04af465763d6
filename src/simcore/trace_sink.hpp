// pm2sim -- binary trace records and the hot-path record sink contract.
//
// The high-throughput telemetry path (obs::TraceLog) stores timeline and
// flow-lifecycle events as fixed-size binary records instead of JSON: the
// producer side is a lock-free per-partition ring write (reserve/commit on
// an SPSC head/tail pair), with no mutex, no string formatting and no
// allocation. Strings are interned once (cold path) into small ids; the
// offline converter resolves them back when it renders ChromeTrace JSON.
//
// This header defines only what the simcore layer needs to *produce*
// records (ChromeTrace delegates here when a sink is attached); the ring
// buffers, the binary log format and the canonical merge live in
// src/obs/trace_ring.hpp / trace_log.hpp.
#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>

#include "simcore/time.hpp"

namespace pm2::sim {

/// Phase byte for flow-lifecycle stamps (obs::FlowTracer). Not a Chrome
/// trace phase: the converter aggregates these records into the per-stage
/// latency breakdown and synthesizes the "s"/"t"/"f" flow-arrow events
/// (one per stage, at its first stamp).
inline constexpr std::uint8_t kFlowStampPhase = 0x80;

/// One fixed-size binary trace record (48 bytes, trivially copyable).
///
/// Field use by phase:
///   'X' complete   ts=start dur=duration     name/cat interned
///   'i' instant    ts=t                      name/cat interned
///   'C' counter    ts=t     id=value bits    name interned
///   'M' metadata   name=display name         cat=interned meta kind
///   's'/'t'/'f'    ts=t     id=flow id       name/cat interned
///   kFlowStampPhase ts=stamp time  dur=stage  id=flow id  pid/tid=node/core
///
/// `emit` is the virtual time at which the record was *created* (the
/// producing partition's clock), the primary canonical-merge key: within a
/// partition it is non-decreasing in ring order, and it is a virtual-time
/// property, so the merged order -- and the converted JSON -- is identical
/// for any host worker count.
struct TraceRecord {
  Time ts = 0;
  Time emit = 0;
  std::int64_t dur = 0;
  std::uint64_t id = 0;
  std::int32_t pid = 0;
  std::int32_t tid = 0;
  std::uint16_t name = 0;
  std::uint16_t cat = 0;
  std::uint8_t phase = 0;
  std::uint8_t pad[3] = {0, 0, 0};
};
static_assert(sizeof(TraceRecord) == 48, "binary log format is 48 B/record");
static_assert(std::is_trivially_copyable_v<TraceRecord>);

/// Where ChromeTrace sends records when the ring-buffer telemetry path is
/// enabled. Implemented by obs::TraceLog.
///
/// Contract: push() is called from simulation hot paths (any engine worker
/// thread, concurrently) and must be lock-free per partition; intern() is
/// callable from the same contexts (lock-free lookup, locked only on first
/// sight of a string); record_count()/to_json() are read-side calls --
/// drain the rings and must not race a concurrent drain.
class TraceRecordSink {
 public:
  virtual ~TraceRecordSink() = default;

  /// Id of @p s, assigning one on first sight. Never returns a nonzero id
  /// for the empty string (id 0 is reserved for "").
  virtual std::uint16_t intern(std::string_view s) = 0;

  /// Append a record to the calling partition's ring. The sink stamps
  /// `emit` (and routes by sim::tls_partition); callers fill everything
  /// else.
  virtual void push(TraceRecord r) = 0;

  /// Total records captured so far (drains the rings first).
  virtual std::size_t record_count() = 0;

  /// Render everything captured so far as ChromeTrace JSON in canonical
  /// (emit, partition, seq) order -- byte-stable for any worker count.
  virtual std::string to_json() = 0;
};

}  // namespace pm2::sim
