// pm2sim -- the binary telemetry sink: per-partition trace rings, a binary
// log format, and the canonical merge back to ChromeTrace JSON.
//
// TraceLog implements sim::TraceRecordSink over one TraceRing per engine
// partition. The producer path (push) is the partition's host worker: it
// stamps the record with the partition clock (`emit`), routes by
// sim::tls_partition and does one lock-free SPSC ring write -- no mutex, no
// formatting, no allocation. Strings cross the boundary as u16 ids from a
// lock-free-read intern table (insert-locked, first sight of a string only).
//
// Drain side -- three ways to empty the rings, all serialized per ring by a
// consumer mutex:
//   * inline spill (default): when a producer finds its own ring full it
//     drains it into that ring's spill vector itself. Lossless and
//     deterministic -- the spill happens at the same virtual-time point in
//     every run -- and safe because within a partition there is exactly one
//     producer thread at a time.
//   * a host drain thread (start_drain_thread): real concurrency for
//     long-running sweeps. While it runs, producers never self-drain (that
//     would make two consumers); a full ring then *drops* the record and
//     counts it.
//   * drain_now(): end-of-run (Cluster::run) and read-side calls.
//
// Overflow::kDrop makes the full-ring case always drop-with-counter
// (`obs.trace.dropped` on the MetricsRegistry plus a per-ring count): at a
// fixed capacity the drop set is a pure virtual-time property, so it is
// byte-for-byte reproducible across runs and worker counts.
//
// The canonical order that makes every export byte-stable at any worker
// count: records sort by (emit, ring, seq) -- `emit` is partition-clock
// virtual time, ring is the partition id, seq the push order within the
// ring, all host-schedule-independent. For a single-partition world this
// order *is* append order, so the converted JSON byte-matches a sink-less
// ChromeTrace fed the same events.
//
// write_binary() spills everything to a compact log (48 B/record + string
// table + per-ring sequence headers); tools/trace2json converts offline via
// read_binary()/data_to_json(), reusing the exact JSON emitter ChromeTrace
// uses, so online to_json() and the offline converter agree byte-for-byte.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_ring.hpp"
#include "simcore/engine.hpp"
#include "simcore/trace_sink.hpp"

namespace pm2::obs {

class TraceLog final : public sim::TraceRecordSink {
 public:
  enum class Overflow {
    kSpill,  ///< producer self-drains its full ring (lossless); drops only
             ///< while a drain thread owns the consumer side
    kDrop,   ///< full ring always drops-with-counter (deterministic drops)
  };

  struct Options {
    int rings = 1;                 ///< one per engine partition
    std::size_t capacity = 4096;   ///< records per ring (rounded up to 2^k)
    Overflow overflow = Overflow::kSpill;
    const sim::Engine* engine = nullptr;  ///< stamps `emit`; may be null
  };

  TraceLog() { configure(Options{}); }
  explicit TraceLog(const Options& opts) { configure(opts); }
  ~TraceLog() override { stop_drain_thread(); }
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  /// (Re)build the rings. Not callable while producers or a drain thread
  /// are active; discards previously captured records.
  void configure(const Options& opts);

  // --- sim::TraceRecordSink -----------------------------------------------

  std::uint16_t intern(std::string_view s) override;

  /// The producer hot path, inline: route by partition, stamp the partition
  /// clock, one SPSC ring write. The full-ring case is the out-of-line
  /// push_overflow (self-spill or drop-with-counter).
  void push(sim::TraceRecord r) override {
    r.emit = engine_ != nullptr ? engine_->now() : 0;
    push_prestamped(r);
  }

  /// push() for producers that already hold the partition clock: @p r.emit
  /// must be set to the partition's current virtual time. Skips the
  /// engine->now() lookup (flow stamps pass their stamp time, which *is*
  /// the partition clock at the stamp site).
  void push_prestamped(const sim::TraceRecord& r) {
    auto p = static_cast<std::size_t>(sim::tls_partition);
    if (p >= rings_.size()) p = 0;
    Ring& ring = *rings_[p];
    if (ring.ring.try_push(r)) [[likely]] return;
    push_overflow(ring, r);
  }

  std::size_t record_count() override;
  std::string to_json() override;

  // --- drain ----------------------------------------------------------------

  /// Drain every ring into its spill store (any thread; serialized per ring).
  void drain_now();

  /// Start a host thread draining all rings every @p period. While it runs,
  /// producers drop on a full ring instead of self-draining.
  void start_drain_thread(
      std::chrono::microseconds period = std::chrono::microseconds(200));

  /// Join the drain thread (if any) and run a final drain.
  void stop_drain_thread();

  bool drain_thread_running() const {
    return drain_running_.load(std::memory_order_acquire);
  }

  // --- results --------------------------------------------------------------

  std::size_t ring_count() const { return rings_.size(); }

  /// Records dropped on full rings so far (sum over rings).
  std::uint64_t dropped() const;
  std::uint64_t ring_dropped(int ring) const;

  /// Drain, then return every record merged in canonical (emit, ring, seq)
  /// order -- the byte-stable export order.
  std::vector<sim::TraceRecord> canonical_records();

  /// Everything needed to interpret a log outside this process.
  struct Data {
    std::vector<std::vector<sim::TraceRecord>> rings;
    std::vector<std::string> strings;
    std::vector<std::uint64_t> dropped;
    std::size_t record_count() const {
      std::size_t n = 0;
      for (const auto& r : rings) n += r.size();
      return n;
    }
  };

  /// Spill everything and write the compact binary log; throws on I/O
  /// failure. Layout: header, per-ring sequence headers (count, first seq,
  /// dropped), raw records per ring, string table.
  void write_binary(const std::string& path);

  /// Parse a binary log; throws std::runtime_error on malformed input.
  static Data read_binary(const std::string& path);

  /// Canonical-merge @p data and render ChromeTrace JSON -- byte-identical
  /// to what to_json() produced in the process that wrote the log.
  static std::string data_to_json(const Data& data);

 private:
  struct Ring {
    explicit Ring(std::size_t cap) : ring(cap) {}
    TraceRing ring;
    std::mutex consume_mu;                  ///< serializes pop_n callers
    std::vector<sim::TraceRecord> spill;    ///< drained records, push order
    std::atomic<std::uint64_t> dropped{0};
  };

  struct InternEntry {
    std::string str;
    std::uint64_t hash = 0;
    std::uint16_t id = 0;
  };

  static constexpr std::size_t kInternSlots = 8192;  // power of two
  static constexpr std::size_t kMaxInterned = kInternSlots / 2;

  void push_overflow(Ring& ring, const sim::TraceRecord& r);
  void spill_ring(Ring& r);
  static std::vector<sim::TraceRecord> canonicalize(
      const std::vector<const std::vector<sim::TraceRecord>*>& rings);
  static std::string records_to_json(
      const std::vector<sim::TraceRecord>& canonical,
      const std::vector<std::string>& strings);

  Overflow overflow_ = Overflow::kSpill;
  const sim::Engine* engine_ = nullptr;
  std::vector<std::unique_ptr<Ring>> rings_;
  Counter dropped_metric_;  ///< obs.trace.dropped

  // Intern table: lock-free probing reads, mutexed inserts.
  std::array<std::atomic<const InternEntry*>, kInternSlots> slots_{};
  std::mutex intern_mu_;
  std::deque<InternEntry> entries_;
  std::vector<std::string> strings_{std::string()};  // id -> string; [0]=""

  std::thread drain_thread_;
  std::atomic<bool> drain_running_{false};
  std::atomic<bool> drain_stop_{false};
};

}  // namespace pm2::obs
