// pm2bench -- host-clock spans recorded from outside the program.
//
// The benchmark wraps its own calls into each pm2sim layer (Cluster
// construction/spawn/run/destruction, nmad isend/irecv/wait, madmpi
// sendrecv/allreduce) in spans: name, start, end, parent and episode id on
// the host steady clock. Spans stay in memory (one buffer per host thread,
// so the engine's worker threads never contend) and are written out once,
// when the benchmark ends. A null SpanLog* means "untraced": no clock read,
// no allocation.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pm2bench {

enum class SpanKind : std::uint8_t {
  kEpisode,    ///< one whole episode: ctor + spawn + run + dtor
  kCtor,       ///< nm::Cluster constructor
  kSpawn,      ///< spawning the episode's simulated threads
  kRun,        ///< engine run phase
  kDtor,       ///< nm::Cluster destructor
  kIsend,      ///< nm::Core::isend
  kIrecv,      ///< nm::Core::irecv
  kWait,       ///< nm::Core::wait (host time includes other fibers' turns)
  kSendrecv,   ///< madmpi::Comm::sendrecv
  kAllreduce,  ///< madmpi::Comm::allreduce_sum
  kCount,
};

const char* span_name(SpanKind k);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t episode = 0;
  SpanKind kind = SpanKind::kEpisode;
  std::int64_t start_ns = 0;  ///< host steady clock, relative to the log
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  /// Keeps at most @p capacity spans; later ones are counted as dropped.
  explicit SpanLog(std::size_t capacity);
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  std::int64_t now_ns() const;
  std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }
  void add(const Span& s);

  /// Every recorded span, in (start, id) order. Call once no thread records.
  std::vector<Span> collect() const;
  std::uint64_t dropped() const { return dropped_.load(); }

  /// CSV: id,parent,episode,name,start_ns,end_ns.
  void write_csv(const std::string& path) const;

 private:
  std::vector<Span>& local_buffer();

  const std::int64_t origin_ns_;
  const std::size_t capacity_;
  std::atomic<std::uint64_t> ids_{0};
  std::atomic<std::size_t> used_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mu_;  ///< guards buffers_ (registration only)
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// RAII span; inert when @p log is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanKind kind, std::uint32_t episode,
             std::uint64_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  Span span_;
};

/// Self time of each span: its duration minus the part of its interval
/// covered by the union of its children. Indexed like @p spans.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

}  // namespace pm2bench
