// pm2sim -- Chrome trace-event timeline export.
//
// Records spans and instants on the virtual clock and writes the Chrome
// trace-event JSON format (load in chrome://tracing or https://ui.perfetto.dev):
// processes = simulated nodes, threads = cores. The scheduler and the NICs
// feed this when a Cluster has its timeline enabled.
//
// Two recording backends share this front-end API:
//
//  - Ring sink (default under Cluster): set_record_sink() attaches a
//    TraceRecordSink (obs::TraceLog) and every event becomes one fixed-size
//    binary record pushed into the calling partition's lock-free ring --
//    no mutex, no string copy. Names are interned to u16 ids; hot call
//    sites can pre-intern and use the id overloads to skip even the hash
//    lookup. to_json() then renders the canonical (emit, partition, seq)
//    merge, which is byte-stable for any worker count.
//
//  - Direct storage (no sink attached; simcore's own tests, which cannot
//    depend on obs): events append to a mutexed vector and to_json()
//    renders them in append order -- reproducible only for single-worker
//    runs.
//
// Both backends produce the same JSON bytes for the same event sequence:
// they share append_trace_event_json() below.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "simcore/time.hpp"
#include "simcore/trace_sink.hpp"

namespace pm2::sim {

/// One trace event with all strings resolved, ready to serialize. The
/// direct vector store and the binary-record converter both lower their
/// events to this view so the JSON bytes match exactly.
struct TraceEventView {
  char phase = 'X';  // 'X' complete, 'i' instant, 'C' counter, 'M' metadata,
                     // 's'/'t'/'f' flow start/step/end
  std::string_view name;
  std::string_view category;
  std::string_view meta_kind;  // for 'M': "process_name" / "thread_name"
  int pid = 0;
  int tid = 0;
  Time ts = 0;
  Time dur = 0;
  double value = 0;           // for 'C'
  std::uint64_t flow_id = 0;  // for 's'/'t'/'f'
};

/// Append one trace-event JSON object (no separators, no newline) to @p out.
void append_trace_event_json(std::string& out, const TraceEventView& e);

class ChromeTrace {
 public:
  /// Route all subsequent events into @p sink as binary records instead of
  /// the internal vector. Attach before recording or interning anything;
  /// pass nullptr to return to direct storage.
  void set_record_sink(TraceRecordSink* sink) { sink_ = sink; }
  TraceRecordSink* record_sink() const { return sink_; }

  /// Intern @p s in the active backend and return its id (0 is always "").
  /// Hot call sites cache the result and use the id overloads below.
  std::uint16_t intern(std::string_view s);

  /// A completed span of [start, start+duration) on (pid, tid).
  void complete_event(std::string_view name, std::string_view category,
                      int pid, int tid, Time start, Time duration);
  void complete_event(std::uint16_t name_id, std::uint16_t category_id,
                      int pid, int tid, Time start, Time duration);

  /// A point event.
  void instant_event(std::string_view name, std::string_view category,
                     int pid, int tid, Time t);
  void instant_event(std::uint16_t name_id, std::uint16_t category_id,
                     int pid, int tid, Time t);

  /// Counter sample (renders as a chart track).
  void counter_event(std::string_view name, int pid, Time t, double value);

  /// Flow events (ph "s" / "t" / "f"): one arrow per @p id, drawn by
  /// Perfetto from the enclosing slice at flow_begin to the slices at each
  /// flow_step and flow_end -- across processes, which is how send -> recv
  /// arrows cross node tracks. Timestamps must be non-decreasing per id.
  void flow_begin(std::string_view name, std::string_view category,
                  int pid, int tid, Time t, std::uint64_t id);
  void flow_step(std::string_view name, std::string_view category,
                 int pid, int tid, Time t, std::uint64_t id);
  void flow_end(std::string_view name, std::string_view category,
                int pid, int tid, Time t, std::uint64_t id);

  /// Metadata: display names for processes (nodes) and threads (cores).
  void set_process_name(int pid, std::string_view name);
  void set_thread_name(int pid, int tid, std::string_view name);

  std::size_t event_count() const;

  /// Serialize to trace-event JSON.
  std::string to_json() const;

  /// Write to a file; throws on I/O failure.
  void write(const std::string& path) const;

 private:
  struct Event {
    char phase;
    std::uint16_t name = 0;  // interned; for 'M' the display name
    std::uint16_t cat = 0;   // interned; for 'M' the meta kind
    int pid = 0;
    int tid = 0;
    Time ts = 0;
    Time dur = 0;
    double value = 0;
    std::uint64_t flow_id = 0;
  };

  std::uint16_t intern_locked(std::string_view s);
  void record(char phase, std::uint16_t name, std::uint16_t cat, int pid,
              int tid, Time ts, Time dur, double value, std::uint64_t flow_id);

  TraceRecordSink* sink_ = nullptr;
  mutable std::mutex mu_;                          // guards the direct store
  std::vector<Event> events_;                      // direct store only
  std::vector<std::string> strings_{std::string()};  // direct id -> string
  std::unordered_map<std::string, std::uint16_t> ids_{{std::string(), 0}};
};

}  // namespace pm2::sim
