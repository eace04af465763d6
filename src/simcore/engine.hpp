// pm2sim -- the discrete-event engine.
//
// One Engine owns the virtual time of an entire simulated cluster. Every
// higher layer (machine model, thread scheduler, NICs, locks) expresses the
// passage of time as events scheduled here.
//
// The engine runs in one of two shapes:
//
//  * *single-partition* (the default): one event heap, one clock, strictly
//    single-host-threaded -- the deterministic reference every test and
//    figure was built on. Behavior is bit-identical to the pre-partitioned
//    engine.
//  * *partitioned*: configure_partitions(n, lookahead) splits the world
//    into n partitions, each with its own event heap, virtual clock and
//    executed-event counter. Partitions advance in conservative windows:
//    every partition may execute events strictly below
//    `horizon = T_min + lookahead` (T_min = earliest pending event across
//    all partitions) without seeing anything from its peers, because the
//    only cross-partition edges are simnet wire deliveries and those take
//    at least `lookahead` of virtual time. Cross-partition events travel
//    through per-(src,dst) mailboxes, drained at the window barrier in a
//    canonical (when, src, seq) order, so the schedule -- and therefore
//    every virtual timestamp and every CSV -- is byte-identical no matter
//    how many host workers execute the windows. set_workers(w) spreads the
//    partitions over w host threads (partition p runs on worker p % w,
//    always the same thread for a given run).
//
// Determinism contract: for a fixed partition count, runs are identical
// across worker counts (1 or many) and across repeated runs. Changing the
// *partition* count changes event interleaving order (each partition has
// its own tie-break sequence), so compare like with like.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "simcore/event_queue.hpp"
#include "simcore/partition.hpp"
#include "simcore/time.hpp"

namespace pm2::sim {

/// Discrete-event simulation engine: virtual clock(s) plus event queue(s).
///
/// Usage pattern:
/// ```
/// Engine eng;
/// eng.schedule_after(microseconds(3), [] { ... });
/// eng.run();                 // until no event remains
/// ```
/// Components never busy-wait on the host: "waiting" is always expressed as
/// a scheduled wake-up event or by simply not being scheduled at all.
class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- partitioning ---------------------------------------------------------

  /// Split the world into @p n partitions synchronized with conservative
  /// @p lookahead (ns, > 0 when n > 1). Must be called before any event is
  /// scheduled and at most once. n == 1 keeps the reference single-heap
  /// engine (lookahead is ignored).
  void configure_partitions(int n, Time lookahead);

  int num_partitions() const { return static_cast<int>(parts_.size()); }
  Time lookahead() const { return lookahead_; }

  /// Host worker threads used by run()/run_until() in partitioned mode
  /// (clamped to the partition count; 1 = run all partitions on the calling
  /// thread). The schedule is identical for every value.
  void set_workers(int w);
  int workers() const { return workers_; }

  /// The partition the calling thread is currently executing for (the
  /// ambient PartitionScope during setup, the event's partition during a
  /// run, 0 otherwise).
  int current_partition() const { return active_partition(); }

  /// RAII: route schedule_at()/schedule_after() and the partition-sharded
  /// singletons (metrics, simsan) to partition @p p for the current thread.
  /// Used around world construction so every component's events live in its
  /// node's partition.
  class PartitionScope {
   public:
    PartitionScope(Engine& engine, int p);
    ~PartitionScope() { tls_partition = prev_; }
    PartitionScope(const PartitionScope&) = delete;
    PartitionScope& operator=(const PartitionScope&) = delete;

   private:
    int prev_;
  };

  // --- clock & scheduling ---------------------------------------------------

  /// Current virtual time of the calling context's partition.
  Time now() const { return parts_[active_partition()]->now; }

  /// Virtual clock of one partition (diagnostics, tests).
  Time partition_now(int p) const { return part(p).now; }

  /// Schedule a callback at absolute virtual time @p when in the calling
  /// context's partition. @p when must not be in the past. @p tag names the
  /// node the event belongs to (see EventTag; untagged bounds every node).
  EventHandle schedule_at(Time when, EventQueue::Callback cb,
                          EventTag tag = {});

  /// Schedule a callback @p delay nanoseconds from now (delay >= 0).
  EventHandle schedule_after(Time delay, EventQueue::Callback cb,
                             EventTag tag = {});

  /// Schedule a callback into partition @p dst at time @p when. The only
  /// legal producer of true cross-partition events is the simnet wire (the
  /// delivery time is what carries the lookahead): @p when must be at least
  /// the current window's floor plus the configured lookahead. Same-
  /// partition destinations degrade to a plain schedule_at. Cross events
  /// are buffered in a per-(src,dst) mailbox and merged into the target
  /// heap at the next window barrier in (when, src partition, send seq)
  /// order -- deterministic for any worker count.
  void schedule_cross(int dst, Time when, EventQueue::Callback cb,
                      EventTag tag = {});

  /// Schedule a callback at @p when in the calling context's partition in
  /// the place of an event of that partition cancelled earlier: among
  /// events of the same time it keeps that event's order (@p order, its
  /// EventHandle::order()). Dormant nodes restore their idle ticks so.
  EventHandle schedule_in_order(Time when, EventQueue::Callback cb,
                                EventTag tag, std::uint64_t order);

  /// A fresh node id for EventTag::owner (one per simulated node; the
  /// machine model asks once at construction).
  std::int32_t add_owner() {
    dormant_.push_back(nullptr);
    return next_owner_++;
  }

  /// Cancel a pending event. Safe on fired/cancelled handles. (Cross-
  /// partition events are not cancellable -- they have no handle.)
  bool cancel(EventHandle& h);

  // --- running --------------------------------------------------------------

  /// Run until the queues drain or stop() is called.
  void run();

  /// Run events up to and including time @p deadline; clocks are left at
  /// @p deadline (single-partition: min(deadline, last fired event time) as
  /// before).
  void run_until(Time deadline);

  /// Run exactly one event if any is pending. Returns false if queue empty.
  /// Single-partition engines only.
  bool step();

  /// Request run()/run_until() to return. Single-partition: after the
  /// current event. Partitioned: at the next window boundary (every
  /// partition finishes the current window first, which keeps the stop
  /// point identical for every worker count).
  void stop() { stopped_.store(true, std::memory_order_relaxed); }

  /// True if stop() was called during the current/last run.
  bool stopped() const { return stopped_.load(std::memory_order_relaxed); }

  /// Run-ahead: advance the calling partition's clock straight to @p when
  /// if an event scheduled there now would be the very next one to fire.
  /// Returns false (and changes nothing) unless all of these hold:
  ///  * @p when is strictly below the partition's next pending event (an
  ///    event at an equal time was scheduled earlier and fires first);
  ///  * a run()/run_until()/window is executing and @p when is within its
  ///    limit -- the run_until deadline (inclusive) or the window horizon
  ///    (exclusive); step() never runs ahead;
  ///  * stop() has not been requested and the window was not aborted.
  /// On true the caller continues as if its wake-up event had just been
  /// popped: the schedule is identical to scheduling and suspending, minus
  /// the event round trip.
  bool try_advance(Time when);

  /// Idle fast-forward horizon of node @p owner, for the calling
  /// partition: the scheduler may replay @p owner's dry idle-poll passes at
  /// times strictly below the returned value, instead of executing them as
  /// events. It is the earliest of
  ///  * @p owner's next pending event that is not one of its idle ticks
  ///    (while an untagged event is pending, which bounds every node, the
  ///    partition's next event of any kind);
  ///  * one past the run limit: the run_until deadline (inclusive) or the
  ///    window horizon (exclusive).
  /// Returns now() -- nothing may be replayed -- outside a run()/
  /// run_until()/window (step() never fast-forwards), after stop(), or once
  /// the window was aborted. The caller bounds the result further by the
  /// minimum node-to-node latency: within it, nothing another node does can
  /// reach @p owner. This bounds a node with a thread running or runnable;
  /// a node with every core idle goes dormant instead (make_dormant) and
  /// replays up to its next event, which may lie windows ahead: a tick is
  /// armed less than that latency before it is due, so after any delivery
  /// due at that time was sent, and catch-up keeps that order.
  Time idle_horizon(std::int32_t owner);

  /// Record @p n idle-poll passes replayed without an event (all
  /// partitions add up in elided_ticks()).
  void note_elided_ticks(std::uint64_t n) {
    part(active_partition()).elided_ticks += n;
  }

  /// A node that keeps none of its idle ticks in the heap (see
  /// make_dormant).
  class Dormant {
   public:
    /// Replay the node's idle passes that the engine would run before an
    /// event at (@p when, @p order) -- strictly earlier in time, or at
    /// @p when and earlier in schedule order. Returns the due time of the
    /// node's next pass.
    virtual Time catch_up(Time when, std::uint64_t order) = 0;
    /// Schedule the passes still ahead as events again: the node is no
    /// longer dormant.
    virtual void wake() = 0;

   protected:
    ~Dormant() = default;
  };

  /// Make node @p owner dormant in the calling partition: it has cancelled
  /// its idle ticks and only idle passes would run on it until its next
  /// event. The engine catches it up (Dormant::catch_up, then wake) before
  /// it runs an event owned by @p owner or an untagged one (which may reach
  /// any node), before cross-partition events for it join the heap, and at
  /// the end of a run (up to the run_until deadline, or when run() would
  /// otherwise drain). Between windows it catches every dormant node up to
  /// where the window stopped and counts its next pass in T_min, so the
  /// windows are the ones its ticks would have made. Returns false (and
  /// changes nothing) outside a run()/run_until()/window or after stop():
  /// step() runs every tick as an event.
  bool make_dormant(std::int32_t owner, Dormant& node);

  // --- introspection --------------------------------------------------------

  /// Number of live pending events (all partitions; excludes undelivered
  /// mailbox entries).
  std::size_t pending_events() const;

  /// Total events executed since construction (all partitions).
  std::uint64_t events_executed() const;

  /// Successful try_advance() calls since construction (all partitions):
  /// each stands for one event the engine did not have to execute.
  std::uint64_t run_aheads() const;

  /// Idle-poll passes replayed by the scheduler's fast-forward since
  /// construction (all partitions): each stands for one event the engine
  /// did not have to execute. For any world,
  /// events_executed() + run_aheads() + elided_ticks() under run() equals
  /// events_executed() under a step() loop.
  std::uint64_t elided_ticks() const;

  /// Events executed by one partition (load-balance diagnostics).
  std::uint64_t partition_events_executed(int p) const {
    return part(p).executed;
  }

  /// Synchronization windows executed by partitioned runs.
  std::uint64_t windows_executed() const { return windows_; }

  /// Cross-partition events sent through mailboxes.
  std::uint64_t cross_events() const;

  /// Times a sender's window was cut short by a full mailbox.
  std::uint64_t mailbox_overflows() const;

  /// Soft mailbox capacity: when a (src,dst) mailbox reaches this many
  /// undelivered events, the sending partition ends its current window
  /// early (deterministic backpressure -- the events are delivered at the
  /// barrier as usual and the window resumes from the same horizon rule).
  void set_mailbox_capacity(std::size_t cap);
  std::size_t mailbox_capacity() const { return mailbox_cap_; }

 private:
  struct CrossEvent {
    Time when;
    std::uint64_t seq;  ///< per-source send sequence (ties: src, then seq)
    int src;
    EventTag tag;
    EventQueue::Callback cb;
  };

  /// run_limit outside run()/run_until()/a window: no time qualifies.
  static constexpr Time kNoRunAhead = -1;

  /// One shard of the world: event heap + clock + counters. Padded so two
  /// workers' hot partitions never share a cache line.
  struct alignas(64) Partition {
    EventQueue queue;
    Time now = 0;
    std::uint64_t executed = 0;
    std::uint64_t out_seq = 0;     ///< next cross-event send sequence
    std::uint64_t cross_sent = 0;
    std::uint64_t overflows = 0;
    Time window_floor = 0;         ///< T_min of the window being executed
    Time window_end = 0;           ///< first time the last window left alone
    bool window_abort = false;     ///< backpressure: end this window early
    Time run_limit = kNoRunAhead;  ///< latest time try_advance may reach
    std::uint64_t run_aheads = 0;
    std::uint64_t elided_ticks = 0;
    std::vector<CrossEvent> inbox_scratch;  ///< drain-time merge buffer
    std::vector<std::int32_t> dormant;      ///< owners made dormant here
    /// Next pass of a dormant node, as of the last drain.
    Time dormant_next = kTimeInfinity;
  };

  /// Arms run-ahead on one partition for the duration of a run.
  class RunAheadScope {
   public:
    RunAheadScope(Partition& p, Time limit) : p_(p) { p_.run_limit = limit; }
    ~RunAheadScope() { p_.run_limit = kNoRunAhead; }
    RunAheadScope(const RunAheadScope&) = delete;
    RunAheadScope& operator=(const RunAheadScope&) = delete;

   private:
    Partition& p_;
  };

  int active_partition() const {
    const int p = tls_partition;
    return p > 0 && p < static_cast<int>(parts_.size()) ? p : 0;
  }
  Partition& part(int p) { return *parts_.at(static_cast<std::size_t>(p)); }
  const Partition& part(int p) const {
    return *parts_.at(static_cast<std::size_t>(p));
  }
  std::vector<CrossEvent>& mailbox(int src, int dst) {
    return mail_[static_cast<std::size_t>(src) * parts_.size() +
                 static_cast<std::size_t>(dst)];
  }

  Time window_horizon(Time tmin) const;
  bool step_partition(Partition& p);
  /// Catch up the dormant node(s) the head event of @p p may reach.
  void wake_for_head(Partition& p);
  /// Catch up and wake node @p owner of partition @p idx, if dormant.
  void wake_owner(int idx, std::int32_t owner, Time when, std::uint64_t order);
  /// Catch up and wake every dormant node of partition @p idx.
  void wake_all(int idx, Time when, std::uint64_t order);
  /// Between windows, before partition @p idx's drained cross events
  /// (inbox_scratch) join its heap: see make_dormant.
  void settle_dormant(int idx);
  /// End of a run: catch every dormant node up to the run_until
  /// @p deadline (inclusive), or to its partition's clock after stop().
  void wake_after_run(Time deadline);
  /// Partition @p p's next event or dormant pass, as of the last drain.
  static Time next_time(Partition& p) {
    return std::min(p.queue.next_time(), p.dormant_next);
  }
  void drain_mailboxes_for(int dst);
  /// Execute partition @p idx's share of the window [tmin, horizon).
  void run_window(int idx, Time tmin, Time horizon, Time deadline);
  void run_windows(Time deadline);
  void run_windows_parallel(Time deadline);

  std::vector<std::unique_ptr<Partition>> parts_;
  /// Per-(src,dst) mailboxes, indexed src * n + dst. Written only by src's
  /// executing thread during a window, drained only by dst's thread after
  /// the barrier -- the barrier is the hand-off, so no locks are needed.
  std::vector<std::vector<CrossEvent>> mail_;
  /// Per owner: the node while it is dormant, else nullptr. An owner's
  /// entry is only touched by the thread running its partition.
  std::vector<Dormant*> dormant_;
  Time lookahead_ = 0;
  int workers_ = 1;
  std::size_t mailbox_cap_ = 4096;
  std::uint64_t windows_ = 0;
  std::int32_t next_owner_ = 0;
  std::atomic<bool> stopped_{false};
};

}  // namespace pm2::sim
