// pm2sim -- cancellable time-ordered event queue.
//
// The queue is the heart of the discrete-event engine. Keys are (time,
// sequence) pairs -- ties on time break by insertion order, so simulation
// runs are fully deterministic. Two structures hold pending entries:
//
//  * a *monotone lane*: events scheduled in nondecreasing key order append
//    to a sorted FIFO and pop off its front -- O(1), branch-predictable,
//    sequential memory. Discrete-event workloads are full of such streams
//    (timer ticks, monotone NIC wire completions, schedule_after(0) kicks),
//    and bulk schedule-then-run patterns ride entirely in the lane;
//  * a 4-ary implicit heap for everything else. Four 16-byte PODs per
//    cache line and half the sift-down depth of a binary heap, which is
//    what the pop-heavy engine loop is bound by at scale.
//
// pop() takes the smaller of (lane front, heap top); each schedule costs at
// most one extra comparison versus a pure heap.
//
// The hot path is allocation-free in steady state:
//  * callbacks live in slab-pooled slots as small-buffer-optimized
//    InplaceFunction objects (no std::function heap traffic); slots are
//    recycled through an intrusive free list threaded through their keys;
//  * handles carry the event's 64-bit key -- no shared_ptr control block
//    per event; a released slot can never match a stale key, so handles to
//    fired/cancelled events are detected in O(1) even after slot reuse;
//  * heap/lane entries are 16-byte PODs, so sifts move no callables.
//
// Cancellation is lazy: cancel() releases the slot immediately (the capture
// is destroyed, the handle goes stale) but leaves the heap/lane entry in
// place to be dropped when it reaches the front. To keep cancel-heavy
// workloads from retaining unbounded dead entries, both structures are
// compacted whenever dead entries outnumber both live ones and a fixed
// floor, which bounds dead_entries() at max(kCompactFloor, size()) after
// every operation.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "simcore/inplace_function.hpp"
#include "simcore/time.hpp"

namespace pm2::sim {

class EventQueue;

/// Inline capture budget for event callbacks. Sized so that every in-tree
/// capture fits without heap fallback; the largest is the NIC wire-done
/// completion (this + shared state + a user std::function, 56 bytes).
inline constexpr std::size_t kEventCallbackCapacity = 64;

/// The simulated node an event belongs to. The engine uses it to answer
/// "when is node N's next event that is not one of its idle-poll ticks?"
/// (Engine::idle_horizon), which bounds the scheduler's dry idle-poll
/// fast-forward. Untagged events belong to no node and bound every node.
struct EventTag {
  static constexpr std::int32_t kNoOwner = -1;
  std::int32_t owner = kNoOwner;  ///< Engine::add_owner() id, or kNoOwner
  bool idle_tick = false;         ///< an idle-poll tick of @p owner

  static EventTag node(std::int32_t owner) { return EventTag{owner, false}; }
  static EventTag idle(std::int32_t owner) { return EventTag{owner, true}; }
};

/// Opaque handle to a scheduled event, usable to cancel it.
///
/// Handles are two words, trivially copyable, and go stale safely: a
/// handle's key names one specific (slot, schedule-sequence) pairing, so
/// once the event fires or is cancelled the handle reports !pending(), even
/// if the slot has been reused by a newer event. A handle must not be
/// queried after its EventQueue has been destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event has neither fired nor been cancelled yet.
  bool pending() const;

  /// True if this handle refers to some event (even one that already fired).
  bool valid() const { return queue_ != nullptr; }

  /// Schedule order: of two events of one queue scheduled for the same
  /// time, the one with the smaller order fires first.
  std::uint64_t order() const { return key_; }

 private:
  friend class EventQueue;
  friend class Engine;  // routes Engine::cancel to the owning queue
  EventHandle(EventQueue* queue, std::uint64_t key)
      : queue_(queue), key_(key) {}

  EventQueue* queue_ = nullptr;
  std::uint64_t key_ = 0;
};

/// Priority queue of timed callbacks with deterministic tie-breaking, lazy
/// cancellation and slab-pooled slots. Not thread-safe by itself: the
/// partitioned engine gives each partition its own queue and guarantees one
/// host thread touches it at a time (single-partition worlds are strictly
/// single-threaded, as before).
class EventQueue {
 public:
  using Callback = InplaceFunction<kEventCallbackCapacity>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule @p cb to fire at absolute time @p when, owned by @p tag.
  EventHandle schedule(Time when, Callback cb, EventTag tag = {}) {
    assert(seq_ < (std::uint64_t{1} << (64 - kSlotBits)) && "sequence overflow");
    return insert(when, std::move(cb), tag, seq_++ << kSlotBits);
  }

  /// Schedule @p cb at @p when in the place of an event of this queue that
  /// was cancelled: among events of the same time it fires in that event's
  /// schedule order, @p order (its EventHandle::order()).
  EventHandle schedule_in_order(Time when, Callback cb, EventTag tag,
                                std::uint64_t order) {
    assert((order >> kSlotBits) < seq_ && "order of an event never scheduled");
    return insert(when, std::move(cb), tag, order & ~kSlotMask);
  }

  /// Cancel a previously scheduled event. No-op if already fired/cancelled.
  /// Returns true if the event was pending and is now cancelled. The
  /// callback's capture is destroyed immediately.
  bool cancel(EventHandle& h) {
    if (h.queue_ != this || !key_pending(h.key_)) return false;
    note_released(slot(slot_of(h.key_)).tag);
    release_slot(slot_of(h.key_));
    assert(live_ > 0);
    --live_;
    maybe_compact();
    return true;
  }

  /// True if no live event remains.
  bool empty() const { return live_ == 0; }

  /// Number of live (pending) events.
  std::size_t size() const { return live_; }

  /// Time of the earliest live event; kTimeInfinity if empty.
  Time next_time() {
    drop_dead();
    Time t = kTimeInfinity;
    if (!heap_.empty()) t = heap_[0].when;
    if (!lane_empty() && lane_[lane_head_].when < t) t = lane_[lane_head_].when;
    return t;
  }

  /// A time no later than @p limit and no later than any live event that
  /// bounds node @p owner: one it owns that is not an idle tick, or an
  /// untagged one. Exact while no untagged event is pending (then the
  /// earliest event of all stands in for them). O(1) when the owner has
  /// no such event (live counts per owner); otherwise O(its pending
  /// events): from its first query on, the queue keeps a lazily pruned
  /// list of the owner's non-idle entries.
  Time next_time_bounding(std::int32_t owner, Time limit);

  /// The earliest live event: its time, schedule order and owner
  /// (EventTag::kNoOwner if untagged). Pre: !empty().
  struct Head {
    Time when;
    std::uint64_t order;
    std::int32_t owner;
  };
  Head head() {
    drop_dead();
    assert(live_ > 0 && "head() on empty EventQueue");
    const HeapEntry& e = lane_first() ? lane_[lane_head_] : heap_[0];
    const std::int32_t code = slot(slot_of(e.key)).tag;
    return {e.when, e.key, code == kUntaggedCode ? EventTag::kNoOwner : code >> 1};
  }

  /// Pop the earliest live event. Pre: !empty().
  /// Returns its (time, callback); the callback is not invoked here so the
  /// engine can advance the clock first.
  std::pair<Time, Callback> pop() {
    drop_dead();
    assert(live_ > 0 && "pop() on empty EventQueue");
    HeapEntry e;
    if (lane_first()) {
      e = lane_[lane_head_++];
      if (lane_empty()) lane_trim();
    } else {
      assert(!heap_.empty());
      e = heap_[0];
      remove_top();
    }
    const std::uint32_t s = slot_of(e.key);
    note_released(slot(s).tag);
    Callback cb = std::move(slot(s).cb);
    release_slot(s);
    --live_;
    return {e.when, std::move(cb)};
  }

  /// Total number of events ever scheduled (diagnostics).
  std::uint64_t total_scheduled() const { return seq_; }

  /// Cancelled-but-not-yet-dropped entries (diagnostics). Compaction keeps
  /// this bounded at max(kCompactFloor, size()) after every operation.
  std::size_t dead_entries() const {
    return heap_.size() + (lane_.size() - lane_head_) - live_;
  }

  /// Event slots currently pooled for reuse (diagnostics).
  std::size_t free_slots() const { return num_free_; }

  /// Dead entries below this floor never trigger compaction (avoids O(n)
  /// rebuilds over tiny heaps where lazy dropping is cheaper).
  static constexpr std::size_t kCompactFloor = 64;

 private:
  friend class EventHandle;

  // An event's identity is one 64-bit key: (schedule sequence << kSlotBits)
  // | slot index. The slot records the key of its current occupant, so
  // liveness of a heap entry or handle is a single 64-bit compare, and heap
  // entries shrink to 16 bytes (four children per cache line, which the
  // memory-bound sift loop feels). Freed slots link into an intrusive free
  // list through their key field, tagged with the top bit -- live keys have
  // seq < 2^40, so a free slot can never match a stale entry or handle.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kFreeTag = std::uint64_t{1} << 63;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct Slot {
    Callback cb;
    /// Occupant's key; kFreeTag | next-free-index when on the free list.
    std::uint64_t key = kFreeTag | kNoSlot;
    /// Occupant's EventTag, packed by tag_code().
    std::int32_t tag = kUntaggedCode;
  };
  /// Packed EventTag: -1 untagged, else owner * 2 + idle_tick.
  static constexpr std::int32_t kUntaggedCode = -1;
  static std::int32_t tag_code(EventTag t) {
    return t.owner < 0 ? kUntaggedCode : t.owner * 2 + (t.idle_tick ? 1 : 0);
  }
  /// POD heap/lane entry; the callback stays in its slot so sifts are cheap.
  struct HeapEntry {
    Time when;
    std::uint64_t key;
  };
  /// Strict weak order "fires after": (when, seq) lexicographic, reversed.
  /// Keys compare like sequences: slots occupy the low bits and sequence
  /// numbers are unique, so equal-when entries order by schedule order.
  static bool later(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.key > b.key;
  }
  static std::uint32_t slot_of(std::uint64_t key) {
    return static_cast<std::uint32_t>(key & kSlotMask);
  }

  /// Slots live in fixed chunks so growth never moves a pending callback.
  static constexpr std::size_t kSlotChunkShift = 10;
  static constexpr std::size_t kSlotChunk = std::size_t{1} << kSlotChunkShift;

  Slot& slot(std::uint32_t i) {
    return chunks_[i >> kSlotChunkShift][i & (kSlotChunk - 1)];
  }
  const Slot& slot(std::uint32_t i) const {
    return chunks_[i >> kSlotChunkShift][i & (kSlotChunk - 1)];
  }
  bool key_pending(std::uint64_t key) const {
    const std::uint32_t s = slot_of(key);
    return s < num_slots_ && slot(s).key == key;
  }
  bool entry_dead(const HeapEntry& e) const {
    return slot(slot_of(e.key)).key != e.key;
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t s = free_head_;
      free_head_ = static_cast<std::uint32_t>(slot(s).key);
      --num_free_;
      return s;
    }
    if (num_slots_ == chunks_.size() * kSlotChunk) grow_slots();
    assert(num_slots_ <= kSlotMask && "too many concurrent events");
    return static_cast<std::uint32_t>(num_slots_++);
  }

  /// Destroy the slot's capture, mark it free, link it for reuse.
  void release_slot(std::uint32_t s) {
    Slot& sl = slot(s);
    sl.cb.reset();
    sl.key = kFreeTag | free_head_;
    free_head_ = s;
    ++num_free_;
  }

  void drop_dead() {
    while (lane_head_ < lane_.size() && entry_dead(lane_[lane_head_])) {
      ++lane_head_;
    }
    if (lane_empty()) lane_trim();
    while (!heap_.empty() && entry_dead(heap_[0])) {
      remove_top();
    }
  }

  void maybe_compact() {
    const std::size_t dead = heap_.size() + (lane_.size() - lane_head_) - live_;
    if (dead > kCompactFloor && dead > live_) compact();
  }

  bool lane_empty() const { return lane_head_ == lane_.size(); }
  /// True if the earliest live entry is the lane's front (after drop_dead).
  bool lane_first() const {
    return !lane_empty() && (heap_.empty() || later(heap_[0], lane_[lane_head_]));
  }

  EventHandle insert(Time when, Callback cb, EventTag tag,
                     std::uint64_t seq_bits) {
    const std::uint32_t s = acquire_slot();
    const std::uint64_t key = seq_bits | s;
    Slot& sl = slot(s);
    sl.cb = std::move(cb);
    sl.key = key;
    sl.tag = tag_code(tag);
    const HeapEntry e{when, key};
    note_scheduled(sl.tag, e);
    // The lane stays sorted by key: an entry joins its back only if it
    // fires after it. Fresh keys grow monotonically, so for them this is a
    // time comparison and nondecreasing streams ride the O(1) lane.
    if (lane_empty() || later(e, lane_.back())) {
      if (lane_empty()) lane_trim();
      lane_.push_back(e);
    } else {
      heap_push(e);
    }
    ++live_;
    return EventHandle(this, key);
  }

  /// Reclaim the lane's processed prefix / reset an emptied lane.
  void lane_trim() {
    if (lane_empty()) {
      lane_.clear();
      lane_head_ = 0;
    } else if (lane_head_ > 4096 && lane_head_ > lane_.size() / 2) {
      lane_.erase(lane_.begin(),
                  lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
      lane_head_ = 0;
    }
  }

  /// Bookkeeping for next_time_bounding(): live counts of untagged
  /// events and of each owner's non-idle events, and the entry lists of
  /// watched owners.
  void note_scheduled(std::int32_t code, const HeapEntry& e) {
    if (code == kUntaggedCode) {
      ++untagged_live_;
    } else if ((code & 1) == 0) {
      const auto i = static_cast<std::size_t>(code >> 1);
      if (i >= owners_.size()) owners_.resize(i + 1);
      Owner& o = owners_[i];
      ++o.live;
      if (o.watched) watch(o, e);
    }
  }
  void note_released(std::int32_t code) {
    if (code == kUntaggedCode) {
      --untagged_live_;
    } else if ((code & 1) == 0) {
      --owners_[static_cast<std::size_t>(code >> 1)].live;
    }
  }
  struct Owner {
    std::uint32_t live = 0;  ///< live non-idle events
    bool watched = false;    ///< entries tracked in `entries`
    /// Superset of the live non-idle entries (fired and cancelled ones are
    /// pruned lazily, so its size stays within 2 * live + 16).
    std::vector<HeapEntry> entries;
  };
  void watch(Owner& o, const HeapEntry& e) {
    if (o.entries.size() >= 2 * static_cast<std::size_t>(o.live) + 16) {
      std::erase_if(o.entries, [this](const HeapEntry& x) { return entry_dead(x); });
    }
    o.entries.push_back(e);
  }

  void grow_slots();
  void heap_push(HeapEntry e);
  /// Remove heap_[0], restoring the heap property.
  void remove_top();
  void sift_down(std::size_t i);
  void compact();

  std::vector<HeapEntry> heap_;
  /// Sorted by key; entries before lane_head_ already popped.
  std::vector<HeapEntry> lane_;
  std::size_t lane_head_ = 0;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t num_slots_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t num_free_ = 0;
  std::size_t live_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t untagged_live_ = 0;
  std::vector<Owner> owners_;
};

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->key_pending(key_);
}

}  // namespace pm2::sim
