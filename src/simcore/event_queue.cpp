#include "simcore/event_queue.hpp"

#include <algorithm>

namespace pm2::sim {

namespace {
constexpr std::size_t kArity = 4;
}

void EventQueue::grow_slots() {
  chunks_.push_back(std::make_unique<Slot[]>(kSlotChunk));
}

void EventQueue::heap_push(HeapEntry e) {
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!later(heap_[parent], e)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) {
  const HeapEntry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (later(heap_[best], heap_[c])) best = c;
    }
    if (!later(e, heap_[best])) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::remove_top() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

Time EventQueue::next_time_bounding(std::int32_t owner, Time limit) {
  // Untagged events (none in a cluster world) bound every node; the
  // earliest event of all is a bound below them.
  Time best = untagged_live_ > 0 ? std::min(limit, next_time()) : limit;
  const auto i = static_cast<std::size_t>(owner);
  if (i >= owners_.size() || owners_[i].live == 0) return best;
  Owner& o = owners_[i];
  if (!o.watched) {
    // First query for this owner: collect its pending non-idle entries.
    o.watched = true;
    const std::int32_t own = tag_code(EventTag::node(owner));
    auto collect = [&](const HeapEntry& e) {
      const Slot& sl = slot(slot_of(e.key));
      if (sl.key == e.key && sl.tag == own) o.entries.push_back(e);
    };
    for (std::size_t k = lane_head_; k < lane_.size(); ++k) collect(lane_[k]);
    for (const HeapEntry& e : heap_) collect(e);
  }
  std::erase_if(o.entries, [this](const HeapEntry& e) { return entry_dead(e); });
  for (const HeapEntry& e : o.entries) best = std::min(best, e.when);
  return best;
}

void EventQueue::compact() {
  std::erase_if(heap_, [this](const HeapEntry& e) { return entry_dead(e); });
  // Floyd heap construction: sift down every internal node, bottom up.
  const std::size_t n = heap_.size();
  if (n >= 2) {
    for (std::size_t i = (n - 2) / kArity + 1; i-- > 0;) {
      sift_down(i);
    }
  }
  // The lane stays sorted under erasure, so it just shrinks in place.
  lane_.erase(lane_.begin(),
              lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
  lane_head_ = 0;
  std::erase_if(lane_, [this](const HeapEntry& e) { return entry_dead(e); });
}

}  // namespace pm2::sim
