#include "simcore/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace pm2::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    cb();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, ScheduleInOrderTakesTheCancelledEventsPlace) {
  // Three events at one time; the first is cancelled and put back with its
  // order after a later one was scheduled: it still fires first, and
  // head() reports it with that order.
  EventQueue q;
  std::vector<int> order;
  auto first = q.schedule(42, [&] { order.push_back(0); }, EventTag::idle(3));
  q.schedule(42, [&] { order.push_back(1); });
  q.schedule(42, [&] { order.push_back(2); }, EventTag::node(3));
  const std::uint64_t place = first.order();
  ASSERT_TRUE(q.cancel(first));
  q.schedule(7, [&] { order.push_back(-1); });
  auto back = q.schedule_in_order(
      42, [&] { order.push_back(0); }, EventTag::idle(3), place);
  EXPECT_TRUE(back.pending());
  q.pop().second();
  const EventQueue::Head h = q.head();
  EXPECT_EQ(h.when, 42);
  EXPECT_EQ(h.order, back.order());
  EXPECT_EQ(h.owner, 3);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2}));

  // Put back at once, it reuses the freed slot and so the very key of the
  // cancelled entry, which is still in the queue: it fires once.
  int fired = 0;
  auto next = q.schedule(50, [&] { ++fired; });
  q.schedule(50, [] {});
  const std::uint64_t at = next.order();
  ASSERT_TRUE(q.cancel(next));
  auto again = q.schedule_in_order(50, [&] { ++fired; }, EventTag{}, at);
  EXPECT_EQ(again.order(), at);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, NextTimeReportsEarliestLive) {
  EventQueue q;
  q.schedule(50, [] {});
  auto h = q.schedule(20, [] {});
  EXPECT_EQ(q.next_time(), 20);
  q.cancel(h);
  EXPECT_EQ(q.next_time(), 50);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  auto h = q.schedule(10, [&] { ++fired; });
  q.schedule(20, [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelTwiceIsNoop) {
  EventQueue q;
  auto h = q.schedule(10, [] {});
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  auto h = q.schedule(10, [] {});
  q.pop().second();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, DefaultHandleIsInvalid) {
  EventHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(h.pending());
  EventQueue q;
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, PopSkipsCancelledEntries) {
  EventQueue q;
  auto h1 = q.schedule(10, [] {});
  int fired = 0;
  q.schedule(20, [&] { fired = 1; });
  q.cancel(h1);
  auto [t, cb] = q.pop();
  EXPECT_EQ(t, 20);
  cb();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleHandleAfterSlotReuse) {
  // After cancel, the slot goes back to the pool and the very next schedule
  // reuses it. The old handle must stay stale: it names a (slot, sequence)
  // pairing that no longer exists, even though the slot is occupied again.
  EventQueue q;
  auto h1 = q.schedule(10, [] {});
  EXPECT_TRUE(q.cancel(h1));
  EXPECT_EQ(q.free_slots(), 1u);
  int fired = 0;
  auto h2 = q.schedule(20, [&] { ++fired; });
  EXPECT_EQ(q.free_slots(), 0u);  // the slot was reused...
  EXPECT_FALSE(h1.pending());     // ...but the stale handle sees through it
  EXPECT_FALSE(q.cancel(h1));
  EXPECT_TRUE(h2.pending());
  auto [t, cb] = q.pop();
  EXPECT_EQ(t, 20);
  cb();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, StaleHandleAfterFireAndSlotReuse) {
  EventQueue q;
  auto h1 = q.schedule(10, [] {});
  q.pop().second();
  auto h2 = q.schedule(20, [] {});  // reuses h1's slot
  EXPECT_FALSE(h1.pending());
  EXPECT_FALSE(q.cancel(h1));
  EXPECT_TRUE(q.cancel(h2));
}

TEST(EventQueue, DeadEntriesBoundedUnderCancelChurn) {
  // Lazy cancellation must not retain unbounded tombstones: compaction
  // keeps dead_entries() <= max(kCompactFloor, live) after every op.
  EventQueue q;
  auto bound_holds = [&q] {
    return q.dead_entries() <= std::max(EventQueue::kCompactFloor, q.size());
  };
  std::vector<EventHandle> handles;
  // Far-future blockers that never reach the front: dead entries behind
  // them can only be reclaimed by compaction, not by front dropping.
  for (int i = 0; i < 8; ++i) q.schedule(1'000'000, [] {});
  for (int round = 0; round < 50; ++round) {
    handles.clear();
    for (int i = 0; i < 100; ++i) {
      handles.push_back(q.schedule(1000 + round, [] {}));
      ASSERT_TRUE(bound_holds());
    }
    for (auto& h : handles) {
      q.cancel(h);
      ASSERT_TRUE(bound_holds()) << "dead=" << q.dead_entries()
                                 << " live=" << q.size();
    }
  }
  EXPECT_EQ(q.size(), 8u);
  EXPECT_LE(q.dead_entries(), EventQueue::kCompactFloor);
}

TEST(EventQueue, ManyInterleavedSchedulesAndCancels) {
  EventQueue q;
  std::vector<EventHandle> handles;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(q.schedule(i % 97, [&] { ++fired; }));
  }
  for (size_t i = 0; i < handles.size(); i += 2) q.cancel(handles[i]);
  EXPECT_EQ(q.size(), 500u);
  Time last = -1;
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    EXPECT_GE(t, last);
    last = t;
    cb();
  }
  EXPECT_EQ(fired, 500);
}

}  // namespace
}  // namespace pm2::sim
