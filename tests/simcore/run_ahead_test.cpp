// Engine::try_advance boundaries: run-ahead may only move the clock to a
// time the engine would otherwise have reached by popping the caller's own
// wake-up as the very next event of the current run.
#include <gtest/gtest.h>

#include "simcore/engine.hpp"

namespace pm2::sim {
namespace {

constexpr Time kLookahead = 100;

TEST(RunAhead, AdvancesBelowNextEvent) {
  Engine e;
  bool later_ran = false;
  e.schedule_at(0, [&] {
    EXPECT_TRUE(e.try_advance(40));
    EXPECT_EQ(e.now(), 40);
  });
  e.schedule_at(50, [&] {
    later_ran = true;
    EXPECT_EQ(e.now(), 50);
  });
  e.run();
  EXPECT_TRUE(later_ran);
  EXPECT_EQ(e.run_aheads(), 1u);
  EXPECT_EQ(e.events_executed(), 2u);
}

TEST(RunAhead, EqualTimePendingEventBlocks) {
  Engine e;
  e.schedule_at(0, [&] {
    e.schedule_at(10, [] {});
    // The pending t=10 event was scheduled first, so it must fire first.
    EXPECT_FALSE(e.try_advance(10));
    EXPECT_FALSE(e.try_advance(11));
    EXPECT_EQ(e.now(), 0);
    EXPECT_TRUE(e.try_advance(9));
    EXPECT_EQ(e.now(), 9);
  });
  e.run();
  EXPECT_EQ(e.run_aheads(), 1u);
  EXPECT_EQ(e.now(), 10);
}

TEST(RunAhead, RunUntilDeadlineIsInclusive) {
  Engine e;
  e.schedule_at(0, [&] {
    EXPECT_FALSE(e.try_advance(51));
    EXPECT_TRUE(e.try_advance(50));
    EXPECT_EQ(e.now(), 50);
  });
  e.run_until(50);
  EXPECT_EQ(e.now(), 50);
  EXPECT_EQ(e.run_aheads(), 1u);
}

TEST(RunAhead, PartitionHorizonIsExclusive) {
  Engine e;
  e.configure_partitions(2, kLookahead);
  // Window 1: T_min = 0, horizon = 100 (exclusive).
  e.schedule_at(0, [&] {
    EXPECT_FALSE(e.try_advance(kLookahead));
    EXPECT_TRUE(e.try_advance(kLookahead - 1));
    EXPECT_EQ(e.now(), kLookahead - 1);
  });
  e.run();
  EXPECT_EQ(e.run_aheads(), 1u);
  EXPECT_EQ(e.windows_executed(), 1u);
}

TEST(RunAhead, PartitionedRunUntilDeadlineIsInclusive) {
  Engine e;
  e.configure_partitions(2, kLookahead);
  {
    Engine::PartitionScope scope(e, 1);
    e.schedule_at(0, [&] {
      EXPECT_FALSE(e.try_advance(31));
      EXPECT_TRUE(e.try_advance(30));
    });
  }
  e.run_until(30);
  EXPECT_EQ(e.partition_now(1), 30);
  EXPECT_EQ(e.run_aheads(), 1u);
}

TEST(RunAhead, StepNeverRunsAhead) {
  Engine e;
  e.schedule_at(0, [&] { EXPECT_FALSE(e.try_advance(5)); });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(e.run_aheads(), 0u);
}

TEST(RunAhead, StopDisablesRunAhead) {
  Engine e;
  e.schedule_at(0, [&] {
    EXPECT_TRUE(e.try_advance(5));
    e.stop();
    EXPECT_FALSE(e.try_advance(6));
    EXPECT_EQ(e.now(), 5);
  });
  e.run();
  EXPECT_EQ(e.run_aheads(), 1u);
}

TEST(RunAhead, MailboxWindowAbortDisablesRunAhead) {
  Engine e;
  e.configure_partitions(2, kLookahead);
  e.set_mailbox_capacity(1);
  e.schedule_at(0, [&] {
    EXPECT_TRUE(e.try_advance(5));
    // A full mailbox aborts the sender's window: no more run-ahead in it.
    e.schedule_cross(1, e.now() + kLookahead, [] {});
    EXPECT_EQ(e.mailbox_overflows(), 1u);
    EXPECT_FALSE(e.try_advance(6));
    EXPECT_EQ(e.now(), 5);
  });
  e.run();
  EXPECT_EQ(e.run_aheads(), 1u);
}

TEST(RunAhead, NoAdvanceOutsideARun) {
  Engine e;
  EXPECT_FALSE(e.try_advance(5));
  e.schedule_at(10, [] {});
  EXPECT_FALSE(e.try_advance(5));
  e.run();
  EXPECT_FALSE(e.try_advance(20));
  e.run_until(30);
  EXPECT_FALSE(e.try_advance(40));
  EXPECT_EQ(e.now(), 30);
  EXPECT_EQ(e.run_aheads(), 0u);
}

TEST(RunAhead, CounterSumsPartitions) {
  Engine e;
  e.configure_partitions(2, kLookahead);
  for (int p = 0; p < 2; ++p) {
    Engine::PartitionScope scope(e, p);
    e.schedule_at(0, [&] { EXPECT_TRUE(e.try_advance(1)); });
  }
  e.set_workers(2);
  e.run();
  EXPECT_EQ(e.run_aheads(), 2u);
}

}  // namespace
}  // namespace pm2::sim
