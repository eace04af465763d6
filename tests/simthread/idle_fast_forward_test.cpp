// Idle fast-forward at the scheduler level: a one-core node whose idle
// hook proves every pass dry, and a message from another node that lands
// exactly L after it was sent -- on the very instant of an idle tick. The
// fast-forward may re-arm ticks only strictly before t + L (t the proving
// pass), so the message still reaches the node ahead of that tick, as it
// does when a step() loop runs every tick as its own event.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>

#include "simmachine/machine.hpp"
#include "simthread/scheduler.hpp"

namespace pm2::mth {
namespace {

constexpr sim::Time kLatency = 1000;  ///< node-to-node minimum latency
constexpr sim::Time kPass = 100;      ///< charge of one idle pass

struct Outcome {
  sim::Time first_pass_at = -1;
  sim::Time seen_at = -1;  ///< pass that found the message
  std::uint64_t passes = 0;
  std::uint64_t elided = 0;
};

void count_pass(void* passes, sim::Time /*now*/) {
  ++*static_cast<std::uint64_t*>(passes);
}

Outcome run_node(bool step) {
  sim::Engine engine;
  mach::Machine node(engine, "node", mach::CacheTopology::uniform(1, 1),
                     mach::CostBook::xeon_quad());
  const std::int32_t other = engine.add_owner();  // the sending node
  Scheduler sched(node);
  sched.set_idle_fast_forward(kLatency);
  Outcome out;
  int inbox = 0;
  sched.add_idle_hook(Hook{
      .run =
          [&](HookContext& ctx) {
            if (out.first_pass_at < 0) out.first_pass_at = engine.now();
            ++out.passes;
            ctx.charge(kPass);
            if (inbox > 0) {
              inbox = 0;
              if (out.seen_at < 0) out.seen_at = engine.now();
              return;
            }
            if (ctx.dry_journal != nullptr) {
              ctx.dry_journal->add_step(&count_pass, &out.passes);
              ctx.dry_journal->vouch();
            }
          },
      .want = [](int) { return true; },
  });
  // One thread blocks for good: the core idles from the first dispatch on.
  sched.spawn([&] { sched.block_current(); });
  const sim::Time first_tick = node.costs().context_switch;

  // The other node sends at the first tick's instant, right after that
  // tick ran (it re-queues itself at the same time until then); the
  // message is the receiving node's event, due exactly kLatency later.
  const sim::EventTag other_tag = sim::EventTag::node(other);
  int requeues = 0;
  std::function<void()> send = [&] {
    if (out.passes == 0 && ++requeues < 100) {
      engine.schedule_at(engine.now(), send, other_tag);
      return;
    }
    engine.schedule_at(
        engine.now() + kLatency, [&] { inbox = 1; }, node.event_tag());
  };
  engine.schedule_at(first_tick, send, other_tag);

  const sim::Time deadline = first_tick + 3 * kLatency;
  if (step) {
    while (engine.now() <= deadline && engine.step()) {
    }
  } else {
    engine.run_until(deadline);
  }
  out.elided = engine.elided_ticks();
  return out;
}

TEST(IdleFastForwardTie, MessageDueOnATickInstantMatchesStepLoop) {
  const Outcome stepped = run_node(/*step=*/true);
  const Outcome ran = run_node(/*step=*/false);
  ASSERT_EQ(stepped.first_pass_at, mach::CostBook::xeon_quad().context_switch);
  // The tick at t + L was armed after the send: the message is seen there.
  EXPECT_EQ(stepped.seen_at, stepped.first_pass_at + kLatency);
  EXPECT_EQ(stepped.elided, 0u);
  EXPECT_GT(ran.elided, 0u);
  EXPECT_EQ(ran.first_pass_at, stepped.first_pass_at);
  EXPECT_EQ(ran.seen_at, stepped.seen_at);
}

}  // namespace
}  // namespace pm2::mth
