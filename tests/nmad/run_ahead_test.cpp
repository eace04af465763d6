// Run-ahead oracle: Engine::step() never runs ahead, so a step() loop
// executes every charge as a scheduled wake-up event -- the reference
// schedule. Driving the same world with run() (where a charge whose
// wake-up is the next event keeps running instead) must end at the same
// virtual time with the same flow-trace bytes, and each run-ahead (and
// each idle pass the scheduler fast-forwarded) must stand for exactly one
// event the step() loop executed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "nmad/cluster.hpp"
#include "obs/trace_log.hpp"
#include "simcore/engine.hpp"
#include "simthread/scheduler.hpp"

namespace pm2::nm {
namespace {

enum class Drive { kRun, kStep };

struct Outcome {
  sim::Time end = 0;
  std::uint64_t events = 0;
  std::uint64_t run_aheads = 0;
  std::uint64_t elided = 0;
  std::vector<char> trace;
};

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Two identical pingpong streams between node 0 and node 1, over eager
/// and rendezvous sizes, on cores 0 and 1 of each node: their charges end
/// at equal virtual times, which is where run-ahead must yield to the
/// earlier-scheduled event. With @p compute, each node also runs a compute
/// thread on core 0, so passive waits hand the core over and PIOMan's
/// hooks, timeslices and preemption all take part.
Outcome run_world(const ClusterConfig& cfg, bool compute, Drive drive,
                  const std::string& path) {
  constexpr int kIters = 6;
  const std::vector<std::size_t> sizes = {1, 256, 2048, 40000};
  Cluster world(cfg);
  world.enable_flow_trace();
  for (int node = 0; node < 2; ++node) {
    for (int stream = 0; stream < 2; ++stream) {
      const Tag ping = 10 + static_cast<Tag>(stream);
      const Tag pong = 20 + static_cast<Tag>(stream);
      world.spawn(node, [&world, &sizes, node, ping, pong] {
        Core& c = world.core(node);
        Gate* g = world.gate(node, 1 - node);
        for (std::size_t s : sizes) {
          std::vector<std::uint8_t> buf(s, static_cast<std::uint8_t>(node));
          for (int i = 0; i < kIters; ++i) {
            if (node == 0) {
              c.send(g, ping, buf.data(), buf.size());
              c.recv(g, pong, buf.data(), buf.size());
            } else {
              c.recv(g, ping, buf.data(), buf.size());
              c.send(g, pong, buf.data(), buf.size());
            }
          }
        }
      }, "pingpong" + std::to_string(stream), stream);
    }
    if (compute) {
      world.spawn(node, [&world, node] {
        for (int i = 0; i < 8; ++i) world.sched(node).work(sim::microseconds(7));
      }, "compute", 0);
    }
  }
  if (drive == Drive::kRun) {
    world.run();
  } else {
    while (world.engine().step()) {
    }
    world.trace_log()->drain_now();
  }
  world.write_trace_binary(path);
  Outcome out;
  out.end = world.engine().now();
  out.events = world.engine().events_executed();
  out.run_aheads = world.engine().run_aheads();
  out.elided = world.engine().elided_ticks();
  out.trace = read_file(path);
  std::remove(path.c_str());
  return out;
}

void expect_same_schedule(const ClusterConfig& cfg, bool compute,
                          const std::string& name) {
  const std::string dir = testing::TempDir();
  const Outcome ran =
      run_world(cfg, compute, Drive::kRun, dir + name + ".run.trace.bin");
  const Outcome stepped =
      run_world(cfg, compute, Drive::kStep, dir + name + ".step.trace.bin");
  EXPECT_EQ(stepped.run_aheads, 0u);
  EXPECT_GT(ran.run_aheads, 0u) << "the world never ran ahead";
  EXPECT_EQ(ran.end, stepped.end);
  EXPECT_EQ(stepped.elided, 0u);
  EXPECT_EQ(ran.events + ran.run_aheads + ran.elided, stepped.events);
  ASSERT_FALSE(ran.trace.empty());
  EXPECT_TRUE(ran.trace == stepped.trace) << "flow traces differ";
}

TEST(RunAheadOracle, BusyWaitPingpongMatchesStepLoop) {
  ClusterConfig cfg;
  cfg.nm.lock = LockMode::kFine;
  cfg.nm.wait = WaitMode::kBusy;
  cfg.nm.progress = ProgressMode::kAppDriven;
  expect_same_schedule(cfg, /*compute=*/false, "pm2sim_runahead_busy");
}

TEST(RunAheadOracle, PassiveWaitPiomanMatchesStepLoop) {
  ClusterConfig cfg;
  cfg.nm.lock = LockMode::kFine;
  cfg.nm.wait = WaitMode::kPassive;
  cfg.nm.progress = ProgressMode::kPiomanHooks;
  expect_same_schedule(cfg, /*compute=*/true, "pm2sim_runahead_pioman");
}

}  // namespace
}  // namespace pm2::nm
