// Idle fast-forward oracle: Engine::step() never fast-forwards, so a step()
// loop runs every PIOMan idle pass as its own engine event -- the reference
// schedule. Driving the same world with run(), where a node proven dry
// replays its idle passes in a tight loop, must end at the same virtual
// time with the same flow trace, the same always-on counters and the same
// metrics registry report; each replayed pass stands for exactly one event
// the step() loop executed.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "madmpi/madmpi.hpp"
#include "nmad/cluster.hpp"
#include "obs/flow.hpp"
#include "obs/metrics.hpp"
#include "simcore/engine.hpp"
#include "simnet/buffer_pool.hpp"
#include "simthread/scheduler.hpp"
#include "sync/barrier.hpp"

namespace pm2::nm {
namespace {

enum class Drive { kRun, kStep };

struct Outcome {
  sim::Time end = 0;
  std::uint64_t events = 0;
  std::uint64_t run_aheads = 0;
  std::uint64_t elided = 0;
  std::string flows;      ///< FlowTracer::to_json()
  std::string registry;   ///< MetricsRegistry::to_json()
  /// Always-on counters, per node: per-core hook and busy time, PIOMan
  /// and progress passes, NIC polls, line transfers, LockSet cycles.
  std::vector<std::uint64_t> counters;
};

void read_counters(Cluster& world, Outcome& out) {
  auto& v = out.counters;
  for (int n = 0; n < world.num_nodes(); ++n) {
    auto& sched = world.sched(n);
    for (int k = 0; k < sched.num_cores(); ++k) {
      v.push_back(static_cast<std::uint64_t>(sched.core_hook_time(k)));
      v.push_back(static_cast<std::uint64_t>(sched.core_busy_time(k)));
    }
    v.push_back(sched.context_switches());
    v.push_back(world.pioman(n).passes());
    v.push_back(world.pioman(n).skipped_passes());
    Core& core = world.core(n);
    v.push_back(core.stats().progress_passes);
    for (int e = 0; e < core.num_endpoints(); ++e) {
      v.push_back(core.endpoint(e).locks().cycles());
    }
    for (int r = 0; r < core.num_rails(); ++r) {
      v.push_back(world.nic(n, r).polls_empty());
      v.push_back(world.nic(n, r).polls_hit());
    }
    v.push_back(world.machine(n).line_transfers());
    v.push_back(static_cast<std::uint64_t>(world.machine(n).line_transfer_time()));
  }
}

/// Builds, drives and measures one world; @p spawn populates it.
template <typename Spawn>
Outcome drive_world(ClusterConfig cfg, Drive drive, Spawn&& spawn) {
  // Both drives start from the same process-wide state: zeroed instruments
  // (the buffer pool's are process-wide) and a cold buffer pool.
  auto& reg = obs::MetricsRegistry::global();
  reg.reset_values();
  net::BufferPool::global().trim();
  reg.set_enabled(true);
  Outcome out;
  {
    Cluster world(cfg);
    world.enable_flow_trace();
    spawn(world);
    if (drive == Drive::kRun) {
      world.run();
    } else {
      while (world.engine().step()) {
      }
      world.trace_log()->drain_now();
    }
    out.end = world.engine().now();
    out.events = world.engine().events_executed();
    out.run_aheads = world.engine().run_aheads();
    out.elided = world.engine().elided_ticks();
    out.flows = world.flow_trace()->to_json();
    read_counters(world, out);
    out.registry = reg.to_json();
  }
  reg.set_enabled(false);
  return out;
}

void expect_same(const Outcome& ran, const Outcome& stepped) {
  EXPECT_EQ(ran.end, stepped.end);
  ASSERT_FALSE(stepped.flows.empty());
  EXPECT_TRUE(ran.flows == stepped.flows) << "flow traces differ";
  EXPECT_EQ(ran.counters, stepped.counters) << "always-on counters differ";
  EXPECT_TRUE(ran.registry == stepped.registry) << "registry reports differ";
}

void expect_matches_step_loop(const Outcome& ran, const Outcome& stepped) {
  EXPECT_EQ(stepped.run_aheads, 0u);
  EXPECT_EQ(stepped.elided, 0u);
  EXPECT_GT(ran.elided, 0u) << "no idle pass was fast-forwarded";
  EXPECT_EQ(ran.events + ran.run_aheads + ran.elided, stepped.events);
  expect_same(ran, stepped);
}

ClusterConfig pioman_config() {
  ClusterConfig cfg;
  cfg.nm.lock = LockMode::kFine;
  cfg.nm.wait = WaitMode::kPassive;
  cfg.nm.progress = ProgressMode::kPiomanHooks;
  return cfg;
}

/// Two nodes: on each, two pingpong streams over eager and rendezvous
/// sizes with passive waits, plus a compute thread, so idle cores poll
/// while messages are in flight and compute slices end between passes.
void spawn_pingpong(Cluster& world) {
  constexpr int kIters = 4;
  static const std::vector<std::size_t> kSizes = {64, 40000, 100000};
  for (int node = 0; node < 2; ++node) {
    for (int stream = 0; stream < 2; ++stream) {
      const Tag ping = 10 + static_cast<Tag>(stream);
      const Tag pong = 20 + static_cast<Tag>(stream);
      world.spawn(node, [&world, node, ping, pong] {
        Core& c = world.core(node);
        Gate* g = world.gate(node, 1 - node);
        for (std::size_t s : kSizes) {
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
    world.spawn(node, [&world, node] {
      for (int i = 0; i < 6; ++i) world.sched(node).work(sim::microseconds(9));
    }, "compute", 2);
  }
}

/// The bsp_hybrid shape on 4 nodes: 6 threads on 4 cores per node,
/// compute, a ring halo sendrecv in both directions across the rendezvous
/// threshold, a node barrier, an allreduce, a node barrier.
struct Hybrid {
  static constexpr int kNodes = 4;
  static constexpr int kThreads = 6;
  static constexpr int kIters = 3;
  std::vector<std::unique_ptr<sync::Barrier>> barriers;

  void spawn(Cluster& world) {
    for (int n = 0; n < kNodes; ++n) {
      barriers.push_back(
          std::make_unique<sync::Barrier>(world.sched(n), kThreads, "bsp"));
    }
    for (int n = 0; n < kNodes; ++n) {
      for (int t = 0; t < kThreads; ++t) {
        world.spawn(n, [this, &world, n, t] { body(world, n, t); }, "bsp");
      }
    }
  }

  void body(Cluster& world, int n, int t) {
    madmpi::Comm comm(world, n);
    auto& sched = world.sched(n);
    const int right = (n + 1) % kNodes;
    const int left = (n + kNodes - 1) % kNodes;
    for (int it = 0; it < kIters; ++it) {
      sched.work(sim::microseconds(20 + 3 * t));
      const std::size_t len = it % 2 == 0 ? 48 * 1024 : 6 * 1024;
      std::vector<std::uint8_t> out(len, static_cast<std::uint8_t>(n)), in(len);
      if (t == 0) {
        comm.sendrecv(right, 10, out.data(), len, left, 10, in.data(), len);
      } else if (t == 1) {
        comm.sendrecv(left, 11, out.data(), len, right, 11, in.data(), len);
      }
      barriers[static_cast<std::size_t>(n)]->arrive_and_wait();
      if (t == 0) {
        double v = n + it;
        comm.allreduce_sum(&v, 1);
      }
      barriers[static_cast<std::size_t>(n)]->arrive_and_wait();
    }
  }
};

ClusterConfig hybrid_config(int partitions, int workers) {
  ClusterConfig cfg = pioman_config();
  cfg.nodes = Hybrid::kNodes;
  cfg.partitions = partitions;
  cfg.workers = workers;
  return cfg;
}

Outcome hybrid(ClusterConfig cfg, Drive drive) {
  Hybrid h;
  return drive_world(cfg, drive, [&h](Cluster& w) { h.spawn(w); });
}

TEST(IdleFastForward, PassiveWaitPiomanMatchesStepLoop) {
  const Outcome ran = drive_world(pioman_config(), Drive::kRun, spawn_pingpong);
  const Outcome stepped =
      drive_world(pioman_config(), Drive::kStep, spawn_pingpong);
  expect_matches_step_loop(ran, stepped);
}

TEST(IdleFastForward, HybridWorldMatchesStepLoop) {
  const Outcome ran = hybrid(hybrid_config(1, 1), Drive::kRun);
  const Outcome stepped = hybrid(hybrid_config(1, 1), Drive::kStep);
  expect_matches_step_loop(ran, stepped);
}

TEST(IdleFastForward, ExactLatencyDeliveriesMatchStepLoop) {
  // With no per-byte wire time a packet posted at t is delivered at exactly
  // t + L, and L = 200 + 1100 + 200 ns is six 250 ns dry passes:
  // deliveries land on the very instants idle ticks fall on, so every tie
  // between a delivery and a tick the fast-forward re-arms must break as in
  // the step() loop.
  ClusterConfig cfg = pioman_config();
  cfg.rails[0].wire_ns_per_byte = 0;
  cfg.rails[0].wire_latency = 1100;
  const Outcome ran = drive_world(cfg, Drive::kRun, spawn_pingpong);
  const Outcome stepped = drive_world(cfg, Drive::kStep, spawn_pingpong);
  expect_matches_step_loop(ran, stepped);
}

TEST(IdleFastForward, PartitionedRunMatchesSinglePartitionStepLoop) {
  const Outcome stepped =
      drive_world(pioman_config(), Drive::kStep, spawn_pingpong);
  for (const int workers : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    ClusterConfig cfg = pioman_config();
    cfg.partitions = 2;
    cfg.workers = workers;
    const Outcome ran = drive_world(cfg, Drive::kRun, spawn_pingpong);
    EXPECT_GT(ran.elided, 0u) << "no idle pass was fast-forwarded";
    expect_same(ran, stepped);
  }
}

TEST(IdleFastForward, PartitionedHybridMatchesPerTickRun) {
  // The partition count is part of the schedule (ties break per partition
  // heap), so the 4-node world is compared at 2 partitions against the
  // per-tick path: the same run with the fast-forward off.
  Hybrid h;
  const Outcome per_tick =
      drive_world(hybrid_config(2, 1), Drive::kRun, [&h](Cluster& w) {
        for (int n = 0; n < w.num_nodes(); ++n) {
          w.sched(n).set_idle_fast_forward(0);
        }
        h.spawn(w);
      });
  EXPECT_EQ(per_tick.elided, 0u);
  for (const int workers : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    const Outcome ran = hybrid(hybrid_config(2, workers), Drive::kRun);
    EXPECT_GT(ran.elided, 0u) << "no idle pass was fast-forwarded";
    EXPECT_EQ(ran.events + ran.run_aheads + ran.elided,
              per_tick.events + per_tick.run_aheads);
    expect_same(ran, per_tick);
  }
}

struct SweepCase {
  const char* name;
  LockMode lock;
  WaitMode wait;
  ProgressMode progress;
  int endpoints;
  int rx_queues;
};

/// Prints the case by its label: gtest's default byte dump would show the
/// label's address, which moves with every run, so the listed test names
/// would never repeat.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.name; }

/// Every lock mode, waiting policy and endpoint / RX-queue layout whose
/// idle passes PIOMan's hooks drive: the dry pass differs between them
/// (library lock cycles, endpoint round-robin, per-ring doorbells), and the
/// journal must replay each exactly.
class IdleFastForwardSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(IdleFastForwardSweep, MatchesStepLoop) {
  const SweepCase& c = GetParam();
  ClusterConfig cfg;
  cfg.nm.lock = c.lock;
  cfg.nm.wait = c.wait;
  cfg.nm.progress = c.progress;
  cfg.endpoints = c.endpoints;
  cfg.rx_queues = c.rx_queues;
  const Outcome ran = drive_world(cfg, Drive::kRun, spawn_pingpong);
  const Outcome stepped = drive_world(cfg, Drive::kStep, spawn_pingpong);
  EXPECT_GT(ran.elided, 0u) << "no idle pass was fast-forwarded";
  EXPECT_EQ(ran.events + ran.run_aheads + ran.elided, stepped.events);
  expect_same(ran, stepped);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, IdleFastForwardSweep,
    testing::Values(
        SweepCase{"coarse_passive", LockMode::kCoarse, WaitMode::kPassive,
                  ProgressMode::kPiomanHooks, 1, 1},
        SweepCase{"fine_busy", LockMode::kFine, WaitMode::kBusy,
                  ProgressMode::kPiomanHooks, 1, 1},
        SweepCase{"fine_fixed_spin", LockMode::kFine, WaitMode::kFixedSpin,
                  ProgressMode::kPiomanHooks, 1, 1},
        SweepCase{"none_passive", LockMode::kNone, WaitMode::kPassive,
                  ProgressMode::kPiomanHooks, 1, 1},
        SweepCase{"fine_ep2", LockMode::kFine, WaitMode::kPassive,
                  ProgressMode::kPiomanHooks, 2, 1},
        SweepCase{"coarse_ep2", LockMode::kCoarse, WaitMode::kPassive,
                  ProgressMode::kPiomanHooks, 2, 1},
        SweepCase{"fine_ep2_rxq2", LockMode::kFine, WaitMode::kPassive,
                  ProgressMode::kPiomanHooks, 2, 2}),
    [](const testing::TestParamInfo<SweepCase>& i) { return i.param.name; });

TEST(IdleFastForward, OffWithoutLatencyBound) {
  // A scheduler not told the node-to-node latency keeps the per-tick path.
  const Outcome ran = drive_world(pioman_config(), Drive::kRun, [](Cluster& w) {
    for (int n = 0; n < w.num_nodes(); ++n) w.sched(n).set_idle_fast_forward(0);
    spawn_pingpong(w);
  });
  EXPECT_EQ(ran.elided, 0u);
  const Outcome stepped =
      drive_world(pioman_config(), Drive::kStep, spawn_pingpong);
  EXPECT_EQ(ran.events + ran.run_aheads, stepped.events);
  expect_same(ran, stepped);
}

}  // namespace
}  // namespace pm2::nm
