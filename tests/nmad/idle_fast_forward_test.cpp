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
  std::uint64_t windows = 0;
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

/// Builds, drives and measures one world: @p spawn populates it and
/// @p drive runs it.
template <typename Spawn, typename DriveFn>
Outcome drive_world_with(ClusterConfig cfg, Spawn&& spawn, DriveFn&& drive) {
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
    drive(world);
    world.trace_log()->drain_now();
    out.end = world.engine().now();
    out.events = world.engine().events_executed();
    out.run_aheads = world.engine().run_aheads();
    out.elided = world.engine().elided_ticks();
    out.windows = world.engine().windows_executed();
    out.flows = world.flow_trace()->to_json();
    read_counters(world, out);
    out.registry = reg.to_json();
  }
  reg.set_enabled(false);
  return out;
}

template <typename Spawn>
Outcome drive_world(ClusterConfig cfg, Drive drive, Spawn&& spawn) {
  return drive_world_with(cfg, spawn, [drive](Cluster& world) {
    if (drive == Drive::kRun) {
      world.run();
    } else {
      while (world.engine().step()) {
      }
    }
  });
}

/// @p spawn preceded by turning the fast-forward off on every node: the
/// per-tick reference of a partitioned run.
template <typename Spawn>
auto per_tick(Spawn spawn) {
  return [spawn](Cluster& w) {
    for (int n = 0; n < w.num_nodes(); ++n) w.sched(n).set_idle_fast_forward(0);
    spawn(w);
  };
}

void expect_same(const Outcome& ran, const Outcome& stepped) {
  EXPECT_EQ(ran.end, stepped.end);
  ASSERT_FALSE(stepped.flows.empty());
  EXPECT_TRUE(ran.flows == stepped.flows) << "flow traces differ";
  EXPECT_EQ(ran.counters, stepped.counters) << "always-on counters differ";
  EXPECT_TRUE(ran.registry == stepped.registry) << "registry reports differ";
}

/// The registry report without the buffer pool's counters: the pool is
/// process-wide, so with several host workers its hits depend on the order
/// in which they happen to acquire and release slabs.
std::string without_pool(const std::string& registry) {
  static const std::string kPool = "{\"component\":\"pool\",";
  std::string out;
  std::size_t pos = 0;
  while (pos < registry.size()) {
    std::size_t end = registry.find('\n', pos);
    end = end == std::string::npos ? registry.size() : end + 1;
    if (registry.compare(pos, kPool.size(), kPool) != 0) {
      out.append(registry, pos, end - pos);
    }
    pos = end;
  }
  return out;
}

/// expect_same for a run with @p workers host workers against a
/// single-worker reference.
void expect_same_with_workers(Outcome ran, Outcome ref, int workers) {
  if (workers > 1) {
    ran.registry = without_pool(ran.registry);
    ref.registry = without_pool(ref.registry);
  }
  expect_same(ran, ref);
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
  static constexpr Tag kLateTag = 99;
  /// If set, node `late` first waits, every thread blocked, for a message
  /// node 0 sends after computing for `late_by`.
  int late = -1;
  sim::Time late_by = 0;
  std::vector<std::unique_ptr<sync::Barrier>> barriers;

  void spawn(Cluster& world) {
    const int nodes = world.num_nodes();
    for (int n = 0; n < nodes; ++n) {
      barriers.push_back(
          std::make_unique<sync::Barrier>(world.sched(n), kThreads, "bsp"));
    }
    for (int n = 0; n < nodes; ++n) {
      for (int t = 0; t < kThreads; ++t) {
        world.spawn(n, [this, &world, n, t] { body(world, n, t); }, "bsp");
      }
    }
  }

  void body(Cluster& world, int n, int t) {
    madmpi::Comm comm(world, n);
    auto& sched = world.sched(n);
    const int nodes = world.num_nodes();
    const int right = (n + 1) % nodes;
    const int left = (n + nodes - 1) % nodes;
    std::uint8_t token = 0;
    if (n == late) {
      if (t == 0) world.core(n).recv(world.gate(n, 0), kLateTag, &token, 1);
      barriers[static_cast<std::size_t>(n)]->arrive_and_wait();
    } else if (n == 0 && t == 0 && late > 0) {
      sched.work(late_by);
      world.core(n).send(world.gate(n, late), kLateTag, &token, 1);
    }
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

ClusterConfig hybrid_config(int partitions, int workers,
                            int nodes = Hybrid::kNodes) {
  ClusterConfig cfg = pioman_config();
  cfg.nodes = nodes;
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
  const Outcome ticked = drive_world(hybrid_config(2, 1), Drive::kRun,
                                     per_tick([&h](Cluster& w) { h.spawn(w); }));
  EXPECT_EQ(ticked.elided, 0u);
  for (const int workers : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    const Outcome ran = hybrid(hybrid_config(2, workers), Drive::kRun);
    EXPECT_GT(ran.elided, 0u) << "no idle pass was fast-forwarded";
    EXPECT_EQ(ran.events + ran.run_aheads + ran.elided,
              ticked.events + ticked.run_aheads);
    expect_same(ran, ticked);
  }
}

TEST(IdleFastForward, ExactLatencyPartitionedMatchesPerTickRun) {
  // ExactLatencyDeliveriesMatchStepLoop across 2 partitions: a delivery
  // crosses in a mailbox and joins the receiver's heap at a drain, so
  // whether it ties before or after a dormant receiver's tick depends on
  // which window that tick's predecessor pass ran in.
  ClusterConfig cfg = pioman_config();
  cfg.rails[0].wire_ns_per_byte = 0;
  cfg.rails[0].wire_latency = 1100;
  cfg.partitions = 2;
  const Outcome ticked =
      drive_world(cfg, Drive::kRun, per_tick(spawn_pingpong));
  const Outcome ran = drive_world(cfg, Drive::kRun, spawn_pingpong);
  EXPECT_GT(ran.elided, 0u) << "no idle pass was fast-forwarded";
  EXPECT_EQ(ran.events + ran.run_aheads + ran.elided,
            ticked.events + ticked.run_aheads);
  EXPECT_EQ(ran.windows, ticked.windows);
  expect_same(ran, ticked);
}

TEST(IdleFastForward, DrainTiesMatchPerTickRun) {
  // Across a sweep of wire latencies, deliveries to a dormant node land on
  // its ticks at every offset from the window that sent them. A node the
  // drain reaches must wake with exactly the ticks whose predecessor pass
  // ran in an earlier window armed before the delivery.
  for (sim::Time latency = 940; latency <= 1050; ++latency) {
    SCOPED_TRACE(testing::Message() << "wire_latency=" << latency);
    ClusterConfig cfg = pioman_config();
    cfg.rails[0].wire_latency = latency;
    cfg.partitions = 2;
    const Outcome ticked =
        drive_world(cfg, Drive::kRun, per_tick(spawn_pingpong));
    const Outcome ran = drive_world(cfg, Drive::kRun, spawn_pingpong);
    EXPECT_EQ(ran.events + ran.run_aheads + ran.elided,
              ticked.events + ticked.run_aheads);
    expect_same(ran, ticked);
    if (HasFailure()) break;
  }
}

TEST(IdleFastForward, WideHybridMatchesStepLoop) {
  const Outcome ran = hybrid(hybrid_config(1, 1, 8), Drive::kRun);
  const Outcome stepped = hybrid(hybrid_config(1, 1, 8), Drive::kStep);
  expect_matches_step_loop(ran, stepped);
}

TEST(IdleFastForward, DormantNodeAcrossWindowsMatchesPerTickRun) {
  // An 8-node ring at 4 partitions in which node 5 sits with every thread
  // blocked for 300 us (some 200 windows) before it joins. Its neighbours'
  // halo messages wake it now and then; its longest dormant stretch spans
  // about 90 us, some 60 windows. Its idle passes are replayed between
  // windows and count in T_min, so the windows, and every tie a drain
  // decides, are the per-tick run's.
  auto spawn = [](Hybrid& h) {
    return [&h](Cluster& w) {
      h.late = 5;
      h.late_by = sim::microseconds(300);
      h.spawn(w);
    };
  };
  Hybrid ref;
  const Outcome ticked = drive_world(hybrid_config(4, 1, 8), Drive::kRun,
                                     per_tick(spawn(ref)));
  EXPECT_GT(ticked.windows, 200u);
  for (const int workers : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    Hybrid h;
    const Outcome ran =
        drive_world(hybrid_config(4, workers, 8), Drive::kRun, spawn(h));
    EXPECT_GT(ran.elided, 0u) << "no idle pass was fast-forwarded";
    EXPECT_EQ(ran.events + ran.run_aheads + ran.elided,
              ticked.events + ticked.run_aheads);
    EXPECT_EQ(ran.windows, ticked.windows);
    expect_same_with_workers(ran, ticked, workers);
  }
}

TEST(IdleFastForward, ChunkedRunUntilMatchesOneRunUntil) {
  // A run_until() ends by catching every dormant node up to its deadline
  // and re-arming the rest of its ticks as events; the next call goes on
  // from there. Five chunks must add up to one call, and to the per-tick
  // run.
  for (const int partitions : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "partitions=" << partitions);
    const ClusterConfig cfg = hybrid_config(partitions, 1);
    // Chunk ends at 1/4, 1/2, 3/4, 1 and 5/4 of the run.
    const sim::Time end = hybrid(cfg, Drive::kRun).end;
    const sim::Time cap = end + end / 4;
    auto once = [cap](Cluster& w) { w.engine().run_until(cap); };
    auto chunked = [cap](Cluster& w) {
      for (int i = 1; i <= 5; ++i) w.engine().run_until(cap * i / 5);
    };
    Hybrid a, b, c;
    const Outcome ticked = drive_world_with(
        cfg, per_tick([&a](Cluster& w) { a.spawn(w); }), once);
    const Outcome one =
        drive_world_with(cfg, [&b](Cluster& w) { b.spawn(w); }, once);
    const Outcome five =
        drive_world_with(cfg, [&c](Cluster& w) { c.spawn(w); }, chunked);
    EXPECT_EQ(ticked.end, cap);
    EXPECT_GT(five.elided, 0u) << "no idle pass was fast-forwarded";
    for (const Outcome* ran : {&one, &five}) {
      EXPECT_EQ(ran->events + ran->run_aheads + ran->elided,
                ticked.events + ticked.run_aheads);
      expect_same(*ran, ticked);
    }
  }
}

TEST(IdleFastForward, WaiterThatNeverCompletesEndsAtTheCap) {
  // After the pingpong, a thread of node 1 waits for a message nobody
  // sends: its idle cores poll until the cap. run_until(cap) must end there
  // with the passes the per-tick run made, though the dormant node keeps
  // none of them in the heap.
  auto spawn = [](Cluster& w) {
    spawn_pingpong(w);
    w.spawn(1, [&w] {
      std::uint8_t b = 0;
      w.core(1).recv(w.gate(1, 0), 77, &b, 1);
    }, "waiter", 3);
  };
  for (const int partitions : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "partitions=" << partitions);
    ClusterConfig cfg = pioman_config();
    cfg.partitions = partitions;
    // Half the pingpong's length again after it.
    const sim::Time end = drive_world(cfg, Drive::kRun, spawn_pingpong).end;
    const sim::Time cap = end + end / 2;
    auto until_cap = [cap](Cluster& w) { w.engine().run_until(cap); };
    const Outcome ticked = drive_world_with(cfg, per_tick(spawn), until_cap);
    const Outcome ran = drive_world_with(cfg, spawn, until_cap);
    EXPECT_EQ(ticked.end, cap);
    EXPECT_GT(ran.elided, 0u) << "no idle pass was fast-forwarded";
    EXPECT_EQ(ran.events + ran.run_aheads + ran.elided,
              ticked.events + ticked.run_aheads);
    expect_same(ran, ticked);
  }
}

TEST(IdleFastForward, TimerTiesWithPendingTickOfDormantNode) {
  // Node 1 goes dormant with a timer pending: one thread sleeps while the
  // other waits for node 0. Across more than one dry pass (250 ns) of sleep
  // lengths the timer falls on the very instant of another core's tick,
  // armed before the timer was: the replay runs that tick first, as the
  // step() loop does, and the wake re-arms the ticks still pending in
  // their original order.
  for (sim::Time d = 1; d <= 400; ++d) {
    SCOPED_TRACE(testing::Message() << "sleep=" << d);
    auto spawn = [d](Cluster& w) {
      w.spawn(0, [&w] {
        w.sched(0).work(sim::microseconds(6));
        std::uint8_t b = 1;
        w.core(0).send(w.gate(0, 1), 5, &b, 1);
      }, "sender", 0);
      w.spawn(1, [&w] {
        std::uint8_t b = 0;
        w.core(1).recv(w.gate(1, 0), 5, &b, 1);
      }, "waiter", 0);
      w.spawn(1, [&w, d] {
        w.sched(1).work(sim::microseconds(1));
        w.sched(1).sleep_for(d);
        w.sched(1).work(sim::microseconds(1));
      }, "sleeper", 1);
    };
    const Outcome ran = drive_world(pioman_config(), Drive::kRun, spawn);
    const Outcome stepped = drive_world(pioman_config(), Drive::kStep, spawn);
    EXPECT_EQ(ran.events + ran.run_aheads + ran.elided, stepped.events);
    expect_same(ran, stepped);
    if (HasFailure()) break;
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
