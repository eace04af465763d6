// Property tests: matching and ordering invariants of the communication
// core, swept across locking modes, strategies and seeds.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "nmad/cluster.hpp"
#include "nmad/wire_format.hpp"
#include "obs/metrics.hpp"
#include "simcore/random.hpp"

namespace pm2::nm {
namespace {

TEST(Ordering, SameTagMessagesArriveInSendOrder) {
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  constexpr int kCount = 50;
  world.spawn(0, [&world] {
    nm::Core& c = world.core(0);
    for (std::uint32_t i = 0; i < kCount; ++i) {
      c.send(world.gate(0, 1), 7, &i, sizeof(i));
    }
  });
  world.spawn(1, [&world] {
    nm::Core& c = world.core(1);
    for (std::uint32_t i = 0; i < kCount; ++i) {
      std::uint32_t got = 0;
      c.recv(world.gate(1, 0), 7, &got, sizeof(got));
      EXPECT_EQ(got, i);
    }
  });
  world.run();
}

TEST(Ordering, UnexpectedMessagesAdoptedInSendOrder) {
  // All messages arrive before any receive is posted: adoption must still
  // follow send order (lowest msg_seq first).
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  constexpr int kCount = 20;
  world.spawn(0, [&world] {
    nm::Core& c = world.core(0);
    for (std::uint32_t i = 0; i < kCount; ++i) {
      c.send(world.gate(0, 1), 7, &i, sizeof(i));
    }
  });
  world.spawn(1, [&world] {
    world.sched(1).work(sim::microseconds(200));  // let everything land
    nm::Core& c = world.core(1);
    for (std::uint32_t i = 0; i < kCount; ++i) {
      std::uint32_t got = 0;
      c.recv(world.gate(1, 0), 7, &got, sizeof(got));
      EXPECT_EQ(got, i) << "unexpected adoption out of order";
    }
  });
  world.run();
  // Stats are registry counters now; the canonical read is the lookup.
  EXPECT_GT(obs::MetricsRegistry::global()
                .counter_value("nmad", "node1", "unexpected_chunks")
                .value_or(0),
            0u);
}

TEST(Ordering, DifferentTagsMatchIndependently) {
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  world.spawn(0, [&world] {
    nm::Core& c = world.core(0);
    const std::uint32_t a = 0xAAAA, b = 0xBBBB;
    c.send(world.gate(0, 1), 1, &a, sizeof(a));
    c.send(world.gate(0, 1), 2, &b, sizeof(b));
  });
  world.spawn(1, [&world] {
    nm::Core& c = world.core(1);
    // Receive tag 2 FIRST, although it was sent second.
    std::uint32_t got2 = 0, got1 = 0;
    c.recv(world.gate(1, 0), 2, &got2, sizeof(got2));
    c.recv(world.gate(1, 0), 1, &got1, sizeof(got1));
    EXPECT_EQ(got2, 0xBBBBu);
    EXPECT_EQ(got1, 0xAAAAu);
  });
  world.run();
}

TEST(Ordering, GatesIsolateFlows) {
  // Same tags on different gates must not cross-match.
  nm::ClusterConfig cfg;
  cfg.nodes = 3;
  nm::Cluster world(cfg);
  world.spawn(0, [&world] {
    nm::Core& c = world.core(0);
    const std::uint32_t to1 = 111, to2 = 222;
    c.send(world.gate(0, 1), 9, &to1, sizeof(to1));
    c.send(world.gate(0, 2), 9, &to2, sizeof(to2));
  });
  world.spawn(1, [&world] {
    std::uint32_t got = 0;
    world.core(1).recv(world.gate(1, 0), 9, &got, sizeof(got));
    EXPECT_EQ(got, 111u);
  });
  world.spawn(2, [&world] {
    std::uint32_t got = 0;
    world.core(2).recv(world.gate(2, 0), 9, &got, sizeof(got));
    EXPECT_EQ(got, 222u);
  });
  world.run();
}

struct SweepParam {
  LockMode lock;
  StrategyKind strategy;
  std::uint64_t seed;
};

class RandomTrafficSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RandomTrafficSweep, MixedSizesAndTagsDeliverIntact) {
  const SweepParam p = GetParam();
  nm::ClusterConfig cfg;
  cfg.nm.lock = p.lock;
  cfg.nm.strategy = p.strategy;
  nm::Cluster world(cfg);

  // Deterministic random schedule shared by both sides.
  constexpr int kMessages = 40;
  sim::Rng rng(p.seed);
  struct Msg {
    Tag tag;
    std::size_t size;
    std::uint8_t fill;
  };
  std::vector<Msg> plan;
  for (int i = 0; i < kMessages; ++i) {
    const Tag tag = static_cast<Tag>(rng.uniform_int(0, 3));
    // Sizes spanning eager PIO, eager DMA, and rendezvous territory.
    const std::size_t size =
        static_cast<std::size_t>(rng.uniform_int(0, 60000));
    plan.push_back({tag, size, static_cast<std::uint8_t>(rng.uniform_int(1, 255))});
  }

  world.spawn(0, [&world, &plan] {
    nm::Core& c = world.core(0);
    auto& sched = world.sched(0);
    sim::Rng pace(99);
    for (const auto& m : plan) {
      std::vector<std::uint8_t> data(m.size, m.fill);
      c.send(world.gate(0, 1), m.tag, data.data(), data.size());
      sched.work(pace.uniform_int(0, 2000));
    }
  });
  world.spawn(1, [&world, &plan] {
    nm::Core& c = world.core(1);
    // Pre-post every receive (per-tag order = send order), then wait in a
    // shuffled order: matching must pair each recv with the right message.
    std::vector<std::vector<std::uint8_t>> bufs;
    std::vector<nm::Request*> reqs;
    bufs.reserve(plan.size());
    for (const auto& m : plan) {
      bufs.emplace_back(m.size + 8, 0);
      reqs.push_back(
          c.irecv(world.gate(1, 0), m.tag, bufs.back().data(), bufs.back().size()));
    }
    std::vector<std::size_t> order(plan.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    sim::Rng pick(7);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(
                                  pick.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }
    for (std::size_t idx : order) {
      c.wait(reqs[idx]);
      ASSERT_EQ(reqs[idx]->received_length(), plan[idx].size);
      c.release(reqs[idx]);
      for (std::size_t i = 0; i < plan[idx].size; ++i) {
        ASSERT_EQ(bufs[idx][i], plan[idx].fill) << "corruption at byte " << i;
      }
    }
  });
  world.run();
  EXPECT_EQ(world.core(0).active_requests(), 0);
  EXPECT_EQ(world.core(1).active_requests(), 0);
}

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string s = std::string(to_string(info.param.lock)) + "_" +
                  to_string(info.param.strategy) + "_s" +
                  std::to_string(info.param.seed);
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RandomTrafficSweep,
    ::testing::Values(
        SweepParam{LockMode::kNone, StrategyKind::kDefault, 1},
        SweepParam{LockMode::kNone, StrategyKind::kAggreg, 2},
        SweepParam{LockMode::kCoarse, StrategyKind::kAggreg, 3},
        SweepParam{LockMode::kCoarse, StrategyKind::kDefault, 4},
        SweepParam{LockMode::kFine, StrategyKind::kAggreg, 5},
        SweepParam{LockMode::kFine, StrategyKind::kDefault, 6},
        SweepParam{LockMode::kFine, StrategyKind::kSplit, 7},
        SweepParam{LockMode::kFine, StrategyKind::kAggreg, 8},
        SweepParam{LockMode::kCoarse, StrategyKind::kAggreg, 9},
        SweepParam{LockMode::kFine, StrategyKind::kSplit, 10}),
    sweep_name);

// MPI non-overtaking across protocols: the packer schedules an RTS ahead of
// queued eager data, so a rendezvous can physically overtake the earlier
// same-tag eager messages of its channel. Matching must still pair each
// receive with the message sent in the same position, on one shared RX
// queue or on per-endpoint rings, with the receives posted before the
// messages land or after they are all unexpected.
TEST(Ordering, EagerThenRendezvousSameTagMatchInSendOrder) {
  constexpr std::size_t kSmall = 64;
  constexpr std::size_t kLarge = std::size_t{256} * 1024;
  const std::vector<std::size_t> sent = {kSmall, kSmall, kSmall, kLarge};
  for (int rxq : {1, 2}) {
    for (int eps : {1, 2}) {
      for (bool late : {false, true}) {
        SCOPED_TRACE("rx_queues=" + std::to_string(rxq) +
                     " endpoints=" + std::to_string(eps) +
                     (late ? " late receiver" : " receives posted first"));
        nm::ClusterConfig cfg;
        cfg.endpoints = eps;
        cfg.rx_queues = rxq;
        nm::Cluster world(cfg);
        world.spawn(0, [&world, &sent] {
          nm::Core& c = world.core(0);
          std::vector<std::uint8_t> data(kLarge, 0x5a);
          std::vector<Request*> reqs;
          for (std::size_t len : sent) {
            reqs.push_back(c.isend(world.gate(0, 1), 7, data.data(), len));
          }
          for (Request* r : reqs) {
            c.wait(r);
            c.release(r);
          }
        });
        std::vector<std::size_t> got;
        world.spawn(1, [&world, &sent, &got, late] {
          if (late) world.sched(1).work(sim::microseconds(50));
          nm::Core& c = world.core(1);
          std::vector<std::vector<std::uint8_t>> bufs(
              sent.size(), std::vector<std::uint8_t>(kLarge));
          std::vector<Request*> reqs;
          for (auto& b : bufs) {
            reqs.push_back(c.irecv(world.gate(1, 0), 7, b.data(), b.size()));
          }
          for (Request* r : reqs) {
            c.wait(r);
            got.push_back(r->received_length());
            c.release(r);
          }
        });
        world.run();
        EXPECT_EQ(got, sent);
      }
    }
  }
}

TEST(Determinism, IdenticalRunsProduceIdenticalTimelines) {
  auto run_once = [] {
    nm::ClusterConfig cfg;
    nm::Cluster world(cfg);
    world.spawn(0, [&world] {
      nm::Core& c = world.core(0);
      std::vector<std::uint8_t> m(777, 3), b(777);
      for (int i = 0; i < 20; ++i) {
        c.send(world.gate(0, 1), 1, m.data(), m.size());
        c.recv(world.gate(0, 1), 2, b.data(), b.size());
      }
    });
    world.spawn(1, [&world] {
      nm::Core& c = world.core(1);
      std::vector<std::uint8_t> b(777);
      for (int i = 0; i < 20; ++i) {
        c.recv(world.gate(1, 0), 1, b.data(), b.size());
        c.send(world.gate(1, 0), 2, b.data(), b.size());
      }
    });
    world.run();
    return std::pair(world.engine().now(), world.engine().events_executed());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// Long runs wrap msg_seq modulo ChunkHeader::kMaxSeq (2^24 messages per
// (endpoint, gate)). Starting every gate just below the wrap, same-tag
// messages -- eager and rendezvous, adopted from the unexpected list or
// matched as they arrive -- must still be received in send order, on the
// single shared queue and on per-endpoint rings.
struct SeqWrapCase {
  int endpoints;
  int rx_queues;
  bool late_receiver;  ///< everything lands unexpected before any recv
};

class SeqWrap : public ::testing::TestWithParam<SeqWrapCase> {};

TEST_P(SeqWrap, SendOrderSurvivesTheWrap) {
  const SeqWrapCase wc = GetParam();
  nm::ClusterConfig cfg;
  cfg.endpoints = wc.endpoints;
  cfg.rx_queues = wc.rx_queues;
  nm::Cluster world(cfg);
  constexpr std::uint32_t kStart = ChunkHeader::kMaxSeq - 5;
  constexpr std::uint32_t kCount = 12;  // seqs kMaxSeq-5 .. 6
  world.core(0).set_initial_seq_for_testing(kStart);
  world.core(1).set_initial_seq_for_testing(kStart);
  const std::size_t rdv_len = cfg.nm.rdv_threshold + 4096;
  auto len_of = [rdv_len](std::uint32_t i) {
    return i % 3 == 1 ? rdv_len : std::size_t{64};
  };
  world.spawn(0, [&world, &len_of] {
    // All sends in flight at once, so the receiver holds messages from
    // both sides of the wrap at the same time.
    nm::Core& c = world.core(0);
    std::vector<std::vector<std::uint8_t>> msgs;
    std::vector<Request*> reqs;
    for (std::uint32_t i = 0; i < kCount; ++i) {
      msgs.emplace_back(len_of(i), static_cast<std::uint8_t>(i));
      std::memcpy(msgs.back().data(), &i, sizeof(i));
    }
    for (std::uint32_t i = 0; i < kCount; ++i) {
      reqs.push_back(c.isend(world.gate(0, 1), 7, msgs[i].data(),
                             msgs[i].size()));
    }
    for (Request* r : reqs) {
      c.wait(r);
      c.release(r);
    }
  });
  std::uint32_t received = 0;
  world.spawn(1, [&world, &len_of, &received, late = wc.late_receiver] {
    if (late) world.sched(1).work(sim::microseconds(500));
    nm::Core& c = world.core(1);
    std::vector<std::uint8_t> b(len_of(1));
    for (std::uint32_t i = 0; i < kCount; ++i) {
      c.recv(world.gate(1, 0), 7, b.data(), b.size());
      std::uint32_t got = 0;
      std::memcpy(&got, b.data(), sizeof(got));
      EXPECT_EQ(got, i) << "message " << i << " matched out of send order";
      ++received;
    }
  });
  world.run();
  EXPECT_EQ(received, kCount);
}

INSTANTIATE_TEST_SUITE_P(
    Wrap, SeqWrap,
    ::testing::Values(SeqWrapCase{1, 1, false}, SeqWrapCase{1, 1, true},
                      SeqWrapCase{2, 2, false}, SeqWrapCase{2, 2, true}),
    [](const ::testing::TestParamInfo<SeqWrapCase>& info) {
      return "ep" + std::to_string(info.param.endpoints) + "_rxq" +
             std::to_string(info.param.rx_queues) +
             (info.param.late_receiver ? "_unexpected" : "_posted");
    });

TEST(SeqWrap, SerialOrderAcrossTheWrap) {
  constexpr std::uint32_t kLast = ChunkHeader::kMaxSeq - 1;
  EXPECT_EQ(seq_next(kLast), 0u);
  EXPECT_TRUE(seq_after(0, kLast));
  EXPECT_TRUE(seq_after(3, kLast - 2));
  EXPECT_FALSE(seq_after(kLast, 0));
  EXPECT_FALSE(seq_after(5, 5));
  EXPECT_TRUE(seq_after(6, 5));
  EXPECT_FALSE(seq_after(5, 6));
}

}  // namespace
}  // namespace pm2::nm
