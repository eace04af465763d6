// Failure injection: malformed wire data and traffic from unknown peers
// must be contained (dropped / rejected), never corrupt matching state.
#include <gtest/gtest.h>

#include <vector>

#include "nmad/cluster.hpp"
#include "nmad/wire_format.hpp"

namespace pm2::nm {
namespace {

TEST(FailureInjection, PacketFromUnknownPortIsDropped) {
  // A rogue NIC attaches to the fabric after the cluster wired its gates;
  // its packets reach node 1's NIC but match no gate.
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  net::Nic rogue(world.machine(0), world.nic(0, 0).fabric(),
                 net::NicParams::myri10g());
  rogue.post_send(/*dst_port=*/1, 0, {1, 2, 3});

  bool got_real_message = false;
  world.spawn(0, [&world] {
    world.sched(0).work(sim::microseconds(20));  // rogue packet lands first
    std::uint8_t v = 9;
    world.core(0).send(world.gate(0, 1), 1, &v, 1);
  });
  world.spawn(1, [&world, &got_real_message] {
    std::uint8_t v = 0;
    world.core(1).recv(world.gate(1, 0), 1, &v, 1);
    got_real_message = (v == 9);
  });
  world.run();
  EXPECT_TRUE(got_real_message);
  // The rogue packet was consumed (polled) and dropped.
  EXPECT_GE(world.nic(1, 0).packets_received(), 2u);
}

TEST(FailureInjection, MalformedPayloadIsRejectedNotCrashed) {
  // Garbage bytes injected on the legitimate peer's port: the reader must
  // poison and the library keep functioning for the next good message.
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  bool ok = false;
  world.spawn(0, [&world, &ok] {
    // Inject garbage below the nmad layer, straight into the NIC.
    world.nic(0, 0).post_send(1, 0, {0xFF, 0xFF, 0xFF, 0x01, 0x02});
    world.sched(0).work(sim::microseconds(20));
    std::uint8_t v = 7;
    world.core(0).send(world.gate(0, 1), 1, &v, 1);
    std::uint8_t r = 0;
    world.core(0).recv(world.gate(0, 1), 2, &r, 1);
    ok = (r == 8);
  });
  world.spawn(1, [&world] {
    std::uint8_t v = 0;
    world.core(1).recv(world.gate(1, 0), 1, &v, 1);
    const std::uint8_t reply = static_cast<std::uint8_t>(v + 1);
    world.core(1).send(world.gate(1, 0), 2, &reply, 1);
  });
  world.run();
  EXPECT_TRUE(ok);
}

TEST(FailureInjection, TruncatedChunkCountHandled) {
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  bool ok = false;
  world.spawn(0, [&world, &ok] {
    world.nic(0, 0).post_send(1, 0, {0x05});  // half a chunk-count field
    world.sched(0).work(sim::microseconds(20));
    std::uint8_t v = 1;
    world.core(0).send(world.gate(0, 1), 1, &v, 1);
    ok = true;
  });
  world.spawn(1, [&world] {
    std::uint8_t v = 0;
    world.core(1).recv(world.gate(1, 0), 1, &v, 1);
  });
  world.run();
  EXPECT_TRUE(ok);
}

TEST(FailureInjection, ChunkCountLyingAboutContentIsContained) {
  // Header claims 3 chunks but carries none: reader must stop at the
  // malformed boundary without touching matching state.
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  world.spawn(0, [&world] {
    world.nic(0, 0).post_send(1, 0, {0x03, 0x00});
    world.sched(0).work(sim::microseconds(20));
    std::uint8_t v = 1;
    world.core(0).send(world.gate(0, 1), 1, &v, 1);
  });
  bool delivered = false;
  world.spawn(1, [&world, &delivered] {
    std::uint8_t v = 0;
    world.core(1).recv(world.gate(1, 0), 1, &v, 1);
    delivered = (v == 1);
  });
  world.run();
  EXPECT_TRUE(delivered);
}

// --- chunks that decode but lie about their message ----------------------
//
// The decoder accepts any byte range; the core checks each chunk against
// the message it claims to belong to and drops the liars with a warning
// (Core::Stats::dropped_chunks), where they used to reach an abort.

/// One packet carrying @p h, with filler data (or none, when @p placed).
net::Payload lying_packet(const ChunkHeader& h, bool placed = false) {
  PacketBuilder b;
  const std::vector<std::uint8_t> data(h.chunk_len, 0xAB);
  if (placed) {
    b.add_chunk_placed(h);
  } else {
    b.add_chunk(h, h.chunk_len > 0 ? data.data() : nullptr);
  }
  return b.take();
}

/// Node 0 injects @p bad straight into its NIC, then sends a real message;
/// node 1 must drop every injected chunk and still receive it.
void expect_dropped(const std::vector<net::Payload>& bad,
                    std::uint64_t drops = 1) {
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  world.spawn(0, [&world, &bad] {
    for (const auto& p : bad) world.nic(0, 0).post_send(1, 0, p);
    world.sched(0).work(sim::microseconds(20));
    std::uint8_t v = 9;
    world.core(0).send(world.gate(0, 1), 1, &v, 1);
  });
  std::uint8_t got = 0;
  world.spawn(1, [&world, &got] {
    world.core(1).recv(world.gate(1, 0), 1, &got, 1);
  });
  world.run();
  EXPECT_EQ(got, 9);
  EXPECT_EQ(world.core(1).stats().dropped_chunks, drops);
  EXPECT_EQ(world.core(0).stats().dropped_chunks, 0u);
}

ChunkHeader eager(std::uint32_t seq, std::uint32_t offset, std::uint32_t len,
                  std::uint32_t total) {
  ChunkHeader h;
  h.kind = ChunkKind::kEager;
  h.tag = 77;
  h.msg_seq = seq;
  h.offset = offset;
  h.chunk_len = len;
  h.total_len = total;
  return h;
}

TEST(ChunkValidation, CtsForUnknownCookieIsDropped) {
  ChunkHeader h;
  h.kind = ChunkKind::kCts;
  h.tag = 77;
  h.msg_seq = 500;
  h.cookie = 0xBADC00C1Eull;
  expect_dropped({lying_packet(h)});
}

TEST(ChunkValidation, UnexpectedChunkPastTotalLengthIsDropped) {
  expect_dropped({lying_packet(eager(500, 0, 8, 4))});
}

TEST(ChunkValidation, ChunkPastEarlierPieceOfItsMessageIsDropped) {
  // The first piece fixes the unexpected message at 4 bytes; the second
  // claims a longer message and lands past those 4.
  expect_dropped({lying_packet(eager(500, 0, 2, 4)),
                  lying_packet(eager(500, 2, 6, 16))});
}

TEST(ChunkValidation, PlacedChunkArrivingUnexpectedIsDropped) {
  ChunkHeader h = eager(500, 0, 16, 16);
  h.kind = ChunkKind::kRdvData;
  expect_dropped({lying_packet(h, /*placed=*/true)});
}

TEST(ChunkValidation, ChunkPastBoundReceiveIsDropped) {
  // A posted 4-byte receive binds to message 500 from its first piece; a
  // second piece claims a 100-byte message and an offset past the buffer.
  // The true last piece then completes the receive.
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  world.spawn(0, [&world] {
    world.sched(0).work(sim::microseconds(5));  // the receive is posted
    world.nic(0, 0).post_send(1, 0, lying_packet(eager(500, 0, 2, 4)));
    world.nic(0, 0).post_send(1, 0, lying_packet(eager(500, 50, 10, 100)));
    world.nic(0, 0).post_send(1, 0, lying_packet(eager(500, 2, 2, 4)));
  });
  std::vector<std::uint8_t> buf(4, 0);
  std::size_t len = 0;
  world.spawn(1, [&world, &buf, &len] {
    len = world.core(1).recv(world.gate(1, 0), 77, buf.data(), buf.size());
  });
  world.run();
  EXPECT_EQ(len, 4u);
  EXPECT_EQ(buf, std::vector<std::uint8_t>(4, 0xAB));
  EXPECT_EQ(world.core(1).stats().dropped_chunks, 1u);
}

}  // namespace
}  // namespace pm2::nm
