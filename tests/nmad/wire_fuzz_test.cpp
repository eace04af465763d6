// Seeded fuzzing of the wire decoder: truncated, byte-flipped and
// count-corrupted payloads, flat and segmented, fed to peek_packet_ep and
// PacketReader::next. The decoder must reject bad input by returning
// nullopt (never abort), must never hand out a chunk that reaches past the
// bytes it was given, and peek_packet_ep must agree with the first chunk a
// reader decodes (0 when there is none). Run under the ASan build
// (bench/check_sanitize.sh) this also proves no out-of-bounds read.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "nmad/wire_format.hpp"
#include "simnet/buffer_pool.hpp"

namespace pm2::nm {
namespace {

constexpr std::size_t kCountBytes = 2;
constexpr int kCases = 4000;

/// A well-formed segmented payload of 1..5 random chunks (eager data,
/// placed rendezvous data, RTS/CTS control), as the strategies build them.
net::Payload random_packet(std::mt19937_64& rng) {
  PacketBuilder b;
  const int chunks = 1 + static_cast<int>(rng() % 5);
  const std::uint8_t ep = static_cast<std::uint8_t>(rng() % 4);
  std::vector<std::uint8_t> data(64);
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng());
  for (int c = 0; c < chunks; ++c) {
    ChunkHeader h;
    h.ep = ep;
    h.kind = static_cast<ChunkKind>(1 + rng() % 4);
    h.tag = rng();
    h.msg_seq = static_cast<std::uint32_t>(rng() % ChunkHeader::kMaxSeq);
    h.cookie = rng();
    const auto len = static_cast<std::uint32_t>(rng() % data.size());
    if (h.kind == ChunkKind::kRts || h.kind == ChunkKind::kCts) {
      h.total_len = len;
      b.add_chunk(h, nullptr);
    } else {
      h.offset = static_cast<std::uint32_t>(rng() % 128);
      h.chunk_len = len;
      h.total_len = h.offset + len + static_cast<std::uint32_t>(rng() % 16);
      if (h.kind == ChunkKind::kRdvData && rng() % 2 == 0) {
        b.add_chunk_placed(h);
      } else {
        b.add_chunk(h, len > 0 ? data.data() : nullptr);
      }
    }
  }
  return b.take();
}

/// Corrupt @p bytes in place: truncate, flip bytes, or rewrite the chunk
/// count -- one or several of these per case.
void corrupt(std::vector<std::uint8_t>& bytes, std::mt19937_64& rng) {
  const int ops = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < ops; ++i) {
    switch (rng() % 3) {
      case 0:
        bytes.resize(bytes.empty() ? 0 : rng() % bytes.size());
        break;
      case 1:
        if (!bytes.empty()) {
          bytes[rng() % bytes.size()] ^=
              static_cast<std::uint8_t>(1 + rng() % 255);
        }
        break;
      case 2:
        if (bytes.size() >= kCountBytes) {
          const std::uint16_t count =
              rng() % 2 == 0 ? static_cast<std::uint16_t>(rng())
                             : static_cast<std::uint16_t>(rng() % 8);
          bytes[0] = static_cast<std::uint8_t>(count);
          bytes[1] = static_cast<std::uint8_t>(count >> 8);
        }
        break;
    }
  }
}

std::uint16_t declared_count(const std::uint8_t* buf, std::size_t len) {
  return len < kCountBytes ? 0
                           : static_cast<std::uint16_t>(buf[0] | buf[1] << 8);
}

/// Decode @p payload to the end and check every chunk the reader hands out.
/// Returns the number of chunks decoded.
std::size_t decode_all(const net::Payload& payload) {
  const bool flat = payload.flat();
  const std::uint8_t* buf =
      flat ? payload.flat_bytes().data() : payload.header_bytes();
  const std::size_t len =
      flat ? payload.flat_bytes().size() : payload.header_len();
  PacketReader reader(payload);
  const std::uint8_t peeked = peek_packet_ep(payload);
  std::size_t decoded = 0;
  const std::uint8_t* data = nullptr;
  void* note = nullptr;
  while (auto h = reader.next(&data, &note)) {
    const auto kind = static_cast<int>(h->kind);
    EXPECT_GE(kind, 1);
    EXPECT_LE(kind, 4);
    EXPECT_LT(h->msg_seq, ChunkHeader::kMaxSeq);
    if (decoded == 0) {
      EXPECT_EQ(peeked, h->ep);
    }
    if (flat) {
      if (h->chunk_len > 0) {
        EXPECT_GE(data, buf);
        EXPECT_LE(data + h->chunk_len, buf + len);
      }
    } else {
      const net::PayloadView& seg = payload.segment(decoded);
      EXPECT_EQ(seg.len, h->chunk_len);
      EXPECT_EQ(data, seg.data);
    }
    ++decoded;
  }
  EXPECT_LE(decoded, declared_count(buf, len));
  if (declared_count(buf, len) == 0 ||
      len < kCountBytes + ChunkHeader::kWireSize) {
    EXPECT_EQ(peeked, 0);  // no whole first header: nothing to steer by
  }
  // A reader that stopped short of the declared count reports why.
  if (reader.remaining() > 0) {
    EXPECT_FALSE(reader.ok());
  }
  // Once poisoned (or drained), the reader stays that way.
  EXPECT_FALSE(reader.next(&data, &note).has_value());
  return decoded;
}

TEST(WireFuzz, WellFormedPayloadsDecodeCompletely) {
  std::mt19937_64 rng(0x5eed0001);
  for (int i = 0; i < 200; ++i) {
    const net::Payload p = random_packet(rng);
    const std::size_t n = p.segments();
    EXPECT_EQ(decode_all(p), n);
    EXPECT_EQ(decode_all(net::Payload(p.linearize())), n);
  }
}

TEST(WireFuzz, CorruptedFlatPayloadsAreRejectedCleanly) {
  std::mt19937_64 rng(0x5eed0002);
  int rejected = 0;
  for (int i = 0; i < kCases; ++i) {
    std::vector<std::uint8_t> bytes = random_packet(rng).linearize();
    corrupt(bytes, rng);
    const net::Payload p(std::move(bytes));
    PacketReader probe(p);
    const std::uint8_t* data = nullptr;
    while (probe.next(&data)) {
    }
    if (!probe.ok()) ++rejected;
    decode_all(p);
  }
  // The corpus really exercises the rejection paths.
  EXPECT_GT(rejected, kCases / 4);
}

TEST(WireFuzz, CorruptedSegmentedPayloadsAreRejectedCleanly) {
  std::mt19937_64 rng(0x5eed0003);
  int rejected = 0;
  for (int i = 0; i < kCases; ++i) {
    const net::Payload good = random_packet(rng);
    std::vector<std::uint8_t> hdr(good.header_bytes(),
                                  good.header_bytes() + good.header_len());
    corrupt(hdr, rng);
    std::vector<net::PayloadView> segs;
    for (std::size_t s = 0; s < good.segments(); ++s) {
      segs.push_back(good.segment(s));
    }
    // Segment-list corruption: drop trailing segments or misstate a length.
    if (rng() % 4 == 0 && !segs.empty()) segs.resize(rng() % segs.size());
    if (rng() % 4 == 0 && !segs.empty()) segs[rng() % segs.size()].len ^= 1;
    // The header slab is pooled (rounded up); fill its tail with copies of
    // the first header so a reader overrunning header_len would decode
    // extra, plausible chunks instead of failing quietly.
    net::SlabRef slab = net::BufferPool::global().acquire(
        std::max<std::size_t>(hdr.size(), 1));
    std::memcpy(slab.data(), hdr.data(), hdr.size());
    for (std::size_t b = hdr.size(); b < slab.capacity(); ++b) {
      slab.data()[b] =
          good.header_bytes()[kCountBytes + b % ChunkHeader::kWireSize];
    }
    net::SlabRef data = good.data_slab() != nullptr ? *good.data_slab()
                                                    : net::SlabRef();
    const net::Payload p = net::Payload::segmented(
        std::move(slab), static_cast<std::uint32_t>(hdr.size()),
        std::move(data), std::move(segs));
    const std::size_t decoded = decode_all(p);
    EXPECT_LE(decoded, hdr.size() < kCountBytes
                           ? 0
                           : (hdr.size() - kCountBytes) /
                                 ChunkHeader::kWireSize);
    PacketReader probe(p);
    const std::uint8_t* out = nullptr;
    while (probe.next(&out)) {
    }
    if (!probe.ok()) ++rejected;
  }
  EXPECT_GT(rejected, kCases / 4);
}

TEST(WireFuzz, PeekOnDegeneratePayloadsReturnsZero) {
  EXPECT_EQ(peek_packet_ep(net::Payload()), 0);
  EXPECT_EQ(peek_packet_ep(net::Payload(std::vector<std::uint8_t>{})), 0);
  // A zero-count packet with trailing bytes, and a truncated first header
  // whose ep byte is present: neither has a chunk to steer by.
  std::vector<std::uint8_t> zero_count(64, 0xAB);
  zero_count[0] = zero_count[1] = 0;
  EXPECT_EQ(peek_packet_ep(net::Payload(zero_count)), 0);
  std::vector<std::uint8_t> truncated(20, 0xAB);
  truncated[0] = 1;
  truncated[1] = 0;
  truncated[2] = static_cast<std::uint8_t>(ChunkKind::kEager);
  EXPECT_EQ(peek_packet_ep(net::Payload(truncated)), 0);
}

}  // namespace
}  // namespace pm2::nm
