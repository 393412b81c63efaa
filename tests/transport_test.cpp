// Tests for the SNIPE communications module: SRUDP reliability/ordering/
// fragmentation/failover, the TCP-like stream, wire codecs, multipath
// policy, and the experimental Ethernet multicast.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "simnet/fault.hpp"
#include "transport/ethmcast.hpp"
#include "transport/message.hpp"
#include "transport/multipath.hpp"
#include "transport/srudp.hpp"
#include "transport/stream.hpp"
#include "transport/wire.hpp"

namespace snipe::transport {
namespace {

using simnet::Address;
using simnet::World;

Bytes pattern_bytes(std::size_t n, std::uint32_t seed = 1) {
  Bytes b(n);
  std::uint32_t x = seed;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 1664525u + 1013904223u;
    b[i] = static_cast<std::uint8_t>(x >> 24);
  }
  return b;
}

// ---- wire codecs ----

TEST(Wire, DataRoundTrip) {
  DataPacket p{77, 3, 9, 12345, /*flow=*/0xfeedbeefu, pattern_bytes(100)};
  auto wire = encode_data(4242, p);
  auto head = decode_head(wire).value();
  EXPECT_EQ(head.type, PacketType::data);
  EXPECT_EQ(head.src_port, 4242);
  auto q = decode_data(wire).value();
  EXPECT_EQ(q.msg_id, 77u);
  EXPECT_EQ(q.frag_index, 3u);
  EXPECT_EQ(q.frag_count, 9u);
  EXPECT_EQ(q.total_len, 12345u);
  EXPECT_EQ(q.flow, 0xfeedbeefu);
  EXPECT_EQ(q.payload, p.payload);
}

TEST(Wire, DataChecksumRoundTripAndDetectsCorruption) {
  DataPacket p{77, 3, 9, 12345, 0, pattern_bytes(100)};
  auto wire = encode_data(4242, p, /*with_checksum=*/true);
  EXPECT_EQ(decode_head(wire).value().type, PacketType::data_ck);
  auto q = decode_data(wire).value();
  EXPECT_TRUE(q.has_checksum);
  EXPECT_TRUE(q.checksum_ok);
  EXPECT_EQ(q.payload, p.payload);

  // Flip one payload byte: the packet still decodes (the caller decides
  // whether to drop), but the mismatch is flagged.
  Bytes mangled = wire.to_bytes();
  mangled.back() ^= 0x01;
  auto bad = decode_data(Payload(std::move(mangled))).value();
  EXPECT_TRUE(bad.has_checksum);
  EXPECT_FALSE(bad.checksum_ok);
}

TEST(Wire, PlainDataCarriesNoChecksum) {
  DataPacket p{1, 0, 1, 4, 0, pattern_bytes(4)};
  auto q = decode_data(encode_data(1, p)).value();
  EXPECT_FALSE(q.has_checksum);
  EXPECT_TRUE(q.checksum_ok);  // vacuously: nothing to verify
}

TEST(Wire, DataRejectsBadIndices) {
  DataPacket p{1, 5, 5, 10, 0, {}};  // index == count
  EXPECT_FALSE(decode_data(encode_data(1, p)).ok());
}

TEST(Wire, StatusRoundTripAndBitmapCheck) {
  StatusPacket p{9, 10, make_bitmap(10)};
  bitmap_set(p.bitmap, 0);
  bitmap_set(p.bitmap, 9);
  auto q = decode_status(encode_status(7, p)).value();
  EXPECT_TRUE(bitmap_get(q.bitmap, 0));
  EXPECT_FALSE(bitmap_get(q.bitmap, 5));
  EXPECT_TRUE(bitmap_get(q.bitmap, 9));

  StatusPacket bad{9, 100, make_bitmap(10)};  // bitmap too small for count
  EXPECT_FALSE(decode_status(encode_status(7, bad)).ok());
}

TEST(Wire, StreamRoundTrip) {
  StreamPacket p{5, 1000, 2000, 65536, pattern_bytes(64)};
  auto q = decode_stream(encode_stream(PacketType::seg, 9, p)).value();
  EXPECT_EQ(q.conn_id, 5u);
  EXPECT_EQ(q.seq, 1000u);
  EXPECT_EQ(q.ack, 2000u);
  EXPECT_EQ(q.window, 65536u);
  EXPECT_EQ(q.payload, p.payload);
}

TEST(Wire, McastRoundTrip) {
  McastDataPacket p{"urn:snipe:group:g", 3,    1, 4, 999, /*flow=*/0xabcdef12u,
                    /*born=*/123456789,  pattern_bytes(32)};
  auto q = decode_mcast_data(encode_mcast_data(1, p)).value();
  EXPECT_EQ(q.group, p.group);
  EXPECT_EQ(q.payload, p.payload);
  EXPECT_EQ(q.flow, p.flow);
  EXPECT_EQ(q.born, p.born);

  McastNackPacket n{"urn:snipe:group:g", 3, {0, 2, 5}};
  auto m = decode_mcast_nack(encode_mcast_nack(1, n)).value();
  EXPECT_EQ(m.missing, n.missing);
}

TEST(Wire, HeaderSizeConstantsMatchReality) {
  DataPacket p{1, 0, 1, 0, 0, {}};
  EXPECT_EQ(encode_data(1, p).size(), kDataHeaderBytes);
  StreamPacket s{1, 0, 0, 0, {}};
  EXPECT_EQ(encode_stream(PacketType::seg, 1, s).size(), kStreamHeaderBytes);
}

TEST(Wire, RejectsAbsurdFragmentCounts) {
  // Hostile-input bound (kMaxWireFragments): a forged count must be
  // rejected before any receiver sizes buffers from it.
  DataPacket d{1, 0, kMaxWireFragments + 1, 10, 0, pattern_bytes(4)};
  EXPECT_FALSE(decode_data(encode_data(1, d)).ok());

  StatusPacket s{1, kMaxWireFragments + 1, make_bitmap(8)};
  EXPECT_FALSE(decode_status(encode_status(1, s)).ok());

  McastDataPacket m{"g", 1, 0, kMaxWireFragments + 1, 10, 0, 0, pattern_bytes(4)};
  EXPECT_FALSE(decode_mcast_data(encode_mcast_data(1, m)).ok());

  // A multi-fragment message claiming zero total length is equally bogus.
  DataPacket z{1, 0, 3, 0, 0, pattern_bytes(4)};
  EXPECT_FALSE(decode_data(encode_data(1, z)).ok());

  // NACK with a forged element count (hand-built: the encoder cannot
  // produce one without allocating the giant vector first).
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(PacketType::mnack));
  w.u16(1);
  w.str("g");
  w.u64(3);
  w.u32(kMaxWireFragments + 1);
  EXPECT_FALSE(decode_mcast_nack(std::move(w).take()).ok());
}

TEST(Wire, BitmapHelpers) {
  Bytes bm = make_bitmap(17);
  EXPECT_EQ(bm.size(), 3u);
  for (std::uint32_t i = 0; i < 17; ++i) EXPECT_FALSE(bitmap_get(bm, i));
  bitmap_set(bm, 16);
  EXPECT_TRUE(bitmap_get(bm, 16));
  EXPECT_FALSE(bitmap_get(bm, 100));  // out of range reads as unset
}

TEST(Message, TaggedRoundTrip) {
  TaggedMessage m{42, pattern_bytes(10)};
  auto d = TaggedMessage::decode(m.encode()).value();
  EXPECT_EQ(d.tag, 42u);
  EXPECT_EQ(d.body, m.body);
  EXPECT_FALSE(TaggedMessage::decode(Bytes{1}).ok());
}

// ---- SRUDP ----

struct SrudpPair {
  explicit SrudpPair(std::uint64_t seed = 1, simnet::MediaModel media = simnet::ethernet100(),
                     SrudpConfig cfg = {})
      : world(seed) {
    world.create_network("net", media);
    auto& ha = world.create_host("a");
    auto& hb = world.create_host("b");
    world.attach(ha, *world.network("net"));
    world.attach(hb, *world.network("net"));
    a = std::make_unique<SrudpEndpoint>(ha, 7001, cfg);
    b = std::make_unique<SrudpEndpoint>(hb, 7002, cfg);
    b->set_handler([this](const Address& src, Payload msg) {
      received.emplace_back(src, msg.to_bytes());
    });
  }
  World world;
  std::unique_ptr<SrudpEndpoint> a, b;
  std::vector<std::pair<Address, Bytes>> received;
};

TEST(Srudp, SmallMessageDelivered) {
  SrudpPair p;
  p.a->send(p.b->address(), to_bytes("hello"));
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_EQ(to_string(p.received[0].second), "hello");
  EXPECT_EQ(p.received[0].first, p.a->address());
  EXPECT_EQ(p.a->pending(), 0u);
  EXPECT_EQ(p.a->stats().fragments_retransmitted, 0u);
}

TEST(Srudp, EmptyMessageDelivered) {
  SrudpPair p;
  p.a->send(p.b->address(), Bytes{});
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_TRUE(p.received[0].second.empty());
}

TEST(Srudp, LargeMessageFragmentsAndReassembles) {
  SrudpPair p;
  Bytes big = pattern_bytes(1 << 20);  // 1 MiB over 1500-MTU Ethernet
  p.a->send(p.b->address(), big);
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_EQ(p.received[0].second, big);
  // ~1 MiB / ~1473 B per fragment.
  EXPECT_GT(p.a->stats().fragments_sent, 700u);
  EXPECT_EQ(p.a->stats().messages_delivered, 0u);  // a received nothing
  EXPECT_EQ(p.b->stats().messages_delivered, 1u);
}

TEST(Srudp, ManyMessagesDeliveredInOrder) {
  SrudpPair p;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    ByteWriter w;
    w.i32(i);
    p.a->send(p.b->address(), std::move(w).take());
  }
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ByteReader r(p.received[i].second);
    EXPECT_EQ(r.i32().value(), i);
  }
}

TEST(Srudp, SurvivesHeavyLoss) {
  SrudpPair p(99);
  p.world.network("net")->set_extra_loss(0.20);
  Bytes big = pattern_bytes(200'000);
  p.a->send(p.b->address(), big);
  for (int i = 0; i < 30; ++i) {
    ByteWriter w;
    w.i32(i);
    p.a->send(p.b->address(), std::move(w).take());
  }
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 31u);
  EXPECT_EQ(p.received[0].second, big);
  EXPECT_GT(p.a->stats().fragments_retransmitted, 0u);
  EXPECT_EQ(p.a->stats().messages_expired, 0u);
  EXPECT_EQ(p.b->stats().messages_skipped, 0u);
}

TEST(Srudp, ChecksumRejectsCorruptFragmentsYetDeliveryConverges) {
  SrudpConfig cfg;
  cfg.checksum = true;
  SrudpPair p(1234, simnet::ethernet100(), cfg);
  simnet::FaultProfile prof;
  prof.corrupt = 0.05;
  prof.corrupt_max_bytes = 8;
  simnet::FaultPlan plan(p.world, 4321);
  plan.inject("net", prof);

  Bytes big = pattern_bytes(400'000);
  p.a->send(p.b->address(), big);
  p.world.engine().run();

  // Corrupt fragments were caught and dropped, the sender's RTO resent
  // them, and the message still arrived byte-identical.
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_EQ(p.received[0].second, big);
  EXPECT_GT(p.b->stats().checksum_rejects.v, 0u);
  EXPECT_GT(p.a->stats().fragments_retransmitted.v, 0u);
  EXPECT_EQ(p.a->stats().messages_expired.v, 0u);
}

TEST(Srudp, ChecksummingReceiverAcceptsPlainData) {
  // One side upgraded, the other not: a checksumming receiver must still
  // accept legacy DATA fragments (the feature is per-sender opt-in).
  World world(77);
  world.create_network("net", simnet::ethernet100());
  auto& ha = world.create_host("a");
  auto& hb = world.create_host("b");
  world.attach(ha, *world.network("net"));
  world.attach(hb, *world.network("net"));
  SrudpConfig plain;
  SrudpConfig checked;
  checked.checksum = true;
  SrudpEndpoint a(ha, 7001, plain);
  SrudpEndpoint b(hb, 7002, checked);
  std::vector<Bytes> got;
  b.set_handler([&](const Address&, Payload msg) { got.push_back(msg.to_bytes()); });

  Bytes msg = pattern_bytes(50'000);
  a.send(b.address(), msg);
  world.engine().run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], msg);
  EXPECT_EQ(b.stats().checksum_rejects.v, 0u);
}

TEST(Srudp, ChecksumIsOffByDefault) {
  EXPECT_FALSE(SrudpConfig{}.checksum);
  SrudpPair p;
  p.a->send(p.b->address(), pattern_bytes(10'000));
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_EQ(p.b->stats().checksum_rejects.v, 0u);
}

TEST(Srudp, ExactlyOnceUnderLossAndDuplicates) {
  SrudpPair p(7);
  p.world.network("net")->set_extra_loss(0.3);
  const int n = 50;
  for (int i = 0; i < n; ++i) p.a->send(p.b->address(), pattern_bytes(5000, i + 1));
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(p.received[i].second, pattern_bytes(5000, i + 1));
}

TEST(Srudp, BuffersWhileReceiverTemporarilyDown) {
  // §6: "migrating or temporarily unavailable tasks did not result in lost
  // messages".
  SrudpPair p;
  p.world.host("b")->set_up(false);
  p.a->send(p.b->address(), to_bytes("patience"));
  p.world.engine().run_for(duration::seconds(2));
  EXPECT_TRUE(p.received.empty());
  EXPECT_EQ(p.a->pending(), 1u);
  p.world.host("b")->set_up(true);
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_EQ(to_string(p.received[0].second), "patience");
  EXPECT_EQ(p.a->pending(), 0u);
}

TEST(Srudp, ExpiresAfterTtlWhenReceiverGone) {
  SrudpConfig cfg;
  cfg.msg_ttl = duration::seconds(3);
  SrudpPair p(1, simnet::ethernet100(), cfg);
  p.world.host("b")->set_up(false);
  p.a->send(p.b->address(), to_bytes("doomed"));
  p.world.engine().run();
  EXPECT_EQ(p.a->pending(), 0u);
  EXPECT_EQ(p.a->stats().messages_expired, 1u);
  EXPECT_TRUE(p.received.empty());
}

TEST(Srudp, HeadOfLineGapSkippedAfterSenderGivesUp) {
  SrudpConfig cfg;
  cfg.msg_ttl = duration::seconds(2);
  cfg.hol_skip = duration::seconds(1);
  SrudpPair p(1, simnet::ethernet100(), cfg);
  // Message 1 dies (receiver down past the sender's TTL; the expiry fires
  // on the first retransmission timeout after the deadline)...
  p.world.host("b")->set_up(false);
  p.a->send(p.b->address(), to_bytes("first"));
  p.world.engine().run_for(duration::seconds(5));
  EXPECT_EQ(p.a->stats().messages_expired, 1u);
  // ...then message 2 arrives and must not be blocked forever.
  p.world.host("b")->set_up(true);
  p.a->send(p.b->address(), to_bytes("second"));
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_EQ(to_string(p.received[0].second), "second");
  EXPECT_EQ(p.b->stats().messages_skipped, 1u);
}

TEST(Srudp, BidirectionalEcho) {
  SrudpPair p;
  p.b->set_handler([&](const Address& src, Payload msg) {
    p.b->send(src, msg);  // echo
  });
  std::vector<Bytes> echoes;
  p.a->set_handler([&](const Address&, Payload msg) { echoes.push_back(msg.to_bytes()); });
  for (int i = 0; i < 10; ++i) p.a->send(p.b->address(), pattern_bytes(3000, i));
  p.world.engine().run();
  ASSERT_EQ(echoes.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(echoes[i], pattern_bytes(3000, i));
}

TEST(Srudp, FailsOverToSecondNetworkWhenLinkDies) {
  // Dual-homed hosts: ATM is fastest and chosen first; killing it mid-
  // transfer must switch the route to Ethernet without losing the message.
  World world(5);
  world.create_network("atm", simnet::atm155());
  world.create_network("eth", simnet::ethernet100());
  auto& ha = world.create_host("a");
  auto& hb = world.create_host("b");
  for (auto* h : {&ha, &hb}) {
    world.attach(*h, *world.network("atm"));
    world.attach(*h, *world.network("eth"));
  }
  SrudpEndpoint a(ha, 7001), b(hb, 7002);
  std::vector<Bytes> got;
  b.set_handler([&](const Address&, Payload msg) { got.push_back(msg.to_bytes()); });

  Bytes big = pattern_bytes(2 << 20);
  a.send(b.address(), big);
  // Let a few fragments flow on ATM, then silently kill the *receiver's*
  // ATM interface: the sender cannot see that, keeps transmitting into a
  // black hole, and must discover the failure through timeouts — the case
  // MultipathPolicy exists for.  (A network the sender can see down is
  // routed around at send time without the policy.)
  world.engine().run_for(duration::milliseconds(5));
  hb.nic_on("atm")->set_up(false);
  world.engine().run();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], big);
  EXPECT_GE(a.stats().route_switches, 1);
  EXPECT_GT(world.network("eth")->stats().packets_delivered, 0u);
}

TEST(Srudp, MtuRespectedPerNetwork) {
  // Fragments must fit the *smallest* attached MTU so failover never
  // produces an oversize datagram.
  World world(5);
  world.create_network("atm", simnet::atm155());   // MTU 9180
  world.create_network("eth", simnet::ethernet100());  // MTU 1500
  auto& ha = world.create_host("a");
  auto& hb = world.create_host("b");
  for (auto* h : {&ha, &hb}) {
    world.attach(*h, *world.network("atm"));
    world.attach(*h, *world.network("eth"));
  }
  SrudpEndpoint a(ha, 7001), b(hb, 7002);
  int count = 0;
  b.set_handler([&](const Address&, Payload) { ++count; });
  a.send(b.address(), pattern_bytes(100'000));
  world.engine().run();
  EXPECT_EQ(count, 1);
  // ~100000/1473 fragments — i.e. sized for Ethernet, not ATM.
  EXPECT_GT(a.stats().fragments_sent, 60u);
}

TEST(Srudp, ThroughputApproachesMediaLimitOnEthernet) {
  SrudpPair p;
  Bytes big = pattern_bytes(4 << 20);
  SimTime start = p.world.now();
  p.a->send(p.b->address(), big);
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 1u);
  double secs = to_seconds(p.world.now() - start);
  double mbps = static_cast<double>(big.size()) / secs / 1e6;
  // 100 Mb/s Ethernet tops out at 12.5 MB/s; headers cost a few percent.
  EXPECT_GT(mbps, 10.0);
  EXPECT_LT(mbps, 12.5);
}

TEST(Srudp, InterleavedPeersDoNotInterfere) {
  World world(3);
  world.create_network("net", simnet::ethernet100());
  auto& ha = world.create_host("a");
  auto& hb = world.create_host("b");
  auto& hc = world.create_host("c");
  for (auto* h : {&ha, &hb, &hc}) world.attach(*h, *world.network("net"));
  SrudpEndpoint a(ha, 7001), b(hb, 7002), c(hc, 7003);
  std::vector<Bytes> from_a_at_b, from_c_at_b;
  b.set_handler([&](const Address& src, Payload msg) {
    (src.host == "a" ? from_a_at_b : from_c_at_b).push_back(msg.to_bytes());
  });
  for (int i = 0; i < 20; ++i) {
    a.send(b.address(), pattern_bytes(2000, 100 + i));
    c.send(b.address(), pattern_bytes(2000, 200 + i));
  }
  world.engine().run();
  ASSERT_EQ(from_a_at_b.size(), 20u);
  ASSERT_EQ(from_c_at_b.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(from_a_at_b[i], pattern_bytes(2000, 100 + i));
    EXPECT_EQ(from_c_at_b[i], pattern_bytes(2000, 200 + i));
  }
}

TEST(Srudp, DeterministicUnderSeed) {
  auto run_once = [] {
    SrudpConfig cfg;
    SrudpPair p(42, simnet::internet_lossy(), cfg);
    for (int i = 0; i < 20; ++i) p.a->send(p.b->address(), pattern_bytes(10'000, i));
    p.world.engine().run();
    return std::make_tuple(p.world.now(), p.a->stats().fragments_retransmitted,
                           p.received.size());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Srudp, SendReturnsIdEvenWhenMessageExpiresImmediately) {
  // Regression: send() used to read out.queue.back().msg_id *after* pump(),
  // but pump() expires TTL-dead messages — with msg_ttl == 0 the queue is
  // already empty again and back() was a dangling read.
  SrudpConfig cfg;
  cfg.msg_ttl = 0;
  SrudpPair p(1, simnet::ethernet100(), cfg);
  EXPECT_EQ(p.a->send(p.b->address(), pattern_bytes(100)), 1u);
  EXPECT_EQ(p.a->send(p.b->address(), pattern_bytes(100)), 2u);
  EXPECT_EQ(p.a->stats().messages_expired.v, 2u);
  EXPECT_EQ(p.a->pending(), 0u);
}

TEST(Srudp, TinyMtuInterfaceDoesNotWreckFragmentation) {
  // Regression: an attached network with MTU <= kDataHeaderBytes wrapped
  // the unsigned fragment budget to ~2^64, which in turn overflowed the
  // frag_count computation to zero — the message was silently unsendable
  // even though a perfectly good Ethernet was also attached.
  World world(5);
  world.create_network("fat", simnet::ethernet100());
  auto tiny = simnet::ethernet10();
  tiny.mtu = kDataHeaderBytes - 1;
  world.create_network("tiny", tiny);
  auto& ha = world.create_host("a");
  auto& hb = world.create_host("b");
  for (auto* h : {&ha, &hb}) {
    world.attach(*h, *world.network("fat"));
    world.attach(*h, *world.network("tiny"));
  }
  SrudpEndpoint a(ha, 7001), b(hb, 7002);
  std::vector<Bytes> received;
  b.set_handler([&](const Address&, Payload m) { received.push_back(m.to_bytes()); });
  Bytes msg = pattern_bytes(1000);
  a.send(b.address(), msg);
  world.engine().run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], msg);
  // The clamped budget still fragments finely enough for every interface.
  EXPECT_GE(a.stats().fragments_sent.v, 4u);
}

// Hand-sends fragment `frag_index` of a 4-fragment message to a receiving
// endpoint and returns how long after the send its first STATUS reached
// the raw sender.
SimDuration first_status_after(std::uint32_t frag_index, const SrudpConfig& cfg) {
  World world(1);
  world.create_network("net", simnet::ethernet100());
  auto& ha = world.create_host("a");
  auto& hb = world.create_host("b");
  world.attach(ha, *world.network("net"));
  world.attach(hb, *world.network("net"));
  SrudpEndpoint b(hb, 7002, cfg);
  SimTime status_at = -1;
  ha.bind(7001, [&](const simnet::Packet& packet) {
      auto head = decode_head(packet.payload);
      if (head && head.value().type == PacketType::status && status_at < 0)
        status_at = world.engine().now();
    }).value();
  DataPacket d;
  d.msg_id = 1;
  d.frag_index = frag_index;
  d.frag_count = 4;
  d.total_len = 400;
  d.payload = Payload(pattern_bytes(100));
  simnet::SendOptions opts;
  opts.src_port = 7001;
  ha.send(b.address(), encode_data(7001, d, false), opts).value();
  // Well past both delays, short of the receiver's stalled-message drop.
  world.engine().run_for(duration::seconds(1));
  return status_at;
}

TEST(Srudp, GapSchedulesTheQuickStatusAndInOrderTheIntervalOne) {
  // A fragment with a missing fragment below it is a gap: the receiver
  // reports after gap_status_delay.  An in-order fragment only schedules
  // the periodic status_interval report.
  SrudpConfig cfg;
  cfg.gap_status_delay = duration::milliseconds(3);
  cfg.status_interval = duration::milliseconds(40);
  const SimDuration slack = duration::milliseconds(2);  // two eth100 hops

  SimDuration reordered = first_status_after(2, cfg);
  EXPECT_GE(reordered, cfg.gap_status_delay);
  EXPECT_LT(reordered, cfg.gap_status_delay + slack);

  SimDuration in_order = first_status_after(0, cfg);
  EXPECT_GE(in_order, cfg.status_interval);
  EXPECT_LT(in_order, cfg.status_interval + slack);
}

// ---- MultipathPolicy ----

TEST(Multipath, SwitchesAfterThresholdAndResetsOnSuccess) {
  World world(1);
  world.create_network("atm", simnet::atm155());
  world.create_network("eth", simnet::ethernet100());
  auto& h = world.create_host("h");
  world.attach(h, *world.network("atm"));
  world.attach(h, *world.network("eth"));

  MultipathPolicy policy(2);
  EXPECT_EQ(policy.preferred(), "");
  EXPECT_FALSE(policy.on_timeout(h));  // 1st timeout: below threshold
  policy.on_success(world.engine().now());  // resets the counter
  EXPECT_FALSE(policy.on_timeout(h));
  EXPECT_TRUE(policy.on_timeout(h));  // 2nd consecutive: switch
  // Fastest is atm; the switch must move us off it.
  EXPECT_EQ(policy.preferred(), "eth");
  EXPECT_EQ(policy.switches(), 1);
  // Next failure pair rotates again (wraps to atm).
  EXPECT_FALSE(policy.on_timeout(h));
  EXPECT_TRUE(policy.on_timeout(h));
  EXPECT_EQ(policy.preferred(), "atm");
}

TEST(Multipath, ProbesDefaultRouteAfterQuietPeriod) {
  // A failover route must not be pinned forever: once the detour has been
  // timeout-free for the quiet period, on_success drops the preference so
  // the next send re-probes the default (fastest) route.
  World world(1);
  world.create_network("atm", simnet::atm155());
  world.create_network("eth", simnet::ethernet100());
  auto& h = world.create_host("h");
  world.attach(h, *world.network("atm"));
  world.attach(h, *world.network("eth"));

  MultipathPolicy policy(1, duration::seconds(1));
  EXPECT_TRUE(policy.on_timeout(h));  // threshold 1: switch immediately
  EXPECT_EQ(policy.preferred(), "eth");
  const SimTime switched_at = world.engine().now();
  // Successes inside the quiet window keep the detour.
  EXPECT_FALSE(policy.on_success(switched_at + duration::milliseconds(500)));
  EXPECT_EQ(policy.preferred(), "eth");
  // After a full timeout-free quiet period the preference resets.
  EXPECT_TRUE(policy.on_success(switched_at + duration::seconds(2)));
  EXPECT_EQ(policy.preferred(), "");
  EXPECT_EQ(policy.probes(), 1);
}

TEST(Multipath, SingleNetworkHasNowhereToGo) {
  World world(1);
  world.create_network("eth", simnet::ethernet100());
  auto& h = world.create_host("h");
  world.attach(h, *world.network("eth"));
  MultipathPolicy policy(1);
  EXPECT_FALSE(policy.on_timeout(h));
  EXPECT_EQ(policy.switches(), 0);
}

// ---- Stream (TCP-like) ----

struct StreamPair {
  explicit StreamPair(std::uint64_t seed = 1, simnet::MediaModel media = simnet::ethernet100())
      : world(seed) {
    world.create_network("net", media);
    auto& ha = world.create_host("a");
    auto& hb = world.create_host("b");
    world.attach(ha, *world.network("net"));
    world.attach(hb, *world.network("net"));
    client_ep = std::make_unique<StreamEndpoint>(ha, 8001);
    server_ep = std::make_unique<StreamEndpoint>(hb, 8002);
    server_ep->listen([this](std::shared_ptr<StreamConnection> conn) {
      server_conn = conn;
      conn->set_message_handler([this](Payload msg) { received.push_back(msg.to_bytes()); });
    });
  }
  World world;
  std::unique_ptr<StreamEndpoint> client_ep, server_ep;
  std::shared_ptr<StreamConnection> server_conn;
  std::vector<Bytes> received;
};

TEST(Stream, HandshakeEstablishesBothSides) {
  StreamPair p;
  auto conn = p.client_ep->connect(p.server_ep->address());
  bool connected = false;
  conn->set_connect_handler([&](Result<void> r) { connected = r.ok(); });
  p.world.engine().run();
  EXPECT_TRUE(connected);
  EXPECT_TRUE(conn->established());
  ASSERT_NE(p.server_conn, nullptr);
}

TEST(Stream, MessagesDeliveredInOrder) {
  StreamPair p;
  auto conn = p.client_ep->connect(p.server_ep->address());
  for (int i = 0; i < 50; ++i) conn->send_message(pattern_bytes(500, i));
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(p.received[i], pattern_bytes(500, i));
}

TEST(Stream, LargeTransferIntact) {
  StreamPair p;
  auto conn = p.client_ep->connect(p.server_ep->address());
  Bytes big = pattern_bytes(2 << 20);
  conn->send_message(big);
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_EQ(p.received[0], big);
  EXPECT_EQ(conn->unacked_bytes(), 0u);
}

TEST(Stream, ServerCanSendBack) {
  StreamPair p;
  auto conn = p.client_ep->connect(p.server_ep->address());
  std::vector<Bytes> client_got;
  conn->set_message_handler([&](Payload m) { client_got.push_back(m.to_bytes()); });
  p.world.engine().run();
  ASSERT_NE(p.server_conn, nullptr);
  p.server_conn->send_message(to_bytes("pong"));
  p.world.engine().run();
  ASSERT_EQ(client_got.size(), 1u);
  EXPECT_EQ(to_string(client_got[0]), "pong");
}

TEST(Stream, RecoversFromLoss) {
  StreamPair p(17, simnet::internet_lossy());
  p.world.network("net")->set_extra_loss(0.04);  // total 5%
  auto conn = p.client_ep->connect(p.server_ep->address());
  Bytes big = pattern_bytes(300'000);
  conn->send_message(big);
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_EQ(p.received[0], big);
  EXPECT_GT(conn->stats().segments_retransmitted, 0u);
}

TEST(Stream, SynRetriesUntilServerExists) {
  // SYN loss: the connect must retry and eventually succeed.
  StreamPair p(3);
  p.world.network("net")->set_extra_loss(0.5);
  auto conn = p.client_ep->connect(p.server_ep->address());
  conn->send_message(to_bytes("eventually"));
  p.world.engine().run_for(duration::seconds(60));
  ASSERT_EQ(p.received.size(), 1u);
}

TEST(Stream, ThroughputReasonableOnEthernet) {
  StreamPair p;
  auto conn = p.client_ep->connect(p.server_ep->address());
  Bytes big = pattern_bytes(4 << 20);
  SimTime start = p.world.now();
  conn->send_message(big);
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 1u);
  double secs = to_seconds(p.world.now() - start);
  double mbps = static_cast<double>(big.size()) / secs / 1e6;
  EXPECT_GT(mbps, 8.0);
  EXPECT_LT(mbps, 12.5);
}

// ---- Ethernet multicast ----

TEST(EthMcast, AllMembersReceive) {
  World world(4);
  world.create_network("seg", simnet::ethernet100());
  std::vector<std::unique_ptr<EthMcastEndpoint>> members;
  std::map<std::string, std::vector<Bytes>> got;
  for (const char* name : {"a", "b", "c", "d", "e"}) {
    auto& h = world.create_host(name);
    world.attach(h, *world.network("seg"));
    auto ep = std::make_unique<EthMcastEndpoint>(h, "seg", "grp", 9000);
    ep->set_handler([&got, name](const Address&, Payload m) { got[name].push_back(m.to_bytes()); });
    members.push_back(std::move(ep));
  }
  Bytes msg = pattern_bytes(50'000);
  members[0]->send(msg);
  world.engine().run();
  EXPECT_TRUE(got["a"].empty());  // sender does not receive its own
  for (const char* name : {"b", "c", "d", "e"}) {
    ASSERT_EQ(got[name].size(), 1u) << name;
    EXPECT_EQ(got[name][0], msg) << name;
  }
  // One broadcast serves all four receivers: fragment count is independent
  // of group size (modulo repairs).
  EXPECT_LT(members[0]->stats().fragments_broadcast, 50'000u / 1400 + 10);
}

TEST(EthMcast, NackRepairsLoss) {
  World world(11);
  world.create_network("seg", simnet::ethernet100());
  world.network("seg")->set_extra_loss(0.1);
  std::vector<std::unique_ptr<EthMcastEndpoint>> members;
  int delivered = 0;
  for (const char* name : {"a", "b", "c"}) {
    auto& h = world.create_host(name);
    world.attach(h, *world.network("seg"));
    auto ep = std::make_unique<EthMcastEndpoint>(h, "seg", "grp", 9000);
    ep->set_handler([&](const Address&, Payload) { ++delivered; });
    members.push_back(std::move(ep));
  }
  members[0]->send(pattern_bytes(100'000));
  world.engine().run();
  EXPECT_EQ(delivered, 2);
  EXPECT_GT(members[0]->stats().repairs_sent, 0u);
  std::uint64_t nacks = members[1]->stats().nacks_sent + members[2]->stats().nacks_sent;
  EXPECT_GT(nacks, 0u);
}

TEST(EthMcast, RejectsFragmentsDisagreeingWithFirstSeenMetadata) {
  // Regression: a fragment whose frag_count/total_len disagreed with the
  // first-seen fragment of the same message indexed the reassembly buffers
  // with its *own* frag_count — an out-of-bounds write under ASan.  Now it
  // is dropped and the genuine fragments still complete the message.
  World world(3);
  world.create_network("seg", simnet::ethernet100());
  auto& evil = world.create_host("evil");
  auto& good = world.create_host("good");
  world.attach(evil, *world.network("seg"));
  world.attach(good, *world.network("seg"));
  EthMcastEndpoint receiver(good, "seg", "grp", 9000);
  std::vector<Bytes> got;
  receiver.set_handler([&](const Address&, Payload m) { got.push_back(m.to_bytes()); });

  auto raw = [&](const McastDataPacket& p) {
    simnet::SendOptions opts;
    opts.src_port = 9000;
    evil.send({"good", 9000}, encode_mcast_data(9000, p), opts).value();
  };
  raw({"grp", /*msg_id=*/1, /*frag_index=*/0, /*frag_count=*/2, /*total_len=*/6,
       /*flow=*/0, /*born=*/0, to_bytes("abc")});
  // Same message, wildly different metadata: frags/have only hold 2 slots.
  raw({"grp", 1, 7, 8, 6, 0, 0, to_bytes("x")});
  raw({"grp", 1, 1, 2, 6, 0, 0, to_bytes("def")});
  world.engine().run();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(to_string(got[0]), "abcdef");
}

}  // namespace
}  // namespace snipe::transport
