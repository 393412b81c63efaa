// Property-style parameterized sweeps over the core invariants:
//   * SRUDP delivers every message exactly once, in order, byte-identical,
//     for any (media, loss, size mix) combination;
//   * Record replica merges converge regardless of delivery order
//     (commutativity / idempotence over random histories);
//   * SVM execution is invariant under scheduling quantum;
//   * VM checkpoint/restore at *any* interruption point resumes to an
//     identical result;
//   * the engine is deterministic under a fixed seed.
#include <gtest/gtest.h>

#include <algorithm>

#include "playground/svmasm.hpp"
#include "rcds/assertion.hpp"
#include "simnet/fault.hpp"
#include "transport/srudp.hpp"
#include "transport/stream.hpp"
#include "transport/wire.hpp"

namespace snipe {
namespace {

Bytes pattern(std::size_t n, std::uint32_t seed) {
  Bytes b(n);
  std::uint32_t x = seed * 2654435761u + 1;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 1664525u + 1013904223u;
    b[i] = static_cast<std::uint8_t>(x >> 24);
  }
  return b;
}

// ---- SRUDP exactly-once/in-order/intact under (media, loss) sweep ----

struct SrudpCase {
  int media;      // index into bench-style media table
  int loss_pm;    // loss in per-mille
  int messages;
  std::size_t max_size;
};

class SrudpProperty : public ::testing::TestWithParam<SrudpCase> {};

simnet::MediaModel media_of(int i) {
  switch (i) {
    case 0: return simnet::ethernet100();
    case 1: return simnet::atm155();
    case 2: return simnet::wan_t3();
    default: return simnet::internet_lossy();
  }
}

TEST_P(SrudpProperty, ExactlyOnceInOrderIntact) {
  const SrudpCase& c = GetParam();
  simnet::World world(1000 + static_cast<std::uint64_t>(c.media * 100 + c.loss_pm));
  auto& net = world.create_network("net", media_of(c.media));
  net.set_extra_loss(c.loss_pm / 1000.0);
  auto& a = world.create_host("a");
  auto& b = world.create_host("b");
  world.attach(a, net);
  world.attach(b, net);
  transport::SrudpEndpoint tx(a, 7001), rx(b, 7002);

  std::vector<Bytes> received;
  rx.set_handler([&](const simnet::Address&, Payload m) { received.push_back(m.to_bytes()); });

  Rng sizes(c.media * 7919u + c.loss_pm);
  std::vector<Bytes> sent;
  for (int i = 0; i < c.messages; ++i) {
    std::size_t size = static_cast<std::size_t>(sizes.next_below(c.max_size)) + 1;
    sent.push_back(pattern(size, static_cast<std::uint32_t>(i)));
    tx.send(rx.address(), sent.back());
  }
  world.engine().run();

  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) EXPECT_EQ(received[i], sent[i]) << i;
  EXPECT_EQ(tx.stats().messages_expired, 0u);
  EXPECT_EQ(rx.stats().messages_skipped, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SrudpProperty,
    ::testing::Values(SrudpCase{0, 0, 40, 40'000}, SrudpCase{0, 50, 40, 40'000},
                      SrudpCase{0, 200, 25, 20'000}, SrudpCase{1, 0, 40, 120'000},
                      SrudpCase{1, 100, 25, 60'000}, SrudpCase{2, 10, 30, 30'000},
                      SrudpCase{2, 150, 20, 15'000}, SrudpCase{3, 100, 20, 10'000}),
    [](const ::testing::TestParamInfo<SrudpCase>& info) {
      return "media" + std::to_string(info.param.media) + "_loss" +
             std::to_string(info.param.loss_pm) + "pm";
    });

// ---- Stream (TCP-like) integrity under (media, loss) sweep ----

class StreamProperty : public ::testing::TestWithParam<SrudpCase> {};

TEST_P(StreamProperty, ByteStreamIntactInOrder) {
  const SrudpCase& c = GetParam();
  simnet::World world(2000 + static_cast<std::uint64_t>(c.media * 100 + c.loss_pm));
  auto& net = world.create_network("net", media_of(c.media));
  net.set_extra_loss(c.loss_pm / 1000.0);
  auto& a = world.create_host("a");
  auto& b = world.create_host("b");
  world.attach(a, net);
  world.attach(b, net);
  transport::StreamEndpoint client(a, 8001), server(b, 8002);
  std::vector<Bytes> received;
  std::shared_ptr<transport::StreamConnection> server_conn;
  server.listen([&](std::shared_ptr<transport::StreamConnection> conn) {
    server_conn = conn;
    conn->set_message_handler([&](Payload m) { received.push_back(m.to_bytes()); });
  });
  auto conn = client.connect(server.address());

  Rng sizes(c.media * 104729u + c.loss_pm);
  std::vector<Bytes> sent;
  std::size_t framed = 0;
  for (int i = 0; i < c.messages; ++i) {
    std::size_t size = static_cast<std::size_t>(sizes.next_below(c.max_size)) + 1;
    sent.push_back(pattern(size, static_cast<std::uint32_t>(i) + 7777));
    conn->send_message(sent.back());
    framed += size + transport::kStreamFrameHeaderBytes;
  }
  // Nothing can be acked before the handshake: every framed byte is queued.
  EXPECT_EQ(conn->unacked_bytes(), framed);
  world.engine().run();
  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) EXPECT_EQ(received[i], sent[i]) << i;
  EXPECT_EQ(conn->unacked_bytes(), 0u);
  // The deep-queue case is there so retransmitted segments straddle many
  // frames: make sure it retransmits at all.
  if (c.messages >= 1000) {
    EXPECT_GT(conn->stats().segments_retransmitted, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StreamProperty,
    ::testing::Values(SrudpCase{0, 0, 40, 40'000}, SrudpCase{0, 50, 25, 20'000},
                      SrudpCase{1, 20, 25, 60'000}, SrudpCase{2, 10, 25, 20'000},
                      SrudpCase{2, 100, 15, 10'000},
                      SrudpCase{0, 100, 4000, 64}),  // deep queue of tiny messages
    [](const ::testing::TestParamInfo<SrudpCase>& info) {
      return "media" + std::to_string(info.param.media) + "_loss" +
             std::to_string(info.param.loss_pm) + "pm";
    });

// ---- Record merge convergence over random histories ----

class RecordProperty : public ::testing::TestWithParam<int> {};

TEST_P(RecordProperty, MergeOrderIrrelevant) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  // A random history of assertions over few names/values, from 3 origins.
  std::vector<rcds::Assertion> history;
  for (int i = 0; i < 60; ++i) {
    rcds::Assertion a;
    a.name = "k" + std::to_string(rng.next_below(4));
    a.value = "v" + std::to_string(rng.next_below(3));
    a.timestamp = static_cast<SimTime>(rng.next_below(20));
    a.origin = "s" + std::to_string(rng.next_below(3));
    a.tombstone = rng.chance(0.3);
    history.push_back(std::move(a));
  }
  rcds::Record in_order;
  for (const auto& a : history) in_order.merge(a);

  auto dump = [](const rcds::Record& r) {
    std::string out;
    for (const auto& a : r.all())
      out += a.name + "=" + a.value + "@" + std::to_string(a.timestamp) + a.origin +
             (a.tombstone ? "T" : "") + ";";
    return out;
  };
  std::string expected = dump(in_order);

  // Any permutation — including with duplicated deliveries — converges.
  for (int trial = 0; trial < 5; ++trial) {
    auto shuffled = history;
    for (std::size_t i = shuffled.size(); i > 1; --i)
      std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
    rcds::Record r;
    for (const auto& a : shuffled) {
      r.merge(a);
      if (rng.chance(0.2)) r.merge(a);  // duplicate delivery
    }
    EXPECT_EQ(dump(r), expected) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordProperty, ::testing::Range(1, 9));

// ---- SVM invariance under quantum and checkpoint point ----

class VmProperty : public ::testing::TestWithParam<int> {};

const char* kVmProgram = R"(
  .globals 3
  push 7
  storeg 1
loop:
  loadg 0
  loadg 1
  mul
  push 9973
  mod
  storeg 0
  loadg 0
  push 1
  add
  storeg 0
  loadg 2
  push 1
  add
  dup
  storeg 2
  push 500
  lt
  jnz loop
  loadg 0
  emit
  halt
)";

TEST_P(VmProperty, CheckpointAnywhereResumesIdentically) {
  const int interrupt_after = GetParam() * 137;  // various mid-run points
  auto program = playground::assemble(kVmProgram);
  ASSERT_TRUE(program.ok());

  playground::Vm reference(program.value(), {});
  reference.run(1'000'000);
  ASSERT_EQ(reference.status(), playground::VmStatus::halted);
  auto expected = reference.drain_output();

  playground::Vm first(program.value(), {});
  first.run(static_cast<std::uint64_t>(interrupt_after));
  auto restored = playground::Vm::restore(first.snapshot()).value();
  restored.run(1'000'000);
  EXPECT_EQ(restored.drain_output(), expected);
  EXPECT_EQ(restored.cycles_used(), reference.cycles_used());
}

TEST_P(VmProperty, QuantumInvariance) {
  const int quantum = GetParam() * 13 + 1;
  auto program = playground::assemble(kVmProgram);
  playground::Vm reference(program.value(), {});
  reference.run(1'000'000);
  playground::Vm sliced(program.value(), {});
  while (sliced.status() != playground::VmStatus::halted)
    sliced.run(static_cast<std::uint64_t>(quantum));
  EXPECT_EQ(sliced.drain_output(), reference.drain_output());
}

INSTANTIATE_TEST_SUITE_P(Points, VmProperty, ::testing::Range(1, 11));

// ---- Wire codecs: round-trip, truncation, and bit-flip fuzzing ----
//
// The decoders face untrusted bytes (any NIC can deliver garbage, and the
// fault injector corrupts datagrams on purpose), so three properties must
// hold for every codec: a round-trip is lossless, every strict prefix of a
// valid encoding fails with a clean Errc::corrupt, and arbitrary bit flips
// never crash or yield a structurally impossible packet.

using namespace transport;

// One valid encoding of every packet shape the transports emit, with sizes
// varied by `seed` so sweeps cover empty/short/multi-fragment cases.
std::vector<Bytes> valid_encodings(std::uint32_t seed) {
  Rng rng(seed);
  auto some_bytes = [&](std::size_t max) {
    return pattern(rng.next_below(max + 1), seed * 31 + 7);
  };
  std::vector<Bytes> out;

  DataPacket data;
  data.msg_id = rng.next_below(1u << 30);
  data.frag_count = static_cast<std::uint32_t>(rng.next_below(16)) + 1;
  data.frag_index = static_cast<std::uint32_t>(rng.next_below(data.frag_count));
  data.payload = some_bytes(600);
  data.total_len = static_cast<std::uint32_t>(data.payload.size()) * data.frag_count;
  if (data.frag_count > 1 && data.total_len == 0) data.total_len = 1;
  out.push_back(encode_data(7001, data).to_bytes());

  StatusPacket status;
  status.msg_id = rng.next_below(1u << 30);
  status.frag_count = static_cast<std::uint32_t>(rng.next_below(64)) + 1;
  status.bitmap = make_bitmap(status.frag_count);
  for (std::uint32_t i = 0; i < status.frag_count; ++i)
    if (rng.chance(0.5)) bitmap_set(status.bitmap, i);
  out.push_back(encode_status(7002, status).to_bytes());

  out.push_back(encode_msg_id(PacketType::msg_ack, 7003, {rng.next_below(1u << 30)}).to_bytes());
  out.push_back(encode_msg_id(PacketType::probe, 7004, {rng.next_below(1u << 30)}).to_bytes());

  for (PacketType t : {PacketType::syn, PacketType::syn_ack, PacketType::ack,
                       PacketType::seg, PacketType::fin, PacketType::rst}) {
    StreamPacket s;
    s.conn_id = static_cast<std::uint32_t>(rng.next_below(1u << 16));
    s.seq = rng.next_below(1u << 20);
    s.ack = rng.next_below(1u << 20);
    s.window = static_cast<std::uint32_t>(rng.next_below(1u << 16));
    if (t == PacketType::seg) s.payload = some_bytes(400);
    out.push_back(encode_stream(t, 8001, s).to_bytes());
  }

  McastDataPacket md;
  md.group = "grp" + std::to_string(rng.next_below(1000));
  md.msg_id = rng.next_below(1u << 30);
  md.frag_count = static_cast<std::uint32_t>(rng.next_below(8)) + 1;
  md.frag_index = static_cast<std::uint32_t>(rng.next_below(md.frag_count));
  md.payload = some_bytes(300);
  md.total_len = static_cast<std::uint32_t>(md.payload.size()) * md.frag_count;
  if (md.frag_count > 1 && md.total_len == 0) md.total_len = 1;
  out.push_back(encode_mcast_data(9001, md).to_bytes());

  McastNackPacket nack;
  nack.group = "grp";
  nack.msg_id = rng.next_below(1u << 30);
  for (std::uint64_t i = 0, n = rng.next_below(10) + 1; i < n; ++i)
    nack.missing.push_back(static_cast<std::uint32_t>(rng.next_below(64)));
  out.push_back(encode_mcast_nack(9002, nack).to_bytes());
  return out;
}

// Routes `wire` to the decoder its own head claims; returns whether that
// decoder accepted it, checking decoder-enforced invariants when it did.
bool decode_by_head(const Bytes& wire) {
  auto head = decode_head(wire);
  if (!head) return false;
  switch (head.value().type) {
    case PacketType::data: {
      auto p = decode_data(wire);
      if (!p) return false;
      EXPECT_GT(p.value().frag_count, 0u);
      EXPECT_LT(p.value().frag_index, p.value().frag_count);
      EXPECT_LE(p.value().frag_count, kMaxWireFragments);
      return true;
    }
    case PacketType::msg_ack:
    case PacketType::probe:
      return decode_msg_id(wire).ok();
    case PacketType::status: {
      auto p = decode_status(wire);
      if (!p) return false;
      EXPECT_LE(p.value().frag_count, kMaxWireFragments);
      EXPECT_GE(p.value().bitmap.size() * 8, p.value().frag_count);
      return true;
    }
    case PacketType::syn:
    case PacketType::syn_ack:
    case PacketType::ack:
    case PacketType::seg:
    case PacketType::fin:
    case PacketType::rst:
      return decode_stream(wire).ok();
    case PacketType::mdata: {
      auto p = decode_mcast_data(wire);
      if (!p) return false;
      EXPECT_GT(p.value().frag_count, 0u);
      EXPECT_LT(p.value().frag_index, p.value().frag_count);
      EXPECT_LE(p.value().frag_count, kMaxWireFragments);
      return true;
    }
    case PacketType::mnack: {
      auto p = decode_mcast_nack(wire);
      if (!p) return false;
      EXPECT_LE(p.value().missing.size(), kMaxWireFragments);
      return true;
    }
  }
  return false;
}

class WireFuzz : public ::testing::TestWithParam<int> {};

TEST_P(WireFuzz, RoundTripIsLossless) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1013 + 1);
  auto some_bytes = [&](std::size_t max) {
    return pattern(rng.next_below(max + 1), static_cast<std::uint32_t>(GetParam()));
  };

  DataPacket data;
  data.msg_id = rng.next_below(1ull << 40);
  data.frag_count = static_cast<std::uint32_t>(rng.next_below(100)) + 1;
  data.frag_index = static_cast<std::uint32_t>(rng.next_below(data.frag_count));
  data.total_len = static_cast<std::uint32_t>(rng.next_below(1u << 20)) + 1;
  data.payload = some_bytes(2000);
  auto d = decode_data(encode_data(123, data));
  ASSERT_TRUE(d.ok()) << d.error().to_string();
  EXPECT_EQ(d.value().msg_id, data.msg_id);
  EXPECT_EQ(d.value().frag_index, data.frag_index);
  EXPECT_EQ(d.value().frag_count, data.frag_count);
  EXPECT_EQ(d.value().total_len, data.total_len);
  EXPECT_EQ(d.value().payload, data.payload);
  EXPECT_EQ(decode_head(encode_data(123, data)).value().src_port, 123);

  StatusPacket status;
  status.msg_id = rng.next_below(1ull << 40);
  status.frag_count = static_cast<std::uint32_t>(rng.next_below(500)) + 1;
  status.bitmap = make_bitmap(status.frag_count);
  for (std::uint32_t i = 0; i < status.frag_count; ++i)
    if (rng.chance(0.3)) bitmap_set(status.bitmap, i);
  auto s = decode_status(encode_status(45678, status));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().msg_id, status.msg_id);
  EXPECT_EQ(s.value().frag_count, status.frag_count);
  EXPECT_EQ(s.value().bitmap, status.bitmap);

  MsgIdPacket mid{rng.next_below(1ull << 40)};
  EXPECT_EQ(decode_msg_id(encode_msg_id(PacketType::msg_ack, 1, mid)).value().msg_id,
            mid.msg_id);
  EXPECT_EQ(decode_msg_id(encode_msg_id(PacketType::probe, 1, mid)).value().msg_id,
            mid.msg_id);

  StreamPacket seg;
  seg.conn_id = static_cast<std::uint32_t>(rng.next_below(1ull << 32));
  seg.seq = rng.next_below(1ull << 40);
  seg.ack = rng.next_below(1ull << 40);
  seg.window = static_cast<std::uint32_t>(rng.next_below(1ull << 32));
  seg.payload = some_bytes(1400);
  auto t = decode_stream(encode_stream(PacketType::seg, 9, seg));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().conn_id, seg.conn_id);
  EXPECT_EQ(t.value().seq, seg.seq);
  EXPECT_EQ(t.value().ack, seg.ack);
  EXPECT_EQ(t.value().window, seg.window);
  EXPECT_EQ(t.value().payload, seg.payload);

  McastDataPacket md;
  md.group = "multicast-group-" + std::to_string(GetParam());
  md.msg_id = rng.next_below(1ull << 40);
  md.frag_count = static_cast<std::uint32_t>(rng.next_below(50)) + 1;
  md.frag_index = static_cast<std::uint32_t>(rng.next_below(md.frag_count));
  md.total_len = static_cast<std::uint32_t>(rng.next_below(1u << 20)) + 1;
  md.payload = some_bytes(1000);
  auto m = decode_mcast_data(encode_mcast_data(77, md));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().group, md.group);
  EXPECT_EQ(m.value().msg_id, md.msg_id);
  EXPECT_EQ(m.value().frag_index, md.frag_index);
  EXPECT_EQ(m.value().frag_count, md.frag_count);
  EXPECT_EQ(m.value().total_len, md.total_len);
  EXPECT_EQ(m.value().payload, md.payload);

  McastNackPacket nack;
  nack.group = "g";
  nack.msg_id = rng.next_below(1ull << 40);
  for (std::uint64_t i = 0, n = rng.next_below(40); i < n; ++i)
    nack.missing.push_back(static_cast<std::uint32_t>(rng.next_below(1u << 20)));
  auto nk = decode_mcast_nack(encode_mcast_nack(2, nack));
  ASSERT_TRUE(nk.ok());
  EXPECT_EQ(nk.value().group, nack.group);
  EXPECT_EQ(nk.value().msg_id, nack.msg_id);
  EXPECT_EQ(nk.value().missing, nack.missing);
}

TEST_P(WireFuzz, EveryStrictPrefixFailsWithCorrupt) {
  for (const Bytes& wire : valid_encodings(static_cast<std::uint32_t>(GetParam()))) {
    ASSERT_TRUE(decode_by_head(wire));  // the full encoding must parse
    for (std::size_t len = 0; len < wire.size(); ++len) {
      Bytes prefix(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
      auto head = decode_head(prefix);
      if (!head) {
        EXPECT_EQ(head.error().code, Errc::corrupt) << "prefix " << len;
        continue;
      }
      // Head intact; the type-specific decoder must reject the remainder.
      EXPECT_FALSE(decode_by_head(prefix)) << "prefix " << len << " of " << wire.size();
      switch (head.value().type) {
        case PacketType::data:
          EXPECT_EQ(decode_data(prefix).error().code, Errc::corrupt);
          break;
        case PacketType::status:
          EXPECT_EQ(decode_status(prefix).error().code, Errc::corrupt);
          break;
        case PacketType::msg_ack:
        case PacketType::probe:
          EXPECT_EQ(decode_msg_id(prefix).error().code, Errc::corrupt);
          break;
        case PacketType::mdata:
          EXPECT_EQ(decode_mcast_data(prefix).error().code, Errc::corrupt);
          break;
        case PacketType::mnack:
          EXPECT_EQ(decode_mcast_nack(prefix).error().code, Errc::corrupt);
          break;
        default:
          EXPECT_EQ(decode_stream(prefix).error().code, Errc::corrupt);
          break;
      }
    }
  }
}

TEST_P(WireFuzz, AppendedGarbageFailsWithCorrupt) {
  // A bit flip that shrinks a blob length field manifests as leftover
  // bytes after the last field; decoders must reject them rather than
  // silently accept a shortened payload.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 3);
  for (const Bytes& wire : valid_encodings(static_cast<std::uint32_t>(GetParam()))) {
    for (std::size_t extra : {std::size_t{1}, std::size_t{4}}) {
      Bytes padded = wire;
      for (std::size_t i = 0; i < extra; ++i)
        padded.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
      EXPECT_FALSE(decode_by_head(padded)) << extra << " trailing bytes accepted";
    }
  }
}

TEST_P(WireFuzz, BitFlippedPacketsNeverCrashEveryDecoder) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2477 + 13);
  simnet::FaultProfile profile;
  profile.corrupt_max_bytes = 8;
  simnet::FaultInjector injector(profile, Rng(GetParam()));
  for (const Bytes& wire : valid_encodings(static_cast<std::uint32_t>(GetParam()))) {
    for (int trial = 0; trial < 200; ++trial) {
      Bytes mangled = wire;
      if (trial % 2 == 0) {
        injector.corrupt_payload(mangled, "");  // the chaos layer's own mangler
      } else {
        for (std::uint64_t f = 0, n = rng.next_below(8) + 1; f < n; ++f)
          mangled[rng.next_below(mangled.size())] ^=
              static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
      // Feed the mangled bytes to every decoder, not just the claimed one:
      // a flipped type byte routes packets to the "wrong" parser in real
      // runs, and none of them may crash or accept impossible structure.
      decode_by_head(mangled);
      (void)decode_data(mangled);
      (void)decode_status(mangled);
      (void)decode_msg_id(mangled);
      (void)decode_stream(mangled);
      (void)decode_mcast_data(mangled);
      (void)decode_mcast_nack(mangled);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Range(1, 9));

}  // namespace
}  // namespace snipe
