// Unit tests for snipe_util: byte encoding, URIs, RNG, results, strings.
#include <gtest/gtest.h>

#include "util/bytes.hpp"
#include "util/log.hpp"
#include "util/payload.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"
#include "util/uri.hpp"

namespace snipe {
namespace {

TEST(Bytes, RoundTripAllPrimitives) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-9'000'000'000LL);
  w.f64(3.14159);
  w.str("hello snipe");
  w.blob({1, 2, 3});

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8().value(), 0xab);
  EXPECT_EQ(r.u16().value(), 0x1234);
  EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.u64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32().value(), -42);
  EXPECT_EQ(r.i64().value(), -9'000'000'000LL);
  EXPECT_DOUBLE_EQ(r.f64().value(), 3.14159);
  EXPECT_EQ(r.str().value(), "hello snipe");
  EXPECT_EQ(r.blob().value(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.done());
}

TEST(Bytes, NetworkByteOrderIsBigEndian) {
  ByteWriter w;
  w.u32(0x01020304);
  EXPECT_EQ(w.bytes(), (Bytes{1, 2, 3, 4}));
}

TEST(Bytes, ShortReadsFailWithCorrupt) {
  Bytes two{1, 2};
  ByteReader r(two);
  auto v = r.u32();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.code(), Errc::corrupt);
}

TEST(Bytes, TruncatedStringBodyFails) {
  ByteWriter w;
  w.u32(100);  // claims 100 bytes follow
  w.raw(to_bytes("short"));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str().code(), Errc::corrupt);
}

TEST(Bytes, EmptyStringAndBlobRoundTrip) {
  ByteWriter w;
  w.str("");
  w.blob({});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str().value(), "");
  EXPECT_TRUE(r.blob().value().empty());
}

TEST(Hex, EncodeDecodeRoundTrip) {
  Bytes data{0x00, 0xff, 0x10, 0xab};
  EXPECT_EQ(hex_encode(data), "00ff10ab");
  EXPECT_EQ(hex_decode("00ff10ab").value(), data);
  EXPECT_EQ(hex_decode("00FF10AB").value(), data);
}

TEST(Hex, RejectsBadInput) {
  EXPECT_EQ(hex_decode("abc").code(), Errc::invalid_argument);
  EXPECT_EQ(hex_decode("zz").code(), Errc::invalid_argument);
}

TEST(Result, ValueAndError) {
  Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  EXPECT_EQ(good.value_or(0), 7);

  Result<int> bad(Errc::timeout, "too slow");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), Errc::timeout);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_EQ(bad.error().to_string(), "timeout: too slow");
}

TEST(Result, VoidSpecialization) {
  Result<void> good = ok_result();
  EXPECT_TRUE(good.ok());
  Result<void> bad(Errc::not_found, "gone");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), Errc::not_found);
}

TEST(Uri, ParsesSnipeUrl) {
  auto uri = parse_uri("snipe://nodeA.utk.edu:7201/daemon").value();
  EXPECT_EQ(uri.scheme, "snipe");
  EXPECT_EQ(uri.host, "nodeA.utk.edu");
  EXPECT_EQ(uri.port, 7201);
  EXPECT_EQ(uri.path, "daemon");
  EXPECT_EQ(uri.to_string(), "snipe://nodeA.utk.edu:7201/daemon");
}

TEST(Uri, ParsesUrn) {
  auto uri = parse_uri("urn:snipe:proc:weather-17").value();
  EXPECT_TRUE(uri.is_urn());
  EXPECT_EQ(uri.path, "snipe:proc:weather-17");
  EXPECT_EQ(uri.to_string(), "urn:snipe:proc:weather-17");
}

TEST(Uri, ParsesLifn) {
  auto uri = parse_uri("lifn://utk.edu/ckpt/job42/3").value();
  EXPECT_TRUE(uri.is_lifn());
  EXPECT_EQ(uri.host, "utk.edu");
  EXPECT_EQ(uri.path, "ckpt/job42/3");
}

TEST(Uri, NoPortDefaultsToZero) {
  auto uri = parse_uri("http://www.netlib.org/SNIPE").value();
  EXPECT_EQ(uri.port, 0);
  EXPECT_EQ(uri.to_string(), "http://www.netlib.org/SNIPE");
}

TEST(Uri, SchemeIsCaseInsensitive) {
  EXPECT_EQ(parse_uri("SNIPE://a/b").value().scheme, "snipe");
}

TEST(Uri, RejectsMalformed) {
  EXPECT_FALSE(parse_uri("").ok());
  EXPECT_FALSE(parse_uri("nocolon").ok());
  EXPECT_FALSE(parse_uri(":leading").ok());
  EXPECT_FALSE(parse_uri("snipe:/missing-slash").ok());
  EXPECT_FALSE(parse_uri("snipe://").ok());
  EXPECT_FALSE(parse_uri("snipe://host:/x").ok());
  EXPECT_FALSE(parse_uri("snipe://host:abc/x").ok());
  EXPECT_FALSE(parse_uri("snipe://host:99999/x").ok());
  EXPECT_FALSE(parse_uri("urn:").ok());
  EXPECT_FALSE(parse_uri("9bad://x/y").ok());
}

TEST(Uri, Builders) {
  EXPECT_EQ(host_url("nodeA"), "snipe://nodeA:7201/daemon");
  EXPECT_EQ(process_urn("p1"), "urn:snipe:proc:p1");
  EXPECT_EQ(group_urn("g1"), "urn:snipe:group:g1");
  EXPECT_EQ(service_lifn("utk.edu", "svc"), "lifn://utk.edu/svc");
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(10), 10u);
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    double r = rng.next_range(5.0, 6.0);
    EXPECT_GE(r, 5.0);
    EXPECT_LT(r, 6.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng rng(7);
  int hits = 0;
  for (int i = 0; i < 100000; ++i)
    if (rng.chance(0.3)) ++hits;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(7);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, ForkIndependence) {
  Rng parent(9);
  Rng child = parent.fork();
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, TrimAndJoin) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(join({"a", "b"}, "::"), "a::b");
  EXPECT_TRUE(starts_with("snipe://x", "snipe://"));
  EXPECT_FALSE(starts_with("sn", "snipe"));
}

TEST(Log, SinkCapturesFilteredRecords) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  LogLevel old_level = set_log_level(LogLevel::info);
  LogSink old_sink = set_log_sink([&](LogLevel level, const std::string& component,
                                      const std::string& text) {
    captured.emplace_back(level, component + ": " + text);
  });

  Logger log("util_test");
  log.debug("below threshold, dropped");
  log.info("value=", 42);
  log.error("boom");

  set_log_sink(old_sink);
  set_log_level(old_level);

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, LogLevel::info);
  EXPECT_EQ(captured[0].second, "util_test: value=42");
  EXPECT_EQ(captured[1].first, LogLevel::error);
}

TEST(Log, ParseLevelNames) {
  EXPECT_EQ(parse_log_level("debug", LogLevel::warn), LogLevel::debug);
  EXPECT_EQ(parse_log_level("ERROR", LogLevel::warn), LogLevel::error);
  EXPECT_EQ(parse_log_level("off", LogLevel::warn), LogLevel::off);
  EXPECT_EQ(parse_log_level("nonsense", LogLevel::warn), LogLevel::warn);
  EXPECT_EQ(parse_log_level("", LogLevel::info), LogLevel::info);
}

TEST(Time, DurationsCompose) {
  EXPECT_EQ(duration::seconds(1), 1'000'000'000);
  EXPECT_EQ(duration::milliseconds(1500), duration::seconds(1) + duration::milliseconds(500));
  EXPECT_DOUBLE_EQ(to_seconds(duration::milliseconds(250)), 0.25);
  EXPECT_EQ(from_seconds(0.25), duration::milliseconds(250));
  EXPECT_EQ(format_time(duration::milliseconds(1500)), "1.500000s");
}

TEST(Payload, SliceSharesTheBufferWithoutCopying) {
  Bytes b(1000);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<std::uint8_t>(i);
  Payload whole(std::move(b));
  ASSERT_EQ(whole.segment_count(), 1u);
  const std::uint8_t* base = whole.segment(0).data();

  Payload mid = whole.slice(100, 300);
  EXPECT_EQ(mid.size(), 300u);
  ASSERT_TRUE(mid.contiguous());
  // The slice points into the original buffer — no bytes moved.
  EXPECT_EQ(mid.data(), base + 100);
  EXPECT_EQ(mid[0], static_cast<std::uint8_t>(100));
  EXPECT_EQ(mid[299], static_cast<std::uint8_t>(399 & 0xFF));

  Payload empty = whole.slice(1000, 0);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.segment_count(), 0u);
}

TEST(Payload, AppendCoalescesAdjacentSlicesOfOneBuffer) {
  Bytes b(256);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<std::uint8_t>(i);
  Payload whole(std::move(b));

  // Reassemble the message from its fragments, as a receiver would.
  Payload assembled;
  for (std::size_t off = 0; off < 256; off += 64) assembled.append(whole.slice(off, 64));

  // Adjacent slices of one buffer coalesce back into a single segment, so
  // flatten() on the delivery path is a no-op (no copy).
  EXPECT_EQ(assembled.size(), 256u);
  ASSERT_EQ(assembled.segment_count(), 1u);
  EXPECT_EQ(assembled.data(), whole.data());
  assembled.flatten();
  EXPECT_EQ(assembled.data(), whole.data());
}

TEST(Payload, FlattenCopiesOnlyWhenSegmentsCannotCoalesce) {
  Payload a(Bytes{1, 2, 3});
  Payload b(Bytes{4, 5, 6});
  Payload joined;
  joined.append(a);
  joined.append(b);
  EXPECT_EQ(joined.segment_count(), 2u);
  EXPECT_FALSE(joined.contiguous());

  joined.flatten();
  ASSERT_TRUE(joined.contiguous());
  EXPECT_EQ(joined.to_bytes(), (Bytes{1, 2, 3, 4, 5, 6}));
  // Flattening materialized a fresh buffer; the sources are untouched.
  EXPECT_NE(joined.data(), a.data());
  EXPECT_EQ(a.to_bytes(), (Bytes{1, 2, 3}));
}

TEST(Payload, CowXorClonesWhenSharedAndWritesInPlaceWhenUnique) {
  Payload original(Bytes{10, 20, 30, 40});
  Payload copy = original.slice(0, 4);  // shares the buffer
  EXPECT_EQ(copy.data(), original.data());

  // Shared buffer: corruption must clone, leaving the original pristine.
  copy.cow_xor(1, 0xFF);
  EXPECT_NE(copy.data(), original.data());
  EXPECT_EQ(copy[1], static_cast<std::uint8_t>(20 ^ 0xFF));
  EXPECT_EQ(original[1], 20);

  // `copy` now holds its buffer's only reference: a second corruption may
  // write in place (no further clone).
  const std::uint8_t* before = copy.data();
  copy.cow_xor(2, 0x0F);
  EXPECT_EQ(copy.data(), before);
  EXPECT_EQ(copy[2], static_cast<std::uint8_t>(30 ^ 0x0F));
}

TEST(Payload, WriterMatchesByteWriterByteForByte) {
  // The zero-copy wire codec must produce exactly the bytes the old
  // copying codec did — this is what keeps chaos trace digests stable.
  ByteWriter bw;
  bw.u8(7);
  bw.u16(0xBEEF);
  bw.u32(0xDEADBEEF);
  bw.u64(0x0123456789ABCDEFULL);
  bw.str("snipe");
  Bytes body{9, 8, 7, 6};
  bw.blob(body);

  PayloadWriter pw;
  pw.u8(7);
  pw.u16(0xBEEF);
  pw.u32(0xDEADBEEF);
  pw.u64(0x0123456789ABCDEFULL);
  pw.str("snipe");
  pw.blob(Payload(Bytes{9, 8, 7, 6}));  // spliced by reference, not copied

  Payload p = std::move(pw).take();
  EXPECT_EQ(p.to_bytes(), bw.bytes());
}

// Writes one packet-shaped header of 3 + 8 + 4 * `extra` bytes followed by
// `body` to both writers, so the scratch tail lands at every offset.
void write_packet(ByteWriter& bw, PayloadWriter& pw, std::uint32_t seq, std::size_t extra,
                  const Payload& body) {
  bw.u8(1);
  pw.u8(1);
  bw.u16(0xBEEF);
  pw.u16(0xBEEF);
  bw.u64(seq * 0x0101010101ULL);
  pw.u64(seq * 0x0101010101ULL);
  for (std::size_t i = 0; i < extra; ++i) {
    bw.u32(seq + static_cast<std::uint32_t>(i));
    pw.u32(seq + static_cast<std::uint32_t>(i));
  }
  bw.blob(body.to_bytes());
  pw.blob(body);
}

TEST(Payload, PacketHeaderStaysOneSegmentAcrossScratchChunks) {
  // Thousands of headers of co-prime lengths fill the shared scratch chunk
  // to every possible level, so some field always meets a nearly full
  // chunk.  The header moves to the next chunk whole: a packet is always
  // header + body, two inline segments and no spill allocation.
  Payload body(Bytes{9, 8, 7, 6, 5});
  for (std::uint32_t seq = 0; seq < 5000; ++seq) {
    ByteWriter bw;
    PayloadWriter pw;
    write_packet(bw, pw, seq, seq % 7, body);
    Payload p = std::move(pw).take();
    ASSERT_EQ(p.segment_count(), 2u) << "packet " << seq;
    ASSERT_EQ(p.segment(0).len, bw.size() - body.size()) << "packet " << seq;
    ASSERT_EQ(p.to_bytes(), bw.bytes()) << "packet " << seq;
  }
}

TEST(Payload, EarlierPayloadsKeepTheirBytesWhileScratchIsReused) {
  // Keep every 16th packet alive and drop the rest, so the scratch chunks
  // around the kept headers are retired and recycled many times over.
  Payload body(Bytes{1, 2, 3});
  std::vector<std::pair<Payload, Bytes>> kept;
  for (std::uint32_t seq = 0; seq < 20000; ++seq) {
    ByteWriter bw;
    PayloadWriter pw;
    write_packet(bw, pw, seq, seq % 5, body);
    Payload p = std::move(pw).take();
    if (seq % 16 == 0) kept.emplace_back(std::move(p), bw.bytes());
  }
  for (const auto& [payload, expected] : kept) ASSERT_EQ(payload.to_bytes(), expected);
}

TEST(Payload, InterleavedAndMovedWritersEachMatchByteWriter) {
  Payload body(Bytes{4, 5, 6});
  ByteWriter b1, b2, b3;
  PayloadWriter w1, w2;
  // Two live writers take turns at the shared scratch tail.
  b1.u32(0x11111111);
  w1.u32(0x11111111);
  b2.u16(0x2222);
  w2.u16(0x2222);
  b1.u64(0x3333333333333333ULL);
  w1.u64(0x3333333333333333ULL);
  b2.blob(body.to_bytes());
  w2.blob(body);
  b1.u8(0x44);
  w1.u8(0x44);
  b2.u32(0x55555555);
  w2.u32(0x55555555);
  // w1 moves on as w3; the moved-from w1 starts over, empty.
  PayloadWriter w3 = std::move(w1);
  b3.u16(0x6666);
  w1.u16(0x6666);
  b1.str("moved");
  w3.str("moved");
  b3.blob(body.to_bytes());
  w1.blob(body);
  b2.u8(0x77);
  w2.u8(0x77);

  EXPECT_EQ(std::move(w3).take().to_bytes(), b1.bytes());
  EXPECT_EQ(std::move(w2).take().to_bytes(), b2.bytes());
  EXPECT_EQ(std::move(w1).take().to_bytes(), b3.bytes());
}

TEST(Payload, HeldBytesShareChunksOnlyWithOtherHeldBytes) {
  // A frame header held until its ack must not pin the chunk that packet
  // headers written around it live in.
  auto header = [](PayloadWriter::Lifetime lifetime, std::uint32_t v) {
    PayloadWriter w(lifetime);
    w.u32(v);
    w.u64(v);
    return std::move(w).take();
  };
  Payload held1 = header(PayloadWriter::Lifetime::held, 1);
  Payload packet = header(PayloadWriter::Lifetime::packet, 2);
  Payload held2 = header(PayloadWriter::Lifetime::held, 3);
  EXPECT_EQ(held1.segment(0).buf, held2.segment(0).buf);
  EXPECT_NE(held1.segment(0).buf, packet.segment(0).buf);
  ByteWriter bw;
  bw.u32(3);
  bw.u64(3);
  EXPECT_EQ(held2.to_bytes(), bw.bytes());
}

TEST(Payload, CursorRoundTripsAndSlicesBlobsZeroCopy) {
  Bytes big(512);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 3);
  Payload blob_src(std::move(big));
  const std::uint8_t* blob_base = blob_src.data();

  PayloadWriter pw;
  pw.u32(42);
  pw.str("hello");
  pw.blob(blob_src);
  pw.u16(0xCAFE);
  Payload wire = std::move(pw).take();

  PayloadCursor r(wire);
  ASSERT_TRUE(r.u32().ok());
  auto s = r.str();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(), "hello");
  auto blob = r.blob();
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob.value().size(), 512u);
  // The blob read is a view into the spliced-in source buffer.
  ASSERT_TRUE(blob.value().contiguous());
  EXPECT_EQ(blob.value().data(), blob_base);
  auto tail = r.u16();
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.value(), 0xCAFE);
  EXPECT_EQ(r.remaining(), 0u);

  // Short reads fail cleanly instead of running off the end.
  EXPECT_FALSE(r.u8().ok());
}

TEST(Payload, CursorReadsFieldsStraddlingSegmentBoundaries) {
  // Build a payload whose u32 spans two segments (2 bytes in each).
  Payload left(Bytes{0xAA, 0xBB, 0x01, 0x02});
  Payload right(Bytes{0x03, 0x04, 0xCC});
  Payload joined;
  joined.append(left);
  joined.append(right);
  ASSERT_EQ(joined.segment_count(), 2u);

  PayloadCursor r(joined);
  ASSERT_TRUE(r.u16().ok());
  auto v = r.u32();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 0x01020304u);
  auto last = r.u8();
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.value(), 0xCC);
}

}  // namespace
}  // namespace snipe
