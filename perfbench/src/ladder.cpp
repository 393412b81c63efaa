// The layer ladder: each rung pushes N operations through one layer's
// public API with nothing above it, and reports wall ns, allocations and
// (for network rungs) engine events per operation.  A layer's self time is
// its rung minus the cost of what it drives in the rung below, scaled by
// how many of those it drives (see README.md for each formula).
#include <algorithm>
#include <functional>

#include "common.hpp"
#include "crypto/hash.hpp"
#include "crypto/identity.hpp"
#include "crypto/rsa.hpp"
#include "daemon/daemon.hpp"
#include "daemon/telemetry.hpp"
#include "daemon/watchtower.hpp"
#include "files/fileserver.hpp"
#include "obs/metrics.hpp"
#include "playground/svmasm.hpp"
#include "rcds/client.hpp"
#include "rcds/server.hpp"
#include "rm/resource_manager.hpp"
#include "simnet/topo.hpp"
#include "transport/rpc.hpp"
#include "transport/srudp.hpp"
#include "transport/stream.hpp"

namespace perfbench {
namespace {

/// False once any rung's operations did not all complete.
bool g_rungs_ok = true;

void expect_all(std::uint64_t done, std::uint64_t want) {
  if (done != want) g_rungs_ok = false;
}

struct Sample {
  double ns = 0;
  double allocs = 0;
  double events = 0;
  double datagrams = 0;
};

double datagrams_sent(simnet::World& world) {
  std::map<std::string, double> c;
  simnet_counters(world, c);
  return c["simnet.datagrams"];
}

/// Times `body` (which performs `n` operations on `world`, or on no world)
/// and returns per-operation costs.  The rung shows as one wall span.
Sample measure(const char* rung, double n, simnet::World* world,
               const std::function<void()>& body) {
  const double ev0 = world ? static_cast<double>(world->events_run()) : 0;
  const double dg0 = world ? datagrams_sent(*world) : 0;
  const std::uint64_t a0 = allocations();
  const std::int64_t t0 = wall_ns();
  body();
  const std::int64_t t1 = wall_ns();
  const std::uint64_t a1 = allocations();
  Trace::get().wall(rung, "rung", 4, t0, t1);
  Sample s;
  s.ns = static_cast<double>(t1 - t0) / n;
  s.allocs = static_cast<double>(a1 - a0) / n;
  if (world) {
    s.events = (static_cast<double>(world->events_run()) - ev0) / n;
    s.datagrams = (datagrams_sent(*world) - dg0) / n;
  }
  return s;
}

/// Runs `rung` three times (each builds its own world) and keeps the
/// repetition with the median time.
Sample median_of_3(const std::function<Sample()>& rung) {
  std::vector<Sample> v = {rung(), rung(), rung()};
  std::sort(v.begin(), v.end(), [](const Sample& a, const Sample& b) { return a.ns < b.ns; });
  return v[1];
}

/// Two hosts on one 100 Mbit segment.
struct Pair {
  Pair() {
    auto& net = world.create_network("lan", simnet::ethernet100());
    world.attach(world.create_host("a"), net);
    world.attach(world.create_host("b"), net);
  }
  simnet::Host& a() { return *world.host("a"); }
  simnet::Host& b() { return *world.host("b"); }
  simnet::World world{1};
};

/// A self-rescheduling event small enough to stay inline in the engine's
/// slab, so the rung measures the queue rather than the allocator.
struct Chain {
  simnet::Engine* engine;
  std::size_t* fired;
  std::size_t limit;
  void operator()() const {
    if (++*fired < limit) engine->schedule(duration::microseconds(1), *this);
  }
};

Sample engine_rung() {
  constexpr std::size_t kEvents = 1 << 20;
  simnet::Engine engine(1);
  std::size_t chained = 0, scattered = 0;
  Sample s = measure("engine", kEvents, nullptr, [&] {
    // Half a self-rescheduling chain, half scattered one-shot timers.
    engine.schedule(duration::microseconds(1), Chain{&engine, &chained, kEvents / 2});
    Rng scatter(7);
    for (std::size_t i = 0; i < kEvents / 2; ++i)
      engine.schedule(duration::microseconds(1 + static_cast<SimTime>(scatter.next_below(1000))),
                      [&scattered] { ++scattered; });
    engine.run();
  });
  expect_all(chained + scattered, kEvents);
  return s;
}

Sample simnet_flat_rung() {
  constexpr int kN = 800 * 256;
  Pair p;
  std::uint64_t got = 0;
  p.b().bind(9, [&got](const simnet::Packet&) { ++got; }).value();
  Bytes body(256, 0x5a);
  Sample s = measure("simnet.flat", kN, &p.world, [&] {
    for (int i = 0; i < kN; i += 256) {
      for (int j = 0; j < 256; ++j) p.a().send({"b", 9}, Payload(Bytes(body))).value();
      p.world.engine().run();
    }
  });
  expect_all(got, kN);
  return s;
}

Sample simnet_routed_rung() {
  constexpr int kN = 400 * 256;
  simnet::World world(1);
  simnet::FatTreeOptions ft;
  ft.host_prefix = "h";
  simnet::build_fat_tree(world, "dc", ft);
  std::uint64_t got = 0;
  world.host("h1_0")->bind(9, [&got](const simnet::Packet&) { ++got; }).value();
  simnet::Host& src = *world.host("h0_0");
  Bytes body(256, 0x5a);
  Sample s = measure("simnet.routed", kN, &world, [&] {
    for (int i = 0; i < kN; i += 256) {
      for (int j = 0; j < 256; ++j) src.send({"h1_0", 9}, Payload(Bytes(body))).value();
      world.engine().run();
    }
  });
  expect_all(got, kN);
  return s;
}

/// `n` messages of `size` bytes, enqueued `batch` at a time, each batch run
/// to completion: a deep queue, as bulk_transfer keeps.
Sample srudp_rung(std::size_t size, int n, int batch) {
  Pair p;
  transport::SrudpEndpoint tx(p.a(), 7001), rx(p.b(), 7002);
  int got = 0;
  rx.set_handler([&got](const simnet::Address&, Payload) { ++got; });
  Bytes body(size, 0x5a);
  Sample s = measure("srudp", n, &p.world, [&] {
    for (int i = 0; i < n; i += batch) {
      for (int j = 0; j < batch; ++j) tx.send(rx.address(), Payload(Bytes(body)));
      p.world.engine().run();
    }
  });
  expect_all(static_cast<std::uint64_t>(got), static_cast<std::uint64_t>(n));
  return s;
}

Sample stream_rung(std::size_t size, int n, int batch) {
  Pair p;
  transport::StreamEndpoint client(p.a(), 8001), server(p.b(), 8002);
  int got = 0;
  std::shared_ptr<transport::StreamConnection> accepted;
  server.listen([&](std::shared_ptr<transport::StreamConnection> c) {
    accepted = c;
    c->set_message_handler([&got](Payload) { ++got; });
  });
  auto conn = client.connect(server.address());
  p.world.engine().run();
  Bytes body(size, 0x5a);
  Sample s = measure("stream", n, &p.world, [&] {
    for (int i = 0; i < n; i += batch) {
      for (int j = 0; j < batch; ++j) conn->send_message(Payload(Bytes(body)));
      p.world.engine().run();
    }
  });
  expect_all(static_cast<std::uint64_t>(got), static_cast<std::uint64_t>(n));
  return s;
}

Sample rpc_rung() {
  constexpr int kN = 320 * 64;
  Pair p;
  transport::RpcEndpoint server(p.b(), 7100), client(p.a(), 7101);
  server.serve(1, [](const simnet::Address&, const Bytes& body) -> Result<Bytes> { return body; });
  Bytes body(64, 0x5a);
  int ok = 0;
  Sample s = measure("rpc", kN, &p.world, [&] {
    for (int i = 0; i < kN; i += 64) {
      for (int j = 0; j < 64; ++j)
        client.call(server.address(), 1, body, [&ok](Result<Bytes> r) { ok += r.ok(); });
      p.world.engine().run();
    }
  });
  expect_all(static_cast<std::uint64_t>(ok), kN);
  return s;
}

/// Lookups (or sets) against one replica with no peers.
Sample rcds_rung(bool set) {
  constexpr int kKeys = 64;
  constexpr int kN = 320 * kKeys;
  Pair p;
  rcds::RcServer server(p.b());
  transport::RpcEndpoint rpc(p.a(), 9000);
  rcds::RcClient client(rpc, {server.address()});
  for (int k = 0; k < kKeys; ++k)
    server.apply("urn:snipe:bench:k" + std::to_string(k), {rcds::op_set("v", "value")});
  int ok = 0;
  Sample s = measure(set ? "rcds.set" : "rcds.lookup", kN, &p.world, [&] {
    for (int i = 0; i < kN; i += kKeys) {
      for (int k = 0; k < kKeys; ++k) {
        std::string uri = "urn:snipe:bench:k" + std::to_string(k);
        if (set)
          client.set(uri, "v", "value" + std::to_string(i),
                     [&ok](Result<void> r) { ok += r.ok(); });
        else
          client.lookup(uri, "v", [&ok](Result<std::vector<std::string>> r) { ok += r.ok(); });
      }
      p.world.engine().run();
    }
  });
  expect_all(static_cast<std::uint64_t>(ok), kN);
  return s;
}

/// Striped 256 KiB reads (or writes) in 64 KiB chunks, 8 transfers at a
/// time; the cost is per chunk.
Sample files_rung(bool write) {
  constexpr int kTransfers = 160;
  constexpr std::size_t kChunk = 64 * 1024;
  constexpr std::size_t kSize = 4 * kChunk;
  simnet::World world(1);
  auto& net = world.create_network("lan", simnet::ethernet100());
  for (const char* n : {"reg", "fs", "client"}) world.attach(world.create_host(n), net);
  rcds::RcServer reg(*world.host("reg"));
  files::FileServerConfig fs_cfg;
  fs_cfg.chunk = kChunk;
  files::FileServer fs(*world.host("fs"), {reg.address()}, files::FileServer::kDefaultPort, fs_cfg);
  transport::RpcEndpoint rpc(*world.host("client"), 9000);
  files::FileClientConfig fc_cfg;
  fc_cfg.chunk = kChunk;
  fc_cfg.stripes = 2;
  files::FileClient client(rpc, {reg.address()}, fc_cfg);
  Bytes content(kSize, 0x5a);
  fs.store_local("lifn://bench/f", content);
  world.run_until(duration::seconds(1));
  int ok = 0;
  Sample s = measure(write ? "files.write" : "files.read", kTransfers * 4.0, &world, [&] {
    for (int i = 0; i < kTransfers; i += 8) {
      for (int j = 0; j < 8; ++j) {
        if (write)
          client.write(fs.address(), "lifn://bench/w" + std::to_string(j), content,
                       [&ok](Result<void> r) { ok += r.ok(); });
        else
          client.read("lifn://bench/f", [&ok](Result<Bytes> r) { ok += r.ok(); });
      }
      world.run_until(world.now() + duration::seconds(2));
    }
  });
  expect_all(static_cast<std::uint64_t>(ok), kTransfers);
  return s;
}

daemon::TaskFactory idle_task() {
  return [](const daemon::SpawnRequest&,
            daemon::TaskHandle&) -> Result<std::unique_ptr<daemon::ManagedTask>> {
    struct Idle final : daemon::ManagedTask {
      void start() override {}
      void kill() override {}
    };
    return std::unique_ptr<daemon::ManagedTask>(new Idle());
  };
}

enum class SpawnKind { kSigned, kSealed, kPlayground };

/// Active-mode spawns through one RM into one daemon that requires
/// authorization: RSA-signed without a session, sealed with one, or sealed
/// playground (SVM) tasks whose code the daemon fetches from a file server.
Sample rm_rung(SpawnKind kind, const crypto::Principal& rm_key,
               const crypto::Principal& host_key, int n) {
  const char* const kCodeLifn = "lifn://bench/code/mult";
  simnet::World world(1);
  auto& net = world.create_network("lan", simnet::ethernet100());
  for (const char* h : {"rc", "fs", "node", "rmhost", "client"})
    world.attach(world.create_host(h), net);
  rcds::RcServer rc(*world.host("rc"));
  files::FileServer fs(*world.host("fs"), {rc.address()});
  daemon::DaemonConfig cfg;
  cfg.require_authorization = true;
  cfg.trust.trust(rm_key.uri, rm_key.keys.pub, crypto::TrustPurpose::grant_resources);
  cfg.host_principal = std::make_shared<crypto::Principal>(host_key);
  cfg.playground.require_signature = false;
  daemon::SnipeDaemon d(*world.host("node"), {rc.address()}, daemon::SnipeDaemon::kDefaultPort,
                        cfg);
  d.register_program("idle", idle_task());
  rm::ResourceManager rm(*world.host("rmhost"), {rc.address()}, rm_key);
  rm.manage_host("node", d.address());
  transport::RpcEndpoint client(*world.host("client"), 9000);
  files::FileClient publisher(client, {rc.address()});
  publisher.write(fs.address(), kCodeLifn,
                  playground::assemble("recv\npush 10\nmul\nemit\npush 0\nhalt\n")
                      .value()
                      .encode(),
                  [](Result<void> r) { r.value(); });
  world.run_until(duration::seconds(5));
  if (kind != SpawnKind::kSigned) {
    rm.establish_session("node", [](Result<void> r) { r.value(); });
    world.run_until(duration::seconds(6));
  }
  const char* rung = kind == SpawnKind::kSigned   ? "rm.spawn.signed"
                     : kind == SpawnKind::kSealed ? "rm.spawn.sealed"
                                                  : "rm.spawn.playground";
  int ok = 0;
  Sample s = measure(rung, n, &world, [&] {
    for (int i = 0; i < n; ++i) {
      daemon::SpawnRequest req;
      req.program = "idle";
      if (kind == SpawnKind::kPlayground) {
        req.program = kCodeLifn;
        req.args = {static_cast<std::int64_t>(i)};
      }
      req.name = "t" + std::to_string(i);
      client.call(rm.address(), rm::tags::kAllocate, req.encode(),
                  [&ok](Result<Bytes> r) { ok += r.ok(); });
      world.run_until(world.now() + duration::milliseconds(50));
    }
  });
  expect_all(static_cast<std::uint64_t>(ok), static_cast<std::uint64_t>(n));
  return s;
}

/// Scrape and beacon counts of one obs rung.
struct ObsCounts {
  std::uint64_t scrapes = 0;
  std::uint64_t beacons = 0;
};

/// An idle pair world whose sender runs a watchtower scraping every 10 ms
/// and, with `beacons`, an exporter shipping to a collector every 10 ms, as
/// on every fleet_soak host: each beacon carries the series points scraped
/// since the last one.  The srudp endpoints keep the registry's sources
/// realistic.  Costs are per scrape, or per beacon with the scrapes
/// included.
Sample obs_rung(bool beacons, ObsCounts* counts) {
  Pair p;
  transport::SrudpEndpoint tx(p.a(), 7001), rx(p.b(), 7002);
  transport::RpcEndpoint coll_rpc(p.b(), 7200), exp_rpc(p.a(), 7100);
  daemon::TelemetryCollector collector(coll_rpc);
  daemon::WatchtowerConfig wcfg;
  wcfg.scrape_period = duration::milliseconds(10);
  daemon::Watchtower tower(p.a(), wcfg);
  daemon::TelemetryConfig ecfg;
  ecfg.collectors = {coll_rpc.address()};
  ecfg.period = duration::milliseconds(10);
  daemon::TelemetryExporter exporter(exp_rpc, ecfg, nullptr, nullptr, &tower.series());
  tower.start();
  if (beacons) exporter.start();
  constexpr SimDuration kSpan = duration::seconds(20);
  Sample s = measure(beacons ? "obs.beacon" : "obs.scrape", 1, &p.world,
                     [&] { p.world.run_until(kSpan); });
  counts->scrapes = tower.scrapes();
  counts->beacons = exporter.beacons_sent();
  if (beacons) {
    // The collector must hold the shipped series, or the beacons were empty.
    const obs::SeriesStore* shipped = collector.store().host_series("a");
    expect_all(shipped != nullptr && shipped->series_count() > 0, true);
  }
  const double per = static_cast<double>(beacons ? counts->beacons : counts->scrapes);
  s.ns /= per;
  s.allocs /= per;
  return s;
}

}  // namespace

bool run_ladder(Metrics& m) {
  auto put = [&m](const std::string& layer, const std::string& per, const Sample& s,
                  bool network) {
    m.set(layer + ".ns_per_" + per, s.ns, "ns");
    m.set(layer + ".allocs_per_" + per, s.allocs, "count");
    if (network) m.set(layer + ".events_per_" + per, s.events, "count");
  };
  auto by_size = [](const std::string& layer, const char* what, const char* size) {
    return layer + "." + what + "_per_msg." + size;
  };

  Sample engine = median_of_3(engine_rung);
  put("engine", "event", engine, false);

  Sample flat = median_of_3(simnet_flat_rung);
  Sample routed = median_of_3(simnet_routed_rung);
  put("simnet", "datagram", flat, true);
  put("simnet.routed", "datagram", routed, true);
  m.set("simnet.self_ns_per_datagram", flat.ns - engine.ns * flat.events, "ns");
  m.set("simnet.routed.self_ns_per_datagram", routed.ns - engine.ns * routed.events, "ns");

  // The sweep: smallest message against a large one, per transport.
  struct Point {
    const char* size;
    std::size_t bytes;
    int n;
    int batch;
  };
  const Point points[] = {{"256", 256, 8192, 4096}, {"64k", 65536, 512, 64}};
  double srudp_256 = 0, srudp_64k = 0;
  for (const std::string layer : {"srudp", "stream"}) {
    for (const Point& pt : points) {
      Sample s = median_of_3([&] {
        return layer == "srudp" ? srudp_rung(pt.bytes, pt.n, pt.batch)
                                : stream_rung(pt.bytes, pt.n, pt.batch);
      });
      m.set(by_size(layer, "ns", pt.size), s.ns, "ns");
      m.set(by_size(layer, "allocs", pt.size), s.allocs, "count");
      m.set(by_size(layer, "events", pt.size), s.events, "count");
      m.set(by_size(layer, "datagrams", pt.size), s.datagrams, "count");
      m.set(by_size(layer, "self_ns", pt.size), s.ns - flat.ns * s.datagrams, "ns");
      if (layer == "srudp") (pt.bytes == 256 ? srudp_256 : srudp_64k) = s.ns;
    }
  }

  Sample rpc = median_of_3(rpc_rung);
  put("rpc", "call", rpc, true);
  m.set("rpc.self_ns_per_call", rpc.ns - 2 * srudp_256, "ns");

  Sample lookup = median_of_3([] { return rcds_rung(false); });
  Sample set = median_of_3([] { return rcds_rung(true); });
  put("rcds", "lookup", lookup, false);
  put("rcds", "set", set, false);
  m.set("rcds.self_ns_per_lookup", lookup.ns - rpc.ns, "ns");
  m.set("rcds.self_ns_per_set", set.ns - rpc.ns, "ns");

  Sample read = median_of_3([] { return files_rung(false); });
  Sample write = median_of_3([] { return files_rung(true); });
  put("files", "read_chunk", read, false);
  put("files", "write_chunk", write, false);
  m.set("files.self_ns_per_read_chunk", read.ns - srudp_64k, "ns");
  m.set("files.self_ns_per_write_chunk", write.ns - srudp_64k, "ns");

  // Crypto: three keygens from fixed seeds, then sign/verify with the second,
  // the key the rm rung's RM signs with, so rm.self_ns_per_spawn.signed
  // subtracts the cost of that key's signatures.
  std::vector<crypto::Principal> keys;
  std::vector<double> keygen_ns;
  for (std::uint64_t i = 0; i < 3; ++i) {
    Rng rng(0x1add0000ULL + i);
    keygen_ns.push_back(measure("crypto.keygen", 1, nullptr, [&] {
                          keys.push_back(crypto::Principal::create(
                              "urn:snipe:bench:k" + std::to_string(i), rng));
                        }).ns);
  }
  std::sort(keygen_ns.begin(), keygen_ns.end());
  m.set("crypto.ns_per_keygen", keygen_ns[1], "ns");
  const Bytes message(200, 0x42);
  Bytes sig;
  Sample sign = measure("crypto.rsa_sign", 20, nullptr, [&] {
    for (int i = 0; i < 20; ++i) sig = crypto::sign(keys[1].keys.priv, message);
  });
  m.set("crypto.ns_per_rsa_sign", sign.ns, "ns");
  m.set("crypto.allocs_per_rsa_sign", sign.allocs, "count");
  bool verified = true;
  Sample verify = measure("crypto.rsa_verify", 200, nullptr, [&] {
    for (int i = 0; i < 200; ++i) verified &= crypto::verify(keys[1].keys.pub, message, sig);
  });
  m.set("crypto.ns_per_rsa_verify", verify.ns, "ns");
  expect_all(verified, true);
  const Bytes block(4 << 20, 0x17);
  crypto::Digest256 sha_out{};
  crypto::Digest128 md5_out{};
  Sample sha = measure("crypto.sha256", 4096, nullptr, [&] { sha_out = crypto::sha256(block); });
  Sample md5 = measure("crypto.md5", 4096, nullptr, [&] { md5_out = crypto::md5(block); });
  expect_all(sha_out == crypto::sha256(block) && md5_out == crypto::md5(block), true);
  m.set("crypto.ns_per_sha256_kb", sha.ns, "ns");
  m.set("crypto.ns_per_md5_kb", md5.ns, "ns");

  Sample signed_spawn = rm_rung(SpawnKind::kSigned, keys[1], keys[2], 20);
  Sample sealed_spawn = rm_rung(SpawnKind::kSealed, keys[1], keys[2], 200);
  Sample playground_spawn = rm_rung(SpawnKind::kPlayground, keys[1], keys[2], 200);
  m.set("rm.ns_per_spawn.signed", signed_spawn.ns, "ns");
  m.set("rm.allocs_per_spawn.signed", signed_spawn.allocs, "count");
  m.set("rm.ns_per_spawn.sealed", sealed_spawn.ns, "ns");
  m.set("rm.allocs_per_spawn.sealed", sealed_spawn.allocs, "count");
  m.set("rm.self_ns_per_spawn.signed",
        signed_spawn.ns - sign.ns - verify.ns - 2 * rpc.ns, "ns");
  m.set("rm.self_ns_per_spawn.sealed", sealed_spawn.ns - 2 * rpc.ns, "ns");
  m.set("rm.sign_share.signed", ratio(sign.ns, signed_spawn.ns), "ratio");
  m.set("rm.ns_per_spawn.playground", playground_spawn.ns, "ns");
  m.set("rm.allocs_per_spawn.playground", playground_spawn.allocs, "count");
  // A playground task's own share: fetching its code and starting the SVM.
  m.set("daemon.playground_ns_per_spawn", playground_spawn.ns - sealed_spawn.ns, "ns");

  auto& counter = obs::MetricsRegistry::global().counter("perfbench.ladder");
  constexpr int kIncs = 10'000'000;
  Sample inc = measure("obs.counter_inc", kIncs, nullptr, [&] {
    for (int i = 0; i < kIncs; ++i) counter.inc();
  });
  m.set("obs.ns_per_counter_inc", inc.ns, "ns");
  ObsCounts scraped, beaconed;
  Sample scrape = obs_rung(false, &scraped);
  Sample beacon = obs_rung(true, &beaconed);
  expect_all(scraped.scrapes > 0 && beaconed.beacons > 0, true);
  m.set("obs.ns_per_scrape", scrape.ns, "ns");
  m.set("obs.allocs_per_scrape", scrape.allocs, "count");
  m.set("obs.ns_per_beacon", beacon.ns, "ns");
  m.set("obs.allocs_per_beacon", beacon.allocs, "count");
  // A beacon's own share: the beacon rung less the scrapes it also ran.
  const double scrapes_per_beacon = ratio(static_cast<double>(beaconed.scrapes),
                                          static_cast<double>(beaconed.beacons));
  m.set("obs.self_ns_per_beacon", beacon.ns - scrape.ns * scrapes_per_beacon, "ns");
  m.set("obs.self_allocs_per_beacon", beacon.allocs - scrape.allocs * scrapes_per_beacon,
        "count");
  return g_rungs_ok;
}

}  // namespace perfbench
