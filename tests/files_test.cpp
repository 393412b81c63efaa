// Tests for SNIPE file servers: sink/source I/O, replication daemons,
// RC location registration, closest-replica selection, failover, and
// integrity verification.
#include <gtest/gtest.h>

#include "files/fileserver.hpp"

namespace snipe::files {
namespace {

using simnet::Address;
using simnet::World;

Bytes pattern(std::size_t n, std::uint32_t seed = 1) {
  Bytes b(n);
  std::uint32_t x = seed;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 1664525u + 1013904223u;
    b[i] = static_cast<std::uint8_t>(x >> 16);
  }
  return b;
}

struct FilesFixture : ::testing::Test {
  FilesFixture() : world(41) {
    world.create_network("lan", simnet::ethernet100());
    for (const char* name : {"rc", "fs1", "fs2", "app"})
      world.attach(world.create_host(name), *world.network("lan"));
    rc = std::make_unique<rcds::RcServer>(*world.host("rc"));

    FileServerConfig cfg;
    cfg.replication_factor = 2;
    fs1 = std::make_unique<FileServer>(*world.host("fs1"), replicas(), FileServer::kDefaultPort,
                                       cfg);
    fs2 = std::make_unique<FileServer>(*world.host("fs2"), replicas(), FileServer::kDefaultPort,
                                       cfg);
    fs1->set_peers({fs2->address()});
    fs2->set_peers({fs1->address()});

    app_rpc = std::make_unique<transport::RpcEndpoint>(*world.host("app"), 9200);
    client = std::make_unique<FileClient>(*app_rpc, replicas());
  }
  std::vector<Address> replicas() { return {rc->address()}; }

  World world;
  std::unique_ptr<rcds::RcServer> rc;
  std::unique_ptr<FileServer> fs1, fs2;
  std::unique_ptr<transport::RpcEndpoint> app_rpc;
  std::unique_ptr<FileClient> client;
};

TEST_F(FilesFixture, SinkWriteThenSourceRead) {
  Bytes content = pattern(300'000);
  Result<void> wrote(Errc::state_error, "unset");
  client->write(fs1->address(), "lifn://utk.edu/data/1", content,
                [&](Result<void> r) { wrote = r; });
  world.engine().run();
  ASSERT_TRUE(wrote.ok());
  EXPECT_TRUE(fs1->has("lifn://utk.edu/data/1"));

  Result<Bytes> read(Errc::state_error, "unset");
  client->read("lifn://utk.edu/data/1", [&](Result<Bytes> r) { read = r; });
  world.engine().run();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), content);
  EXPECT_GE(fs1->stats().sink_sessions, 1u);
}

TEST_F(FilesFixture, ReplicationDaemonCopiesAndRegistersBothLocations) {
  client->write(fs1->address(), "lifn://utk.edu/data/2", pattern(10'000),
                [](Result<void>) {});
  world.engine().run();
  EXPECT_TRUE(fs2->has("lifn://utk.edu/data/2"));  // replication_factor = 2
  auto locations = rc->get("lifn://utk.edu/data/2");
  int location_count = 0;
  for (const auto& a : locations)
    if (a.name == rcds::names::kLifnLocation) ++location_count;
  EXPECT_EQ(location_count, 2);
}

TEST_F(FilesFixture, ReadFailsOverToSurvivingReplica) {
  Bytes content = pattern(50'000);
  client->write(fs1->address(), "lifn://utk.edu/data/3", content, [](Result<void>) {});
  world.engine().run();
  ASSERT_TRUE(fs2->has("lifn://utk.edu/data/3"));

  world.host("fs1")->set_up(false);
  Result<Bytes> read(Errc::state_error, "unset");
  client->read("lifn://utk.edu/data/3", [&](Result<Bytes> r) { read = r; });
  world.engine().run_for(duration::seconds(10));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), content);
  EXPECT_GE(fs2->stats().source_sessions, 1u);
}

TEST_F(FilesFixture, CorruptReplicaDetectedByHash) {
  client->write(fs1->address(), "lifn://utk.edu/data/4", pattern(1000), [](Result<void>) {});
  world.engine().run();
  // Corrupt both replicas in place (announce=false keeps the registered
  // hash describing the original content).
  fs1->store_local("lifn://utk.edu/data/4", pattern(1000, 999), /*announce=*/false);
  fs2->store_local("lifn://utk.edu/data/4", pattern(1000, 999), /*announce=*/false);
  Result<Bytes> read(Errc::state_error, "unset");
  client->read("lifn://utk.edu/data/4", [&](Result<Bytes> r) { read = r; });
  world.engine().run();
  EXPECT_EQ(read.code(), Errc::corrupt);
}

TEST_F(FilesFixture, MissingLifnReportsNotFound) {
  Result<Bytes> read(Errc::state_error, "unset");
  client->read("lifn://utk.edu/ghost", [&](Result<Bytes> r) { read = r; });
  world.engine().run();
  EXPECT_EQ(read.code(), Errc::not_found);
}

TEST_F(FilesFixture, EmptyFileRoundTrips) {
  Result<void> wrote(Errc::state_error, "unset");
  client->write(fs1->address(), "lifn://utk.edu/empty", Bytes{},
                [&](Result<void> r) { wrote = r; });
  world.engine().run();
  ASSERT_TRUE(wrote.ok());
  Result<Bytes> read(Errc::state_error, "unset");
  client->read("lifn://utk.edu/empty", [&](Result<Bytes> r) { read = r; });
  world.engine().run();
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().empty());
}

TEST(FilesDistance, ClosestReplicaIsPreferred) {
  // app shares a LAN with fs_near; fs_far is only reachable over the WAN.
  World world(43);
  world.create_network("lan", simnet::ethernet100());
  world.create_network("wan", simnet::wan_t3());
  auto& rc_host = world.create_host("rc");
  auto& near_host = world.create_host("fs_near");
  auto& far_host = world.create_host("fs_far");
  auto& app_host = world.create_host("app");
  world.attach(rc_host, *world.network("lan"));
  world.attach(rc_host, *world.network("wan"));
  world.attach(near_host, *world.network("lan"));
  world.attach(far_host, *world.network("wan"));
  world.attach(app_host, *world.network("lan"));
  world.attach(app_host, *world.network("wan"));

  rcds::RcServer rc(rc_host);
  FileServer near_server(near_host, {rc.address()});
  FileServer far_server(far_host, {rc.address()});

  EXPECT_EQ(world.net_distance("app", "app"), 0);
  EXPECT_LT(world.net_distance("app", "fs_near"), world.net_distance("app", "fs_far"));
  // Hosts never forward: with no router between them, fs_near and fs_far
  // are mutually unreachable even though app can talk to both.
  EXPECT_EQ(world.net_distance("fs_near", "fs_far"), simnet::World::kUnreachable);

  // Same file on both servers; the client must read from the near one.
  Bytes content{1, 2, 3, 4};
  near_server.store_local("lifn://x/f", content);
  far_server.store_local("lifn://x/f", content);
  world.engine().run();

  transport::RpcEndpoint rpc(app_host, 9200);
  FileClient client(rpc, {rc.address()});
  Result<Bytes> read(Errc::state_error, "unset");
  client.read("lifn://x/f", [&](Result<Bytes> r) { read = r; });
  world.engine().run();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(near_server.stats().source_sessions, 1u);
  EXPECT_EQ(far_server.stats().source_sessions, 0u);
}

TEST_F(FilesFixture, ReplicationDaemonRepairsLostReplica) {
  // §3.2: the replication daemons maintain the redundancy target.  Kill
  // one replica after the initial write; the survivor's repair tick must
  // retract the dead location and... there being only one peer, re-push
  // once the peer returns.
  client->write(fs1->address(), "lifn://utk.edu/data/repair", pattern(8000),
                [](Result<void>) {});
  world.engine().run();
  ASSERT_TRUE(fs2->has("lifn://utk.edu/data/repair"));

  // fs2 dies and loses its disk (fresh process on reboot).
  world.host("fs2")->set_up(false);
  world.engine().run_for(duration::seconds(20));  // a repair tick passes
  // The dead replica's location was retracted from RC.
  int live_locations = 0;
  for (const auto& a : rc->get("lifn://utk.edu/data/repair"))
    if (a.name == rcds::names::kLifnLocation) ++live_locations;
  EXPECT_EQ(live_locations, 1);

  // The peer returns (empty); the next repair round re-pushes the copy.
  world.host("fs2")->set_up(true);
  world.engine().run_for(duration::seconds(40));
  EXPECT_GE(fs1->stats().repairs, 1u);
  int locations_after = 0;
  for (const auto& a : rc->get("lifn://utk.edu/data/repair"))
    if (a.name == rcds::names::kLifnLocation) ++locations_after;
  EXPECT_EQ(locations_after, 2);
}

TEST_F(FilesFixture, StripedWriteThenStripedReadRoundTrips) {
  // 4 stripes, small chunks, a size that is not a chunk multiple: the last
  // chunk is short and every stripe owns a different byte count.
  FileClientConfig cfg;
  cfg.chunk = 4096;
  cfg.stripes = 4;
  FileClient striped(*app_rpc, replicas(), cfg);
  Bytes content = pattern(300'001, 7);
  Result<void> wrote(Errc::state_error, "unset");
  striped.write(fs1->address(), "lifn://utk.edu/striped/1", content,
                [&](Result<void> r) { wrote = r; });
  world.engine().run();
  ASSERT_TRUE(wrote.ok());
  EXPECT_EQ(fs1->read("lifn://utk.edu/striped/1").value(), content);

  Result<Bytes> read(Errc::state_error, "unset");
  striped.read("lifn://utk.edu/striped/1", [&](Result<Bytes> r) { read = r; });
  world.engine().run();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), content);
  // With two live replicas, round-robin spread means both served stripes.
  EXPECT_GE(fs1->stats().source_sessions, 1u);
  EXPECT_GE(fs2->stats().source_sessions, 1u);
}

TEST_F(FilesFixture, StripedReadSurvivesMidStreamReplicaCrash) {
  // The pre-stripe bug: a replica dying after kOpenSource but before the
  // last kSourceData chunk wedged the read forever.  Now the stalled
  // stripes' progress timers re-issue them from the survivor.
  FileClientConfig cfg;
  cfg.chunk = 8192;
  cfg.stripes = 2;
  FileClient striped(*app_rpc, replicas(), cfg);
  Bytes content = pattern(400'000, 9);
  striped.write(fs1->address(), "lifn://utk.edu/striped/crash", content,
                [](Result<void>) {});
  world.engine().run();
  ASSERT_TRUE(fs2->has("lifn://utk.edu/striped/crash"));

  Result<Bytes> read(Errc::state_error, "unset");
  striped.read("lifn://utk.edu/striped/crash", [&](Result<Bytes> r) { read = r; });
  // Kill fs1 while its stripe stream is in flight.
  world.engine().schedule(duration::milliseconds(3),
                          [&] { world.host("fs1")->set_up(false); });
  world.engine().run_for(duration::seconds(30));
  ASSERT_TRUE(read.ok()) << read.error().to_string();
  EXPECT_EQ(read.value(), content);
}

TEST_F(FilesFixture, AbandonedSinkExpiresAfterTtl) {
  // A writer opens a sink, sends part of the data, and dies.  The sink's
  // idle TTL must reap it (pre-TTL it leaked forever) without storing the
  // partial file.
  ByteWriter open;
  open.str("lifn://utk.edu/abandoned");
  open.u64(10'000);
  open.u32(1);
  Result<Bytes> opened(Errc::state_error, "unset");
  app_rpc->call(fs1->address(), tags::kOpenSink, std::move(open).take(),
                [&](Result<Bytes> r) { opened = r; });
  world.engine().run();
  ASSERT_TRUE(opened.ok());
  std::uint64_t sink_id = ByteReader(opened.value()).u64().value();

  ByteWriter data;
  data.u64(sink_id);
  data.u64(0);
  data.blob(pattern(1000));
  app_rpc->notify(fs1->address(), tags::kSinkData, std::move(data).take());
  world.engine().run();
  EXPECT_EQ(fs1->open_sinks(), 1u);

  world.engine().run_for(duration::seconds(120));  // default TTL is 60 s
  EXPECT_EQ(fs1->open_sinks(), 0u);
  EXPECT_GE(fs1->stats().sinks_expired, 1u);
  EXPECT_FALSE(fs1->has("lifn://utk.edu/abandoned"));
}

TEST_F(FilesFixture, CloseSinkWithMissingBytesIsRejected) {
  ByteWriter open;
  open.str("lifn://utk.edu/short");
  open.u64(5000);
  open.u32(1);
  Result<Bytes> opened(Errc::state_error, "unset");
  app_rpc->call(fs1->address(), tags::kOpenSink, std::move(open).take(),
                [&](Result<Bytes> r) { opened = r; });
  world.engine().run();
  ASSERT_TRUE(opened.ok());
  std::uint64_t sink_id = ByteReader(opened.value()).u64().value();

  ByteWriter data;
  data.u64(sink_id);
  data.u64(0);
  data.blob(pattern(1000));
  app_rpc->notify(fs1->address(), tags::kSinkData, std::move(data).take());

  ByteWriter close;
  close.u64(sink_id);
  Result<Bytes> closed(Errc::state_error, "unset");
  app_rpc->call(fs1->address(), tags::kCloseSink, std::move(close).take(),
                [&](Result<Bytes> r) { closed = r; });
  world.engine().run();
  EXPECT_EQ(closed.code(), Errc::state_error);
  EXPECT_EQ(fs1->stats().sinks_incomplete, 1u);
  EXPECT_EQ(fs1->open_sinks(), 0u);
  EXPECT_FALSE(fs1->has("lifn://utk.edu/short"));
}

TEST(FilesRepair, RepairDoesNotChurnWhenOnlyLivePeersRemain) {
  // Replication factor 3 with only two servers: the target is permanently
  // unreachable.  The old repair loop pushed a fresh copy to the *already
  // registered* peer every tick — endless churn with no replica-count
  // progress.  The repair pass must skip peers that are live replicas.
  World world(47);
  world.create_network("lan", simnet::ethernet100());
  for (const char* name : {"rc", "fs1", "fs2", "app"})
    world.attach(world.create_host(name), *world.network("lan"));
  rcds::RcServer rc(*world.host("rc"));
  FileServerConfig cfg;
  cfg.replication_factor = 3;
  FileServer fs1(*world.host("fs1"), {rc.address()}, FileServer::kDefaultPort, cfg);
  FileServer fs2(*world.host("fs2"), {rc.address()}, FileServer::kDefaultPort, cfg);
  fs1.set_peers({fs2.address()});
  fs2.set_peers({fs1.address()});

  transport::RpcEndpoint rpc(*world.host("app"), 9200);
  FileClient client(rpc, {rc.address()});
  client.write(fs1.address(), "lifn://utk.edu/churn", pattern(4000), [](Result<void>) {});
  world.engine().run();
  ASSERT_TRUE(fs2.has("lifn://utk.edu/churn"));
  std::uint64_t received_after_write = fs2.stats().replicas_received;

  world.engine().run_for(duration::seconds(90));  // several repair periods
  EXPECT_EQ(fs1.stats().repairs, 0u);
  EXPECT_EQ(fs2.stats().repairs, 0u);
  EXPECT_EQ(fs2.stats().replicas_received, received_after_write);
}

TEST_F(FilesFixture, OverwriteDoesNotDoubleCountStoredBytes) {
  fs1->store_local("lifn://utk.edu/ow", pattern(1000), /*announce=*/false);
  EXPECT_EQ(fs1->stats().bytes_stored, 1000u);
  fs1->store_local("lifn://utk.edu/ow", pattern(400), /*announce=*/false);
  EXPECT_EQ(fs1->stats().bytes_stored, 400u);
  fs1->store_local("lifn://utk.edu/ow2", pattern(50), /*announce=*/false);
  EXPECT_EQ(fs1->stats().bytes_stored, 450u);
}

TEST_F(FilesFixture, DirectStoreFetchRpc) {
  // The plain kStore/kFetch path (used by checkpoint storage).
  ByteWriter w;
  w.str("lifn://utk.edu/ckpt/1");
  w.blob(pattern(5000));
  Result<Bytes> stored(Errc::state_error, "unset");
  app_rpc->call(fs1->address(), tags::kStore, std::move(w).take(),
                [&](Result<Bytes> r) { stored = r; });
  world.engine().run();
  ASSERT_TRUE(stored.ok());

  ByteWriter f;
  f.str("lifn://utk.edu/ckpt/1");
  Result<Bytes> fetched(Errc::state_error, "unset");
  app_rpc->call(fs1->address(), tags::kFetch, std::move(f).take(),
                [&](Result<Bytes> r) { fetched = r; });
  world.engine().run();
  ASSERT_TRUE(fetched.ok());
  ByteReader r(fetched.value());
  EXPECT_EQ(r.blob().value(), pattern(5000));
}

}  // namespace
}  // namespace snipe::files
