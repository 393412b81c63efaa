// Tests for the SNIPE client library: URN messaging, migration with
// no-loss delivery and relays, notify lists, multicast groups with router
// election and failure, consoles, and the migrating HTTP server.
#include <gtest/gtest.h>

#include "core/console.hpp"
#include "core/group.hpp"
#include "core/process.hpp"
#include "obs/alert.hpp"
#include "obs/flight.hpp"
#include "rcds/server.hpp"
#include "util/uri.hpp"

namespace snipe::core {
namespace {

using simnet::Address;
using simnet::World;

struct CoreFixture : ::testing::Test {
  CoreFixture() : world(91) {
    world.create_network("lan", simnet::ethernet100());
    world.create_network("wan", simnet::wan_t3());
    for (const char* n : {"rc1", "rc2", "hostA", "hostB", "hostC"}) {
      auto& h = world.create_host(n);
      world.attach(h, *world.network("lan"));
      world.attach(h, *world.network("wan"));
    }
    rc1 = std::make_unique<rcds::RcServer>(*world.host("rc1"));
    rc2 = std::make_unique<rcds::RcServer>(*world.host("rc2"));
    rc1->set_peers({rc2->address()});
    rc2->set_peers({rc1->address()});
  }

  std::vector<Address> replicas() { return {rc1->address(), rc2->address()}; }

  std::unique_ptr<SnipeProcess> make_process(const std::string& host,
                                             const std::string& name) {
    auto p = std::make_unique<SnipeProcess>(*world.host(host), name, replicas());
    world.engine().run();  // let registration settle
    return p;
  }

  World world;
  std::unique_ptr<rcds::RcServer> rc1, rc2;
};

TEST_F(CoreFixture, UrnMessagingBetweenProcesses) {
  auto alice = make_process("hostA", "alice");
  auto bob = make_process("hostB", "bob");
  std::vector<std::tuple<std::string, std::uint32_t, std::string>> got;
  bob->set_message_handler([&](const std::string& src, std::uint32_t tag, Bytes body) {
    got.emplace_back(src, tag, to_string(body));
  });
  Result<void> sent(Errc::state_error, "unset");
  alice->send(bob->urn(), 7, to_bytes("hello bob"), [&](Result<void> r) { sent = r; });
  world.engine().run();
  ASSERT_TRUE(sent.ok());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(std::get<0>(got[0]), "urn:snipe:proc:alice");
  EXPECT_EQ(std::get<1>(got[0]), 7u);
  EXPECT_EQ(std::get<2>(got[0]), "hello bob");
}

TEST_F(CoreFixture, ProcessRegistersItsMetadata) {
  auto alice = make_process("hostA", "alice");
  auto record = rc1->get(alice->urn());
  std::map<std::string, std::string> meta;
  for (const auto& a : record) meta[a.name] = a.value;
  EXPECT_EQ(meta[rcds::names::kProcHost], "hostA");
  EXPECT_EQ(meta[rcds::names::kProcState], "running");
  EXPECT_NE(meta[rcds::names::kProcAddress].find("hostA"), std::string::npos);
}

TEST_F(CoreFixture, SendToUnknownUrnFails) {
  auto alice = make_process("hostA", "alice");
  Result<void> sent(Errc::state_error, "unset");
  alice->send("urn:snipe:proc:ghost", 1, {}, [&](Result<void> r) { sent = r; });
  world.engine().run();
  EXPECT_FALSE(sent.ok());
  EXPECT_EQ(alice->stats().send_failures, 1u);
}

TEST_F(CoreFixture, MigrationKeepsMessagesFlowing) {
  auto sender = make_process("hostA", "sender");
  auto roamer = make_process("hostB", "roamer");
  std::vector<std::string> got;
  roamer->set_message_handler(
      [&](const std::string&, std::uint32_t, Bytes body) { got.push_back(to_string(body)); });

  sender->send(roamer->urn(), 1, to_bytes("before"), nullptr);
  world.engine().run();

  // §5.6: the process initiates its own migration.
  Result<void> moved(Errc::state_error, "unset");
  roamer->migrate_to(*world.host("hostC"), [&](Result<void> r) { moved = r; });
  world.engine().run();
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(roamer->host().name(), "hostC");

  // The sender still holds the OLD cached address; the relay forwards, so
  // nothing is lost even before re-resolution.
  Result<void> sent(Errc::state_error, "unset");
  sender->send(roamer->urn(), 1, to_bytes("during"), [&](Result<void> r) { sent = r; });
  world.engine().run();
  ASSERT_TRUE(sent.ok());

  // After the relay grace expires the old address is gone; delivery must
  // recover via RC re-resolution.
  world.engine().run_for(duration::seconds(15));
  sender->send(roamer->urn(), 1, to_bytes("after"), nullptr);
  world.engine().run();

  EXPECT_EQ(got, (std::vector<std::string>{"before", "during", "after"}));
  EXPECT_GE(roamer->stats().relayed, 1u);
  EXPECT_GE(sender->stats().re_resolutions, 1u);
}

TEST_F(CoreFixture, NotifyListGetsDirectMigrationNotice) {
  auto watcher = make_process("hostA", "watcher");
  auto roamer = make_process("hostB", "roamer");
  roamer->add_to_notify_list(watcher->urn());
  world.engine().run();

  roamer->migrate_to(*world.host("hostC"), nullptr);
  world.engine().run();

  // The watcher's resolution cache was refreshed by the direct notice:
  // sending needs no re-resolution round.
  std::uint64_t re_res_before = watcher->stats().re_resolutions;
  bool delivered = false;
  roamer->set_message_handler([&](const std::string&, std::uint32_t, Bytes) {
    delivered = true;
  });
  watcher->send(roamer->urn(), 1, to_bytes("found you"), nullptr);
  world.engine().run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(watcher->stats().re_resolutions, re_res_before);
}

TEST_F(CoreFixture, SpawnViaHostPrefersBroker) {
  // §5.5: a host with registered brokers gets spawn requests via the
  // broker.  Registering a bogus broker and watching the spawn fail with
  // timeout at that address (instead of not_found from the daemon) proves
  // the redirect happened; the RM integration test covers the happy path.
  auto alice = make_process("hostA", "alice");
  std::string uri = snipe::host_url("hostB", daemon::SnipeDaemon::kDefaultPort);
  bool broker_called = false;
  auto& broker_host = world.create_host("broker");
  world.attach(broker_host, *world.network("lan"));
  transport::RpcEndpoint broker_rpc(broker_host, rm::ResourceManager::kDefaultPort);
  broker_rpc.serve(rm::tags::kAllocate,
                   [&](const Address&, const Bytes&) -> Result<Bytes> {
                     broker_called = true;
                     return Result<Bytes>(Errc::unreachable, "no hosts");
                   });
  alice->rc().add(uri, rcds::names::kHostBroker,
                  "snipe://broker:" + std::to_string(rm::ResourceManager::kDefaultPort) + "/rm",
                  [](Result<void>) {});
  world.engine().run();

  Result<daemon::SpawnReply> reply(Errc::state_error, "unset");
  daemon::SpawnRequest req;
  req.program = "anything";
  alice->spawn_via_host("hostB", req, [&](Result<daemon::SpawnReply> r) { reply = r; });
  world.engine().run();
  EXPECT_TRUE(broker_called);
  EXPECT_EQ(reply.code(), Errc::unreachable);
}

// ---- multicast groups ----

TEST_F(CoreFixture, GroupElectionAndDelivery) {
  auto p1 = make_process("hostA", "m1");
  auto p2 = make_process("hostB", "m2");
  auto p3 = make_process("hostC", "m3");

  std::string g = snipe::group_urn("weather");
  GroupConfig cfg;
  cfg.desired_routers = 2;
  MulticastGroup g1(*p1, g, cfg);
  world.engine().run();
  MulticastGroup g2(*p2, g, cfg);
  world.engine().run();
  MulticastGroup g3(*p3, g, cfg);
  world.engine().run();

  // First two members elected themselves; the third found enough routers.
  EXPECT_TRUE(g1.is_router());
  EXPECT_TRUE(g2.is_router());
  EXPECT_FALSE(g3.is_router());

  std::map<std::string, std::vector<std::string>> got;
  g1.set_handler([&](const std::string& src, Bytes b) { got["m1"].push_back(src); (void)b; });
  g2.set_handler([&](const std::string& src, Bytes b) { got["m2"].push_back(src); (void)b; });
  g3.set_handler([&](const std::string& src, Bytes b) { got["m3"].push_back(src); (void)b; });

  g3.send(to_bytes("storm warning"));
  world.engine().run();

  // Everyone (including the sender, via its membership) hears it once.
  for (const char* m : {"m1", "m2", "m3"}) {
    ASSERT_EQ(got[m].size(), 1u) << m;
    EXPECT_EQ(got[m][0], p3->urn()) << m;
  }
}

TEST_F(CoreFixture, GroupSurvivesRouterFailure) {
  std::string g = snipe::group_urn("resilient");
  GroupConfig cfg;
  cfg.desired_routers = 3;
  std::vector<std::unique_ptr<SnipeProcess>> procs;
  std::vector<std::unique_ptr<MulticastGroup>> groups;
  int delivered = 0;
  for (const char* host : {"hostA", "hostB", "hostC"}) {
    procs.push_back(make_process(host, std::string("r-") + host));
    groups.push_back(std::make_unique<MulticastGroup>(*procs.back(), g, cfg));
    world.engine().run();
    groups.back()->set_handler([&](const std::string&, Bytes) { ++delivered; });
  }
  ASSERT_TRUE(groups[0]->is_router());
  ASSERT_TRUE(groups[1]->is_router());
  ASSERT_TRUE(groups[2]->is_router());

  // Kill one router host outright; >half of the routers still get sends.
  world.host("hostB")->set_up(false);
  groups[0]->send(to_bytes("still here"));
  world.engine().run_for(duration::seconds(5));
  // hostA and hostC members both hear it (hostB is dead).
  EXPECT_EQ(delivered, 2);
}

TEST_F(CoreFixture, GroupDuplicatesSuppressed) {
  std::string g = snipe::group_urn("dedup");
  auto p1 = make_process("hostA", "d1");
  auto p2 = make_process("hostB", "d2");
  GroupConfig cfg;
  cfg.desired_routers = 3;  // both members host routers
  MulticastGroup g1(*p1, g, cfg);
  world.engine().run();
  MulticastGroup g2(*p2, g, cfg);
  world.engine().run();
  // Let the periodic refresh run so both members discover *both* routers
  // (only then does the send fan out redundantly).
  world.engine().run_for(duration::seconds(6));
  ASSERT_EQ(g1.known_routers(), 2u);
  int count = 0;
  g2.set_handler([&](const std::string&, Bytes) { ++count; });
  for (int i = 0; i < 5; ++i) g1.send(to_bytes("x"));
  world.engine().run();
  EXPECT_EQ(count, 5);  // exactly once each, despite multi-router fanout
  EXPECT_GT(g2.stats().duplicates_dropped + g1.stats().duplicates_dropped, 0u);
}

// ---- console + HTTP gateway ----

TEST_F(CoreFixture, ConsoleQueriesProcessState) {
  auto alice = make_process("hostA", "alice");
  auto console_proc = make_process("hostC", "console");
  Console console(*console_proc);
  Result<std::string> state(Errc::state_error, "unset");
  console.process_state(alice->urn(), [&](Result<std::string> r) { state = r; });
  world.engine().run();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state.value(), "running");
}

TEST_F(CoreFixture, ConsoleCommandInterpreter) {
  auto alice = make_process("hostA", "alice");
  auto console_proc = make_process("hostC", "console");
  Console console(*console_proc);

  auto run_command = [&](const std::string& line) {
    std::string out;
    console.interpret(line, [&](std::string reply) { out = std::move(reply); });
    world.engine().run();
    return out;
  };

  EXPECT_EQ(run_command("state " + alice->urn()), alice->urn() + ": running");
  EXPECT_EQ(run_command("where " + alice->urn()), alice->urn() + " is on hostA");
  EXPECT_NE(run_command("meta " + alice->urn()).find("proc:host = hostA"),
            std::string::npos);
  EXPECT_NE(run_command("state urn:snipe:proc:ghost").find("not_found"),
            std::string::npos);
  EXPECT_NE(run_command("bogus"), "");  // usage text
  EXPECT_NE(run_command(""), "");

  // `routers` against a live group.
  MulticastGroup group(*alice, snipe::group_urn("console-test"));
  world.engine().run();
  EXPECT_NE(run_command("routers " + snipe::group_urn("console-test"))
                .find(rcds::names::kGroupRouter),
            std::string::npos);
}

TEST_F(CoreFixture, HttpGatewayFollowsMigratingServer) {
  // §3.7: "allowing a web browser to find it even though it may migrate
  // from one host to another".
  auto server_proc = make_process("hostA", "webserver");
  HttpServer server(*server_proc, "http://status.utk.edu/", [&](const HttpRequest& req) {
    HttpResponse res;
    res.status = 200;
    res.body = to_bytes("host=" + server_proc->host().name() + " path=" + req.path);
    return res;
  });
  auto browser_proc = make_process("hostB", "browser");
  HttpGateway gateway(*browser_proc);
  world.engine().run();

  auto fetch = [&](const std::string& path) {
    Result<HttpResponse> out(Errc::state_error, "unset");
    HttpRequest req;
    req.path = path;
    gateway.request("http://status.utk.edu/", req,
                    [&](Result<HttpResponse> r) { out = r; });
    world.engine().run();
    return out;
  };

  auto first = fetch("/a");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(to_string(first.value().body), "host=hostA path=/a");

  // Migrate the server; let the relay grace period fully expire so the
  // gateway is forced through RC re-resolution.
  server_proc->migrate_to(*world.host("hostC"), nullptr);
  world.engine().run_for(duration::seconds(15));

  auto second = fetch("/b");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(to_string(second.value().body), "host=hostC path=/b");
}

TEST_F(CoreFixture, ConsoleListsProcessesStartedByDaemon) {
  // The §3.7 "processes ... initiated by the SNIPE daemon on any
  // particular host" query, against a real daemon.
  daemon::DaemonConfig dcfg;
  dcfg.playground.require_signature = false;
  daemon::SnipeDaemon d(*world.host("hostB"), replicas(), daemon::SnipeDaemon::kDefaultPort,
                        dcfg);
  d.register_program("noop", [&](const daemon::SpawnRequest&, daemon::TaskHandle& h)
                                 -> Result<std::unique_ptr<daemon::ManagedTask>> {
    class Noop final : public daemon::ManagedTask {
     public:
      explicit Noop(daemon::TaskHandle& handle) : handle_(handle) {}
      void start() override { handle_.exited(0); }
      void kill() override {}

     private:
      daemon::TaskHandle& handle_;
    };
    return std::unique_ptr<daemon::ManagedTask>(new Noop(h));
  });
  world.engine().run();

  auto console_proc = make_process("hostC", "console2");
  daemon::SpawnRequest req;
  req.program = "noop";
  req.name = "listed-task";
  bool spawned = false;
  console_proc->spawn_via_host("hostB", req,
                               [&](Result<daemon::SpawnReply> r) { spawned = r.ok(); });
  world.engine().run();
  ASSERT_TRUE(spawned);

  Console console(*console_proc);
  Result<std::vector<std::string>> tasks(Errc::state_error, "unset");
  console.processes_on_host(d.host_url(),
                            [&](Result<std::vector<std::string>> r) { tasks = r; });
  world.engine().run();
  ASSERT_TRUE(tasks.ok());
  ASSERT_EQ(tasks.value().size(), 1u);
  EXPECT_EQ(tasks.value()[0], "urn:snipe:proc:listed-task");
}

// ---- observability reports (free functions over synthetic inputs) ----------

TEST(ConsoleReports, HealthReportOnEmptySnapshotSaysSo) {
  EXPECT_EQ(health_report({}), "(no health data)");
}

TEST(ConsoleReports, HealthReportRollsUpLatencyRetransmitsAndFailovers) {
  obs::Snapshot snap;
  obs::MetricValue lat;
  lat.kind = obs::MetricValue::Kind::histogram;
  lat.name = "srudp.delivery_ms";
  lat.count = 10;
  lat.p50 = 1.5;
  lat.p95 = 4;
  lat.p99 = 9;
  snap.push_back(lat);
  auto counter = [&](const std::string& name, double v) {
    obs::MetricValue m;
    m.name = name;
    m.value = v;
    snap.push_back(m);
  };
  counter("srudp.fragments_sent", 200);
  counter("srudp.fragments_retransmitted", 20);
  counter("stream.segments_sent", 0);  // idle transport: no ratio line
  counter("multipath.route_switches", 4);

  std::string out = health_report(snap);
  EXPECT_NE(out.find("srudp delivery_ms p50=1.500 p95=4.000 p99=9.000 n=10"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("srudp retransmit_ratio 0.100"), std::string::npos) << out;
  EXPECT_EQ(out.find("stream retransmit_ratio"), std::string::npos) << out;
  EXPECT_NE(out.find("route_failovers 4"), std::string::npos) << out;
}

TEST(ConsoleReports, TraceReportResolvesFlowIdsAndMsgIds) {
  std::vector<obs::TraceEvent> events;
  auto add = [&](obs::TraceEvent::Phase phase, const std::string& name,
                 std::uint64_t id, obs::Tracer::Args args = {}) {
    obs::TraceEvent e;
    e.phase = phase;
    e.cat = "flow";
    e.name = name;
    e.id = id;
    e.args = std::move(args);
    events.push_back(std::move(e));
  };
  add(obs::TraceEvent::Phase::flow_start, "srudp.send", 0x123, {{"msg", "7"}});
  add(obs::TraceEvent::Phase::flow_step, "srudp.tx", 0x123);
  add(obs::TraceEvent::Phase::flow_end, "srudp.deliver", 0x123);
  add(obs::TraceEvent::Phase::flow_start, "srudp.send", 0x456, {{"msg", "8"}});

  std::string by_flow = trace_report(events, "0x123");
  EXPECT_NE(by_flow.find("srudp.send"), std::string::npos);
  EXPECT_NE(by_flow.find("srudp.tx"), std::string::npos);
  EXPECT_NE(by_flow.find("srudp.deliver"), std::string::npos);
  EXPECT_EQ(by_flow.find("0x456"), std::string::npos);

  // A message id from a log line resolves through the "msg" argument.
  std::string by_msg = trace_report(events, "7");
  EXPECT_NE(by_msg.find("flow 0x123"), std::string::npos) << by_msg;
  EXPECT_NE(by_msg.find("srudp.deliver"), std::string::npos);

  EXPECT_NE(trace_report(events, "999").find("no flow events"), std::string::npos);
  EXPECT_NE(trace_report({}, "0x123").find("no flow events"), std::string::npos);
}

// ---- console verbs over the live registries --------------------------------

TEST_F(CoreFixture, ConsoleObservabilityVerbs) {
  auto console_proc = make_process("hostC", "console");
  Console console(*console_proc);
  auto run_command = [&](const std::string& line) {
    std::string out;
    console.interpret(line, [&](std::string reply) { out = std::move(reply); });
    world.engine().run();
    return out;
  };

  // metrics: unknown prefix filters everything out.
  EXPECT_EQ(run_command("metrics zzz.no_such_prefix."), "(no metrics recorded)");
  // metrics: a prefix keeps only its own lines (the fixture's RPC traffic
  // guarantees both srudp.* and rcds.* entries exist).
  std::string filtered = run_command("metrics rcds.");
  EXPECT_NE(filtered.find("rcds."), std::string::npos);
  EXPECT_EQ(filtered.find("srudp."), std::string::npos);

  // health: the fixture's srudp traffic registered delivery histograms.
  std::string health = run_command("health");
  EXPECT_NE(health.find("srudp delivery_ms"), std::string::npos) << health;
  EXPECT_NE(health.find("retransmit_ratio"), std::string::npos) << health;

  // flight: recorded events surface, filtered by host.
  obs::FlightRecorder::global().record("hostC", "test", "console_probe", "x=1");
  EXPECT_NE(run_command("flight hostC").find("test/console_probe x=1"),
            std::string::npos);

  // trace: unknown ids say so; recorded flows print their trail and are
  // reachable both by flow id and by message id.
  EXPECT_NE(run_command("trace 0xdeadbeef").find("no flow events"), std::string::npos);
  auto& tracer = obs::Tracer::global();
  tracer.set_flow_enabled(true);
  tracer.flow(obs::TraceEvent::Phase::flow_start, "flow", "srudp.send", 0x7177,
              {{"msg", "424242"}});
  tracer.flow(obs::TraceEvent::Phase::flow_end, "flow", "srudp.deliver", 0x7177);
  tracer.set_flow_enabled(false);
  EXPECT_NE(run_command("trace 0x7177").find("srudp.deliver"), std::string::npos);
  EXPECT_NE(run_command("trace 424242").find("srudp.send"), std::string::npos);

  // topo: dumps the zone tree — the fixture's world is flat, so the header
  // counts land in the "flat networks" section with per-NIC state.
  std::string topo = run_command("topo");
  EXPECT_EQ(topo.rfind("topology:", 0), 0u) << topo;
  EXPECT_NE(topo.find("flat networks:"), std::string::npos) << topo;
  EXPECT_NE(topo.find("hostC"), std::string::npos) << topo;

  // The usage line advertises the new verbs.
  std::string usage = run_command("bogus");
  EXPECT_NE(usage.find("trace <id>"), std::string::npos);
  EXPECT_NE(usage.find("flight [host]"), std::string::npos);
  EXPECT_NE(usage.find("health"), std::string::npos);
  EXPECT_NE(usage.find("topo"), std::string::npos);
}

// ---- the ops gateway: observability over SNIPE's own HTTP machinery --------

TEST_F(CoreFixture, OpsGatewayServesMetricsHealthFlightAndTrace) {
  auto ops_proc = make_process("hostA", "ops");
  OpsGateway ops(*ops_proc, "http://ops.utk.edu/");
  auto browser_proc = make_process("hostB", "browser");
  HttpGateway gateway(*browser_proc);
  world.engine().run();

  auto fetch = [&](const std::string& path) {
    Result<HttpResponse> out(Errc::state_error, "unset");
    HttpRequest req;
    req.path = path;
    gateway.request("http://ops.utk.edu/", req,
                    [&](Result<HttpResponse> r) { out = r; });
    world.engine().run();
    return out;
  };

  auto metrics = fetch("/metrics?prefix=srudp.");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().status, 200);
  std::string body = to_string(metrics.value().body);
  EXPECT_NE(body.find("srudp."), std::string::npos);
  EXPECT_EQ(body.find("rcds."), std::string::npos);

  auto health = fetch("/health");
  ASSERT_TRUE(health.ok());
  EXPECT_NE(to_string(health.value().body).find("delivery_ms"), std::string::npos);

  obs::FlightRecorder::global().record("hostA", "test", "gateway_probe");
  auto flight = fetch("/flight?host=hostA");
  ASSERT_TRUE(flight.ok());
  EXPECT_NE(to_string(flight.value().body).find("test/gateway_probe"),
            std::string::npos);

  // /topo: the zone-tree dump over HTTP — flat fixture world, so the
  // networks land in the trailing flat section with per-NIC rows.
  auto topo = fetch("/topo");
  ASSERT_TRUE(topo.ok());
  EXPECT_EQ(topo.value().status, 200);
  std::string topo_body = to_string(topo.value().body);
  EXPECT_EQ(topo_body.rfind("topology:", 0), 0u) << topo_body;
  EXPECT_NE(topo_body.find("flat networks:"), std::string::npos) << topo_body;
  EXPECT_NE(topo_body.find("hostA"), std::string::npos) << topo_body;

  auto bad_trace = fetch("/trace");
  ASSERT_TRUE(bad_trace.ok());
  EXPECT_EQ(bad_trace.value().status, 400);

  auto missing = fetch("/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);

  // Non-GET methods are refused at the dispatcher.
  HttpRequest post;
  post.method = "POST";
  post.path = "/metrics";
  EXPECT_EQ(ops.handle(post).status, 400);

  // The HTTP/1.0 text renderer — what a real browser would be handed.
  std::string text = to_http_text(missing.value());
  EXPECT_EQ(text.rfind("HTTP/1.0 404 Not Found\r\n", 0), 0u) << text;
  EXPECT_NE(text.find("Content-Type: text/plain\r\n"), std::string::npos);
  EXPECT_NE(text.find("Content-Length: "), std::string::npos);
  EXPECT_NE(text.find("\r\n\r\nnot found: /nope"), std::string::npos);
}

TEST_F(CoreFixture, OpsGatewayParsingEdgeCasesAndFleetRoutes) {
  auto ops_proc = make_process("hostA", "ops");
  OpsGateway ops(*ops_proc, "http://ops2.utk.edu/");
  world.engine().run();

  auto get = [&](const std::string& path) {
    HttpRequest req;
    req.path = path;
    return ops.handle(req);
  };

  // "?prefix=" with an empty value is the unfiltered scrape, not an error.
  auto all = get("/metrics?prefix=");
  EXPECT_EQ(all.status, 200);
  EXPECT_NE(to_string(all.body).find("srudp."), std::string::npos);

  // Unknown host filter: 200 with the says-so text, not a 404.
  auto ghost = get("/flight?host=no-such-host");
  EXPECT_EQ(ghost.status, 200);
  EXPECT_NE(to_string(ghost.body).find("no flight events"), std::string::npos);

  // Malformed ?id=: missing and empty both yield the usage 400; a
  // non-numeric id is a legal msg-id query that matches nothing.
  EXPECT_EQ(get("/trace?id=").status, 400);
  EXPECT_EQ(get("/trace").status, 400);
  auto noflow = get("/trace?id=bogus");
  EXPECT_EQ(noflow.status, 200);
  EXPECT_NE(to_string(noflow.body).find("no flow events"), std::string::npos);

  // /fleet/* before a collector is attached: 404 saying so.
  auto unattached = get("/fleet/health");
  EXPECT_EQ(unattached.status, 404);
  EXPECT_NE(to_string(unattached.body).find("no fleet collector"), std::string::npos);

  // With a store attached the fleet surface answers from collected beacons.
  obs::FleetStore store;
  obs::TelemetryBeacon beacon;
  beacon.host = "hostX";
  beacon.seq = 1;
  beacon.ts = 1'000'000'000;
  beacon.period_ns = 1'000'000'000;
  beacon.full = true;
  beacon.counters = {{"srudp.fragments_sent", 10}};
  store.apply(beacon, beacon.ts);
  ops.set_fleet(&store);

  auto fleet_metrics = get("/fleet/metrics?prefix=srudp.");
  EXPECT_EQ(fleet_metrics.status, 200);
  EXPECT_NE(to_string(fleet_metrics.body).find("srudp.fragments_sent"),
            std::string::npos);
  auto fleet_filtered = get("/fleet/metrics?prefix=zzz.");
  EXPECT_EQ(fleet_filtered.status, 200);
  EXPECT_NE(to_string(fleet_filtered.body).find("no fleet metrics"), std::string::npos);
  auto fleet_health = get("/fleet/health");
  EXPECT_EQ(fleet_health.status, 200);
  EXPECT_NE(to_string(fleet_health.body).find("fleet hosts: 1"), std::string::npos)
      << to_string(fleet_health.body);
  // Unknown host filter and malformed ?n= degrade gracefully, not 4xx.
  auto fleet_ghost = get("/fleet/flight?host=no-such-host");
  EXPECT_EQ(fleet_ghost.status, 200);
  EXPECT_NE(to_string(fleet_ghost.body).find("no fleet flight events"),
            std::string::npos);
  EXPECT_EQ(get("/fleet/top?n=bogus").status, 200);
  EXPECT_EQ(get("/fleet/nope").status, 404);
}

TEST_F(CoreFixture, ConsoleFleetVerbs) {
  auto console_proc = make_process("hostC", "console");
  Console console(*console_proc);
  auto run_command = [&](const std::string& line) {
    std::string out;
    console.interpret(line, [&](std::string reply) { out = std::move(reply); });
    world.engine().run();
    return out;
  };

  EXPECT_NE(run_command("fleet health").find("no fleet collector attached"), std::string::npos);

  obs::FleetStore store;
  obs::TelemetryBeacon beacon;
  beacon.host = "hostX";
  beacon.seq = 1;
  beacon.ts = 2'000'000'000;
  beacon.period_ns = 1'000'000'000;
  beacon.full = true;
  beacon.counters = {{"srudp.fragments_sent", 8}, {"srudp.fragments_retransmitted", 2}};
  store.apply(beacon, beacon.ts);
  console.set_fleet(&store);

  EXPECT_NE(run_command("fleet metrics srudp.").find("srudp.fragments_sent"),
            std::string::npos);
  EXPECT_NE(run_command("fleet health").find("fleet hosts: 1"), std::string::npos);
  EXPECT_NE(run_command("fleet flight").find("fleet flight empty"), std::string::npos);
  EXPECT_NE(run_command("fleet top").find("retransmit_ratio"), std::string::npos);
  EXPECT_NE(run_command("fleet bogus").find("usage"), std::string::npos);
  EXPECT_NE(run_command("bogus").find("fleet <sub>"), std::string::npos);
}

// ---- watchtower surfaces: series/alerts verbs + gateway endpoints ----------

TEST_F(CoreFixture, ConsoleAndGatewayWatchtowerSurfaces) {
  auto console_proc = make_process("hostC", "console");
  Console console(*console_proc);
  auto run_command = [&](const std::string& line) {
    std::string out;
    console.interpret(line, [&](std::string reply) { out = std::move(reply); });
    world.engine().run();
    return out;
  };

  // Unattached, the verbs say so instead of going silent.
  EXPECT_NE(run_command("series").find("no watchtower"), std::string::npos);
  EXPECT_NE(run_command("alerts").find("no watchtower"), std::string::npos);

  // A store with history plus an engine holding one tripped rule.
  obs::SeriesStore series;
  series.record("srudp.fragments_sent", 1'000'000'000, 4);
  series.record("srudp.fragments_sent", 2'000'000'000, 9);
  series.record("link.lan.hostC.busy_ns", 1'000'000'000, 0);
  series.record("link.lan.hostC.busy_ns", 2'000'000'000, 5e8);
  obs::AlertEngine alerts;
  obs::AlertRule rule;
  rule.name = "probe_rule";
  rule.kind = obs::AlertKind::threshold;
  rule.metric = "srudp.fragments_sent";
  rule.threshold = 5;
  alerts.add_rule(rule);
  alerts.evaluate(series, 2'000'000'000);
  console.set_watch(&series, &alerts);

  std::string series_out = run_command("series srudp.");
  EXPECT_NE(series_out.find("srudp.fragments_sent"), std::string::npos) << series_out;
  EXPECT_EQ(series_out.find("link."), std::string::npos) << series_out;  // prefix filter
  std::string alerts_out = run_command("alerts");
  EXPECT_NE(alerts_out.find("probe_rule"), std::string::npos) << alerts_out;

  // topo flips to windowed utilization (the "w" suffix) for the NICs the
  // attached store holds busy-time history for.
  EXPECT_NE(run_command("topo").find("%w"), std::string::npos);

  // The gateway serves the same surfaces: 404 until attached, 200 after.
  auto ops_proc = make_process("hostA", "ops");
  OpsGateway ops(*ops_proc, "http://watch.utk.edu/");
  world.engine().run();
  auto get = [&](const std::string& path) {
    HttpRequest req;
    req.path = path;
    return ops.handle(req);
  };
  EXPECT_EQ(get("/series").status, 404);
  EXPECT_EQ(get("/alerts").status, 404);
  ops.set_watch(&series, &alerts);
  auto series_http = get("/series?prefix=srudp.");
  EXPECT_EQ(series_http.status, 200);
  EXPECT_NE(to_string(series_http.body).find("srudp.fragments_sent"), std::string::npos);
  auto alerts_http = get("/alerts");
  EXPECT_EQ(alerts_http.status, 200);
  EXPECT_NE(to_string(alerts_http.body).find("probe_rule"), std::string::npos);

  // Fleet side: /fleet/series answers from the collector store's shipped
  // points; /fleet/alerts additionally needs the fleet watch.
  obs::FleetStore store;
  obs::TelemetryBeacon beacon;
  beacon.host = "hostX";
  beacon.seq = 1;
  beacon.ts = 2'000'000'000;
  beacon.period_ns = 1'000'000'000;
  beacon.full = true;
  beacon.series = {{"srudp.rto_events", {{1'000'000'000, 1.0}}}};
  store.apply(beacon, beacon.ts);
  ops.set_fleet(&store);
  auto fleet_series = get("/fleet/series?host=hostX");
  EXPECT_EQ(fleet_series.status, 200);
  EXPECT_NE(to_string(fleet_series.body).find("srudp.rto_events"), std::string::npos);
  EXPECT_EQ(get("/fleet/alerts").status, 404);
  obs::FleetWatch fleet_watch(store);
  fleet_watch.evaluate(2'000'000'000);
  ops.set_fleet_watch(&fleet_watch);
  auto fleet_alerts = get("/fleet/alerts");
  EXPECT_EQ(fleet_alerts.status, 200);
  EXPECT_NE(to_string(fleet_alerts.body).find("hostX"), std::string::npos);

  // Console fleet verbs mirror the endpoints.
  console.set_fleet(&store);
  console.set_fleet_watch(&fleet_watch);
  EXPECT_NE(run_command("fleet series hostX").find("srudp.rto_events"),
            std::string::npos);
  EXPECT_NE(run_command("fleet alerts").find("hostX"), std::string::npos);
}

// ---- one view table: the console line and the gateway GET agree -----------

TEST_F(CoreFixture, ConsoleAndGatewayViewsAgree) {
  auto console_proc = make_process("hostC", "console");
  Console console(*console_proc);
  auto ops_proc = make_process("hostA", "ops");
  OpsGateway ops(*ops_proc, "http://parity.utk.edu/");
  world.engine().run();
  // Give the windowed topo view history older than its shortest window.
  world.engine().run_for(duration::seconds(10));
  const SimTime now = world.now();

  auto say = [&](const std::string& line) {
    std::string out;
    console.interpret(line, [&](std::string reply) { out = std::move(reply); });
    world.engine().run();
    return out;
  };
  auto get = [&](const std::string& target) {
    HttpRequest req;
    req.path = target;
    return ops.handle(req);
  };
  auto chomp = [](std::string s) {
    if (!s.empty() && s.back() == '\n') s.pop_back();
    return s;
  };

  obs::FlightRecorder::global().record("hostC", "test", "parity_probe");
  auto& tracer = obs::Tracer::global();
  tracer.set_flow_enabled(true);
  tracer.flow(obs::TraceEvent::Phase::flow_start, "flow", "srudp.send", 0x9a17,
              {{"msg", "9191"}});
  tracer.set_flow_enabled(false);

  struct Case {
    std::string line, target;
    bool needs_attachment;
  };
  const std::vector<Case> cases = {
      {"metrics rcds.", "/metrics?prefix=rcds.", false},
      {"metrics zzz.", "/metrics?prefix=zzz.", false},
      {"trace 0x9a17", "/trace?id=0x9a17", false},
      {"trace 9191", "/trace?id=9191", false},
      {"flight hostC", "/flight?host=hostC", false},
      {"health", "/health", false},
      {"topo", "/topo", false},
      {"topo 5", "/topo?window_s=5", false},
      {"series srudp.", "/series?prefix=srudp.", true},
      {"alerts", "/alerts", true},
      {"fleet metrics srudp.", "/fleet/metrics?prefix=srudp.", true},
      {"fleet health", "/fleet/health", true},
      {"fleet flight", "/fleet/flight", true},
      {"fleet top 1", "/fleet/top?n=1", true},
      {"fleet series hostX", "/fleet/series?host=hostX", true},
      {"fleet series hostX zzz.", "/fleet/series?host=hostX&prefix=zzz.", true},
      {"fleet alerts", "/fleet/alerts", true},
  };
  auto check_all = [&](bool attached) {
    for (const auto& c : cases) {
      auto res = get(c.target);
      EXPECT_EQ(res.status, c.needs_attachment && !attached ? 404 : 200) << c.target;
      EXPECT_EQ(chomp(say(c.line)), chomp(to_string(res.body)))
          << c.line << " vs " << c.target << (attached ? " (attached)" : " (unattached)");
    }
  };
  check_all(false);

  obs::SeriesStore series;
  series.record("srudp.fragments_sent", now - duration::seconds(2), 3);
  series.record("link.lan.hostC.busy_ns", now - duration::seconds(8), 0);
  series.record("link.lan.hostC.busy_ns", now - duration::seconds(3), 1e8);
  series.record("link.lan.hostC.busy_ns", now, 5e8);
  obs::AlertEngine alerts;
  obs::FleetStore store;
  obs::TelemetryBeacon beacon;
  beacon.host = "hostX";
  beacon.seq = 1;
  beacon.ts = now;
  beacon.period_ns = 1'000'000'000;
  beacon.full = true;
  beacon.counters = {{"srudp.fragments_sent", 8}, {"srudp.fragments_retransmitted", 2}};
  beacon.series = {{"srudp.rto_events", {{now - duration::seconds(1), 1.0}}}};
  store.apply(beacon, beacon.ts);
  obs::FleetWatch fleet_watch(store);
  fleet_watch.evaluate(now);
  console.set_watch(&series, &alerts);
  console.set_fleet(&store);
  console.set_fleet_watch(&fleet_watch);
  ops.set_watch(&series, &alerts);
  ops.set_fleet(&store);
  ops.set_fleet_watch(&fleet_watch);
  check_all(true);

  // The cases that used to drift apart: the console honours the fleet
  // series prefix and the topo window just like the gateway.
  EXPECT_EQ(say("fleet series hostX zzz.").find("srudp.rto_events"), std::string::npos);
  EXPECT_NE(say("fleet series hostX").find("srudp.rto_events"), std::string::npos);
  EXPECT_NE(say("topo 5"), say("topo"));

  // A missing required param: the view's usage on the console, 400 over HTTP.
  EXPECT_EQ(say("trace").rfind("usage: trace <id>", 0), 0u) << say("trace");
  EXPECT_EQ(get("/trace").status, 400);
  EXPECT_EQ(get("/trace?id=").status, 400);
}

}  // namespace
}  // namespace snipe::core
