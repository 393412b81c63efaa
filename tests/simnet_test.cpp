// Unit tests for snipe_simnet: event engine determinism, media timing,
// route selection (§5.3), failure injection, loss, and broadcast.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "obs/trace.hpp"
#include "simnet/engine.hpp"
#include "simnet/fault.hpp"
#include "simnet/media.hpp"
#include "simnet/world.hpp"

namespace snipe::simnet {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule(duration::milliseconds(30), [&] { order.push_back(3); });
  engine.schedule(duration::milliseconds(10), [&] { order.push_back(1); });
  engine.schedule(duration::milliseconds(20), [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), duration::milliseconds(30));
}

TEST(Engine, EqualTimesFireInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    engine.schedule(duration::seconds(1), [&order, i] { order.push_back(i); });
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool fired = false;
  auto id = engine.schedule(duration::seconds(1), [&] { fired = true; });
  engine.cancel(id);
  engine.run();
  EXPECT_FALSE(fired);
  engine.cancel(id);       // double-cancel is a no-op
  engine.cancel(TimerId{});  // null cancel is a no-op
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine engine;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) engine.schedule(duration::seconds(1), tick);
  };
  engine.schedule(0, tick);
  engine.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(engine.now(), duration::seconds(4));
}

TEST(Engine, RunUntilAdvancesClockExactly) {
  Engine engine;
  bool fired = false;
  engine.schedule(duration::seconds(10), [&] { fired = true; });
  engine.run_until(duration::seconds(5));
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.now(), duration::seconds(5));
  engine.run_until(duration::seconds(10));
  EXPECT_TRUE(fired);
}

TEST(Engine, WeakEventsDoNotKeepRunAlive) {
  Engine engine;
  int weak_fires = 0;
  // A self-rescheduling housekeeping tick, like anti-entropy or polling.
  std::function<void()> tick = [&] {
    ++weak_fires;
    engine.schedule_weak(duration::seconds(1), tick);
  };
  engine.schedule_weak(duration::seconds(1), tick);
  bool strong_fired = false;
  engine.schedule(duration::milliseconds(2500), [&] { strong_fired = true; });

  engine.run();
  EXPECT_TRUE(strong_fired);
  // The weak ticks at 1 s and 2 s ran (they precede the strong event); the
  // one at 3 s did not — run() stopped when only housekeeping remained.
  EXPECT_EQ(weak_fires, 2);
  EXPECT_EQ(engine.now(), duration::milliseconds(2500));
}

TEST(Engine, RunUntilExecutesWeakEvents) {
  Engine engine;
  int weak_fires = 0;
  std::function<void()> tick = [&] {
    ++weak_fires;
    engine.schedule_weak(duration::seconds(1), tick);
  };
  engine.schedule_weak(duration::seconds(1), tick);
  engine.run_until(duration::milliseconds(3500));
  EXPECT_EQ(weak_fires, 3);
}

TEST(Engine, WeakEventCanSpawnStrongWork) {
  Engine engine;
  bool strong_done = false;
  engine.schedule_weak(duration::seconds(1), [&] {
    engine.schedule(duration::milliseconds(100), [&] { strong_done = true; });
  });
  // Nothing strong pending yet: run() stops immediately...
  engine.run();
  EXPECT_FALSE(strong_done);
  // ...but run_until executes the tick, whose strong child then also runs.
  engine.run_until(duration::seconds(1));
  engine.run();
  EXPECT_TRUE(strong_done);
}

TEST(Engine, CancelWeakTimer) {
  Engine engine;
  bool fired = false;
  auto id = engine.schedule_weak(duration::seconds(1), [&] { fired = true; });
  engine.cancel(id);
  engine.run_until(duration::seconds(2));
  EXPECT_FALSE(fired);
}

TEST(Engine, RunHonoursEventBudget) {
  Engine engine;
  int count = 0;
  for (int i = 0; i < 10; ++i) engine.schedule(i, [&] { ++count; });
  EXPECT_EQ(engine.run(3), 3u);
  EXPECT_EQ(count, 3);
}

TEST(Engine, CancelFromInsideARunningEvent) {
  // The retransmit-ack pattern: the event that fires cancels a sibling
  // scheduled for the same tick and its own (already-fired) id.
  Engine engine;
  bool sibling_fired = false;
  TimerId self, sibling;
  self = engine.schedule(duration::seconds(1), [&] {
    engine.cancel(sibling);  // pending sibling: destroyed, never fires
    engine.cancel(self);     // own id already fired: no-op
  });
  sibling = engine.schedule(duration::seconds(1), [&] { sibling_fired = true; });
  engine.run();
  EXPECT_FALSE(sibling_fired);
  EXPECT_EQ(engine.events_run(), 1u);
}

TEST(Engine, CancelAfterFireIsANoOpEvenWhenSlotIsReused) {
  Engine engine;
  bool first = false, second = false;
  TimerId id = engine.schedule(duration::seconds(1), [&] { first = true; });
  engine.run();
  EXPECT_TRUE(first);
  // The new event recycles the fired event's slot; the stale id carries the
  // old generation and must not be able to cancel the newcomer.
  TimerId fresh = engine.schedule(duration::seconds(1), [&] { second = true; });
  EXPECT_EQ(fresh.slot, id.slot);
  engine.cancel(id);
  engine.run();
  EXPECT_TRUE(second);
}

TEST(Engine, TenThousandEqualTimeEventsFireInScheduleOrder) {
  Engine engine;
  const int kEvents = 10'000;
  std::vector<int> order;
  order.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i)
    engine.schedule(duration::seconds(1), [&order, i] { order.push_back(i); });
  engine.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) ASSERT_EQ(order[i], i);
  EXPECT_EQ(engine.now(), duration::seconds(1));
}

TEST(Engine, RunTerminatesWhenOnlyWeakEventsRemain) {
  // A self-rescheduling weak tick (the housekeeping pattern) must not keep
  // run() spinning once the last strong event has fired.
  Engine engine;
  int ticks = 0, strong = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    engine.schedule_weak(duration::seconds(1), tick);
  };
  engine.schedule_weak(duration::seconds(1), tick);
  engine.schedule(duration::milliseconds(1500), [&] { ++strong; });
  engine.run();
  EXPECT_EQ(strong, 1);
  // The weak tick at t=1s ran (it preceded the strong event); the one it
  // re-armed for t=2s must not.
  EXPECT_EQ(ticks, 1);
  EXPECT_EQ(engine.now(), duration::milliseconds(1500));
}

TEST(Engine, ClearReleasesEventOwnedResources) {
  Engine engine;
  auto resource = std::make_shared<int>(7);
  std::weak_ptr<int> watch = resource;
  engine.schedule(duration::seconds(5), [keep = std::move(resource)] { (void)*keep; });
  EXPECT_FALSE(watch.expired());
  engine.clear();
  EXPECT_TRUE(watch.expired());  // destroyed without running
  EXPECT_EQ(engine.run(), 0u);
}

TEST(Engine, CancelWithPreClearTimerIdIsSafeAfterClear) {
  Engine engine;
  TimerId stale = engine.schedule(duration::seconds(1), [] {});
  engine.clear();
  bool fired = false;
  // Post-clear event may land in the same slot; the stale id must not hit it.
  engine.schedule(duration::seconds(1), [&] { fired = true; });
  engine.cancel(stale);
  engine.run();
  EXPECT_TRUE(fired);
}

TEST(Media, SerializeTimeScalesWithSize) {
  auto eth = ethernet100();
  // 1500 bytes + 66 overhead at 100 Mb/s = 125.28 us
  EXPECT_NEAR(to_seconds(eth.serialize_time(1500)), 125.28e-6, 1e-7);
  // ATM pays the cell tax.
  auto atm = atm155();
  double atm_goodput = 149.76e6 * (1.0 - 5.0 / 53.0);
  EXPECT_NEAR(to_seconds(atm.serialize_time(9000)),
              (9000 + 36) * 8.0 / atm_goodput, 1e-7);
}

TEST(Media, ModelsAreOrderedAsExpected) {
  // Effective point-to-point large-message rate: myrinet > atm155 > eth100 > wan.
  auto rate = [](const MediaModel& m) {
    return 8192.0 / to_seconds(m.serialize_time(8192));
  };
  EXPECT_GT(rate(myrinet()), rate(atm155()));
  EXPECT_GT(rate(atm155()), rate(ethernet100()));
  EXPECT_GT(rate(ethernet100()), rate(wan_t3()));
}

class WorldTest : public ::testing::Test {
 protected:
  WorldTest() : world(42) {
    world.create_network("lan", ethernet100());
    auto& a = world.create_host("a");
    auto& b = world.create_host("b");
    world.attach(a, *world.network("lan"));
    world.attach(b, *world.network("lan"));
  }
  World world;
};

TEST_F(WorldTest, DatagramDelivery) {
  std::vector<Packet> received;
  world.host("b")->bind(5000, [&](const Packet& p) { received.push_back(p); }).value();
  world.host("a")->send({"b", 5000}, to_bytes("hello")).value();
  world.engine().run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(to_string(received[0].payload), "hello");
  EXPECT_EQ(received[0].src.host, "a");
  EXPECT_EQ(received[0].network, "lan");
}

TEST_F(WorldTest, DeliveryTimeMatchesMediaModel) {
  SimTime arrival = -1;
  world.host("b")->bind(5000, [&](const Packet&) { arrival = world.now(); }).value();
  world.host("a")->send({"b", 5000}, Bytes(1000, 0)).value();
  world.engine().run();
  auto eth = ethernet100();
  EXPECT_EQ(arrival, eth.serialize_time(1000) + eth.latency);
}

TEST_F(WorldTest, BackToBackSendsQueueOnTheNic) {
  std::vector<SimTime> arrivals;
  world.host("b")->bind(5000, [&](const Packet&) { arrivals.push_back(world.now()); }).value();
  world.host("a")->send({"b", 5000}, Bytes(1000, 0)).value();
  world.host("a")->send({"b", 5000}, Bytes(1000, 0)).value();
  world.engine().run();
  ASSERT_EQ(arrivals.size(), 2u);
  auto eth = ethernet100();
  // Second packet waits for the first to finish serializing.
  EXPECT_EQ(arrivals[1] - arrivals[0], eth.serialize_time(1000));
}

TEST_F(WorldTest, OversizeDatagramRejected) {
  auto r = world.host("a")->send({"b", 5000}, Bytes(2000, 0));
  EXPECT_EQ(r.code(), Errc::invalid_argument);
}

TEST_F(WorldTest, UnknownHostAndNoSharedNetwork) {
  EXPECT_EQ(world.host("a")->send({"ghost", 1}, Bytes{1}).code(), Errc::not_found);
  world.create_host("island");
  EXPECT_EQ(world.host("a")->send({"island", 1}, Bytes{1}).code(), Errc::unreachable);
}

TEST_F(WorldTest, UnboundPortCountsAsDrop) {
  world.host("a")->send({"b", 9999}, Bytes{1}).value();
  world.engine().run();
  EXPECT_EQ(world.network("lan")->stats().drops_unbound, 1u);
}

TEST_F(WorldTest, BindConflictAndUnbind) {
  auto h = [](const Packet&) {};
  world.host("b")->bind(5000, h).value();
  EXPECT_EQ(world.host("b")->bind(5000, h).code(), Errc::already_exists);
  world.host("b")->unbind(5000);
  EXPECT_TRUE(world.host("b")->bind(5000, h).ok());
}

TEST_F(WorldTest, EphemeralPortsDistinct) {
  auto* a = world.host("a");
  auto p1 = a->ephemeral_port();
  a->bind(p1, [](const Packet&) {}).value();
  auto p2 = a->ephemeral_port();
  EXPECT_NE(p1, p2);
  EXPECT_GE(p1, 49152);
}

TEST_F(WorldTest, DownHostDropsAtDelivery) {
  int received = 0;
  world.host("b")->bind(5000, [&](const Packet&) { ++received; }).value();
  world.host("a")->send({"b", 5000}, Bytes{1}).value();
  world.host("b")->set_up(false);  // dies while the packet is in flight
  world.engine().run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(world.network("lan")->stats().drops_down, 1u);

  // Host comes back: bindings survived the reboot.
  world.host("b")->set_up(true);
  world.host("a")->send({"b", 5000}, Bytes{1}).value();
  world.engine().run();
  EXPECT_EQ(received, 1);
}

TEST_F(WorldTest, DownSenderCannotSend) {
  world.host("a")->set_up(false);
  EXPECT_EQ(world.host("a")->send({"b", 5000}, Bytes{1}).code(), Errc::unreachable);
}

TEST_F(WorldTest, NetworkDownMakesUnreachable) {
  world.network("lan")->set_up(false);
  EXPECT_EQ(world.host("a")->send({"b", 5000}, Bytes{1}).code(), Errc::unreachable);
}

TEST(World, FastestSharedNetworkChosen) {
  // §5.3: dual-homed hosts use the fastest common network.
  World world(1);
  world.create_network("eth", ethernet100());
  world.create_network("atm", atm155());
  auto& a = world.create_host("a");
  auto& b = world.create_host("b");
  world.attach(a, *world.network("eth"));
  world.attach(a, *world.network("atm"));
  world.attach(b, *world.network("eth"));
  world.attach(b, *world.network("atm"));

  EXPECT_EQ(a.send({"b", 1}, Bytes(100, 0)).value(), "atm");

  // Preferred network overrides the speed ranking.
  SendOptions opts;
  opts.preferred_network = "eth";
  EXPECT_EQ(a.send({"b", 1}, Bytes(100, 0), opts).value(), "eth");

  // ATM NIC failure falls back to Ethernet (§6 route switching).
  a.nic_on("atm")->set_up(false);
  EXPECT_EQ(a.send({"b", 1}, Bytes(100, 0)).value(), "eth");
}

TEST(World, LossRateIsRespected) {
  World world(7);
  auto& net = world.create_network("lossy", internet_lossy());
  net.set_extra_loss(0.19);  // total 20%
  auto& a = world.create_host("a");
  auto& b = world.create_host("b");
  world.attach(a, net);
  world.attach(b, net);
  int received = 0;
  b.bind(1, [&](const Packet&) { ++received; }).value();
  const int n = 5000;
  for (int i = 0; i < n; ++i) a.send({"b", 1}, Bytes{1}).value();
  world.engine().run();
  EXPECT_NEAR(static_cast<double>(received) / n, 0.80, 0.03);
  EXPECT_EQ(net.stats().drops_loss + net.stats().packets_delivered,
            static_cast<std::uint64_t>(n));
}

TEST(World, BroadcastReachesAllOthers) {
  World world(3);
  auto& net = world.create_network("seg", ethernet100());
  for (const char* name : {"a", "b", "c", "d"})
    world.attach(world.create_host(name), net);
  int got_b = 0, got_c = 0, got_d = 0, got_a = 0;
  world.host("a")->bind(9, [&](const Packet&) { ++got_a; }).value();
  world.host("b")->bind(9, [&](const Packet&) { ++got_b; }).value();
  world.host("c")->bind(9, [&](const Packet&) { ++got_c; }).value();
  world.host("d")->bind(9, [&](const Packet&) { ++got_d; }).value();
  world.host("a")->broadcast("seg", 9, to_bytes("all")).value();
  world.engine().run();
  EXPECT_EQ(got_a, 0);  // sender does not hear itself
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_c, 1);
  EXPECT_EQ(got_d, 1);
}

TEST(World, DeterministicAcrossRuns) {
  auto run_once = [] {
    World world(1234);
    auto& net = world.create_network("n", internet_lossy());
    auto& a = world.create_host("a");
    auto& b = world.create_host("b");
    world.attach(a, net);
    world.attach(b, net);
    std::vector<SimTime> arrivals;
    b.bind(1, [&](const Packet&) { arrivals.push_back(world.now()); }).value();
    for (int i = 0; i < 200; ++i) a.send({"b", 1}, Bytes(100, 0)).value();
    world.engine().run();
    return arrivals;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---- Fault injection: FaultInjector unit behaviour ----

TEST(Fault, GilbertElliottEmpiricalLossNearStationaryMean) {
  FaultProfile profile;
  profile.burst = {0.05, 0.25, 0.01, 0.9};
  FaultInjector inj(profile, Rng(99));
  const int n = 20000;
  int dropped = 0;
  for (int i = 0; i < n; ++i)
    if (inj.judge("a", "a", "b").drop) ++dropped;
  EXPECT_NEAR(static_cast<double>(dropped) / n, profile.burst.mean_loss(), 0.03);
  EXPECT_EQ(inj.stats().packets_judged, static_cast<std::uint64_t>(n));
  EXPECT_EQ(inj.stats().drops_burst, static_cast<std::uint64_t>(dropped));
}

TEST(Fault, PartitionBlocksAcrossGroupsOnly) {
  FaultInjector inj(FaultProfile{}, Rng(1));
  inj.set_partition({{"a", "b"}, {"c"}});
  EXPECT_TRUE(inj.partition_active());
  EXPECT_FALSE(inj.partitioned("a", "b"));  // same group
  EXPECT_TRUE(inj.partitioned("a", "c"));   // across groups
  EXPECT_TRUE(inj.judge("a", "a", "c").drop);
  EXPECT_EQ(inj.stats().drops_partition, 1u);
  // Unnamed hosts share an implicit group: together, but cut off from all
  // named groups.
  EXPECT_FALSE(inj.partitioned("x", "y"));
  EXPECT_TRUE(inj.partitioned("x", "a"));
  EXPECT_TRUE(inj.partitioned("c", "y"));
  inj.heal_partition();
  EXPECT_FALSE(inj.partition_active());
  EXPECT_FALSE(inj.partitioned("a", "c"));
  EXPECT_FALSE(inj.judge("a", "a", "c").drop);
}

TEST(Fault, CorruptPayloadFlipsBoundedBytesAndSkipsEmpty) {
  FaultProfile profile;
  profile.corrupt_max_bytes = 3;
  FaultInjector inj(profile, Rng(5));
  Bytes empty;
  inj.corrupt_payload(empty, "");  // must not crash or grow
  EXPECT_TRUE(empty.empty());
  for (int trial = 0; trial < 50; ++trial) {
    Bytes wire(64, 0xAB);
    inj.corrupt_payload(wire, "");
    ASSERT_EQ(wire.size(), 64u);
    int flipped = 0;
    for (auto b : wire)
      if (b != 0xAB) ++flipped;
    EXPECT_GE(flipped, 1) << trial;
    EXPECT_LE(flipped, 3) << trial;
  }
}

TEST(Fault, DuplicationAlwaysYieldsTwoCopiesAtProbabilityOne) {
  FaultProfile profile;
  profile.duplicate = 1.0;
  FaultInjector inj(profile, Rng(7));
  for (int i = 0; i < 20; ++i) {
    auto v = inj.judge("a", "a", "b");
    EXPECT_FALSE(v.drop);
    EXPECT_EQ(v.copies, 2);
  }
  EXPECT_EQ(inj.stats().duplicated, 20u);
}

TEST(Fault, SameSeedSameVerdictSequence) {
  FaultProfile profile;
  profile.burst = {0.1, 0.3, 0.02, 0.8};
  profile.duplicate = 0.2;
  profile.reorder = 0.3;
  profile.corrupt = 0.1;
  FaultInjector x(profile, Rng(4242)), y(profile, Rng(4242));
  for (int i = 0; i < 500; ++i) {
    auto a = x.judge("a", "a", "b");
    auto b = y.judge("a", "a", "b");
    EXPECT_EQ(a.drop, b.drop) << i;
    EXPECT_EQ(a.corrupt, b.corrupt) << i;
    EXPECT_EQ(a.copies, b.copies) << i;
    EXPECT_EQ(a.extra_delay, b.extra_delay) << i;
    EXPECT_EQ(a.dup_delay, b.dup_delay) << i;
  }
}

// ---- Fault injection: World-level integration ----

TEST(Fault, CertainLossDropsEverySentPacket) {
  World world(11);
  auto& net = world.create_network("n", ethernet100());
  auto& a = world.create_host("a");
  auto& b = world.create_host("b");
  world.attach(a, net);
  world.attach(b, net);
  FaultPlan plan(world, 77);
  FaultProfile profile;
  profile.burst.loss_good = 1.0;
  plan.inject("n", profile);
  int received = 0;
  b.bind(1, [&](const Packet&) { ++received; }).value();
  for (int i = 0; i < 50; ++i) a.send({"b", 1}, Bytes{1}).value();
  world.engine().run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats().drops_fault, 50u);
}

TEST(Fault, CertainDuplicationDeliversTwice) {
  World world(12);
  auto& net = world.create_network("n", ethernet100());
  auto& a = world.create_host("a");
  auto& b = world.create_host("b");
  world.attach(a, net);
  world.attach(b, net);
  FaultPlan plan(world, 78);
  FaultProfile profile;
  profile.duplicate = 1.0;
  plan.inject("n", profile);
  int received = 0;
  b.bind(1, [&](const Packet&) { ++received; }).value();
  for (int i = 0; i < 25; ++i) a.send({"b", 1}, Bytes{1}).value();
  world.engine().run();
  EXPECT_EQ(received, 50);
  EXPECT_EQ(net.stats().fault_duplicates, 25u);
}

TEST(Fault, PlanWindowsFireAtScheduledVirtualTimes) {
  using duration::milliseconds;
  World world(13);
  auto& net = world.create_network("n", ethernet100());
  auto& a = world.create_host("a");
  auto& b = world.create_host("b");
  world.attach(a, net);
  world.attach(b, net);
  obs::Tracer::global().clear();

  FaultPlan plan(world, 79);
  plan.crash_host("b", milliseconds(10), milliseconds(30));
  plan.partition("n", {{"a"}, {"b"}}, milliseconds(50), milliseconds(70));

  auto up_at = [&](SimTime t) {
    world.engine().run_until(t);
    return world.host("b")->up();
  };
  EXPECT_TRUE(up_at(milliseconds(5)));
  EXPECT_FALSE(up_at(milliseconds(20)));
  EXPECT_TRUE(up_at(milliseconds(40)));
  world.engine().run_until(milliseconds(60));
  ASSERT_NE(plan.injector("n"), nullptr);
  EXPECT_TRUE(plan.injector("n")->partition_active());
  world.engine().run_until(milliseconds(80));
  EXPECT_FALSE(plan.injector("n")->partition_active());

  // Each action emitted a "fault" instant at its virtual time, in order.
  std::vector<std::pair<std::int64_t, std::string>> faults;
  for (const auto& e : obs::Tracer::global().events())
    if (e.cat == "fault") faults.emplace_back(e.ts, e.name);
  ASSERT_EQ(faults.size(), 4u);
  EXPECT_EQ(faults[0], (std::pair<std::int64_t, std::string>{milliseconds(10), "host.crash"}));
  EXPECT_EQ(faults[1], (std::pair<std::int64_t, std::string>{milliseconds(30), "host.restart"}));
  EXPECT_EQ(faults[2], (std::pair<std::int64_t, std::string>{milliseconds(50), "partition.start"}));
  EXPECT_EQ(faults[3], (std::pair<std::int64_t, std::string>{milliseconds(70), "partition.heal"}));
}

// ---- Sharded engine: conservative-window primitives and the World driver ----

TEST(Engine, RunBeforeIsExclusiveAndKeepsClockAtLastEvent) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(50, [&] { order.push_back(0); });
  engine.schedule_at(100, [&] { order.push_back(1); });
  // Window [0, 100): the t=100 event is the horizon and must not run.
  EXPECT_EQ(engine.run_before(100), 1u);
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(engine.now(), 50);  // not advanced to the horizon
  EXPECT_EQ(engine.next_event_time(), 100);
  engine.run_before(101);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(engine.next_event_time(), Engine::kNever);
  engine.advance_to(500);
  EXPECT_EQ(engine.now(), 500);
}

TEST(Engine, EqualTimeFifoHoldsAcrossWindowBarrier) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(100, [&] { order.push_back(1); });
  engine.schedule_at(100, [&] { order.push_back(2); });
  engine.run_before(100);  // barrier: nothing at t < 100 to run
  // A cross-shard arrival at exactly t=100, inserted at the barrier, was
  // scheduled after the two local events and must fire after them.
  engine.schedule_at(100, [&] { order.push_back(3); });
  engine.run_before(101);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, RunBeforeCanStopAtStrongExhaustion) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_weak(10, [&] { order.push_back(0); });
  engine.schedule(20, [&] { order.push_back(1); });
  engine.schedule_weak(30, [&] { order.push_back(2); });
  // Engine::run semantics per window: weak events run while a strong event
  // is still pending, and the run stops once none are.
  EXPECT_EQ(engine.run_before(100, /*weak_too=*/false), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(engine.strong_pending(), 0u);
  EXPECT_EQ(engine.run_before(100, /*weak_too=*/true), 1u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(World, ShardedCrossShardDeliveryArrives) {
  World world(7, /*shards=*/2);
  auto& net = world.create_network("wan", wan_t3());
  auto& a = world.create_host("a", 0);
  auto& b = world.create_host("b", 1);
  world.attach(a, net);
  world.attach(b, net);
  int received = 0;
  b.bind(5, [&](const Packet&) { ++received; }).value();
  a.engine().schedule_at(duration::milliseconds(1),
                         [&] { a.send({"b", 5}, Bytes(64, 0x5A)).value(); });
  world.run_until(duration::seconds(1));
  EXPECT_EQ(received, 1);
  EXPECT_EQ(world.lookahead(), wan_t3().latency);
  EXPECT_GE(world.run_stats().cross_shard_packets, 1u);
  EXPECT_GE(world.run_stats().windows, 1u);
  EXPECT_EQ(world.now(), duration::seconds(1));
}

TEST(World, MailboxDrainOrdersEqualArrivalsBySourceShard) {
  // Two senders on different shards whose packets reach the same
  // destination at the identical virtual time: the barrier drain must
  // order them by source shard, not by which worker thread got there
  // first.  Swapping the placement must swap the delivery order.
  for (int flip = 0; flip < 2; ++flip) {
    World world(9, /*shards=*/3);
    auto& net = world.create_network("wan", wan_t3());
    auto& d = world.create_host("d", 0);
    auto& a = world.create_host("a", flip != 0 ? 2 : 1);
    auto& b = world.create_host("b", flip != 0 ? 1 : 2);
    world.attach(d, net);
    world.attach(a, net);
    world.attach(b, net);
    std::vector<std::string> order;
    d.bind(5, [&](const Packet& p) { order.push_back(p.src.host); }).value();
    a.engine().schedule_at(duration::milliseconds(1),
                           [&] { a.send({"d", 5}, Bytes(100, 1)).value(); });
    b.engine().schedule_at(duration::milliseconds(1),
                           [&] { b.send({"d", 5}, Bytes(100, 2)).value(); });
    world.run_until(duration::seconds(1));
    ASSERT_EQ(order.size(), 2u) << "flip " << flip;
    EXPECT_EQ(order[0], flip != 0 ? "b" : "a") << "lower source shard delivers first";
  }
}

TEST(World, SingleShardRunUntilMatchesEngineRunUntil) {
  auto run = [](bool via_world) {
    World world(1234);
    auto& net = world.create_network("n", internet_lossy());
    auto& a = world.create_host("a");
    auto& b = world.create_host("b");
    world.attach(a, net);
    world.attach(b, net);
    std::vector<SimTime> arrivals;
    b.bind(1, [&](const Packet&) { arrivals.push_back(world.now()); }).value();
    for (int i = 0; i < 100; ++i) a.send({"b", 1}, Bytes(100, 0)).value();
    if (via_world)
      world.run_until(duration::seconds(2));
    else
      world.engine().run_until(duration::seconds(2));
    return arrivals;
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace snipe::simnet
