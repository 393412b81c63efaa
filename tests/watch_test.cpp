// Watchtower suite (DESIGN.md §watchtower): series retention (run collapse
// + pair decimation), the alert rule state machine (pending -> firing ->
// resolved with hysteresis), collector-side FleetWatch staleness, the
// per-host Watchtower daemon wiring — and the soak scenarios: one seeded
// fault class per test (clean / partition / crashed exporter / RTO storm /
// incast / route flaps / repair churn), each required to fire exactly its
// expected alert and resolve after the heal.
//
// The soak tests run at SNIPE_SOAK_SCALE=1 in tier-1 (seconds of virtual
// time, milliseconds of wall time); `scripts/seed_sweep.sh soak` and
// `scripts/seed_sweep.sh watch` rerun them across many seeds and larger
// scales, summing the "[soak] ... virtual_s=" lines each scenario prints
// into the soak's virtual-hours accounting.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "chaos_util.hpp"
#include "daemon/telemetry.hpp"
#include "daemon/watchtower.hpp"
#include "files/fileserver.hpp"
#include "obs/alert.hpp"
#include "obs/fleet.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/series.hpp"
#include "obs/trace.hpp"
#include "rcds/server.hpp"
#include "simnet/fault.hpp"
#include "simnet/world.hpp"
#include "transport/rpc.hpp"
#include "transport/srudp.hpp"

namespace snipe {
namespace {

using simnet::Address;
using simnet::FaultPlan;
using simnet::FaultProfile;
using simnet::World;

constexpr std::int64_t kS = 1'000'000'000;  ///< one virtual second in ns

// ---- Series: run collapse, decimation, step interpolation ------------------

TEST(Series, RunCollapseKeepsFlatSeriesAtTwoPoints) {
  obs::Series s(8);
  s.append(1 * kS, 5.0);
  s.append(2 * kS, 5.0);
  ASSERT_EQ(s.size(), 2u);
  // A flat counter costs two points no matter how long it stays flat: the
  // newest point's stamp slides forward instead of the ring growing.
  for (std::int64_t t = 3; t <= 50; ++t) s.append(t * kS, 5.0);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.points().front().ts, 1 * kS);
  EXPECT_EQ(s.last_ts(), 50 * kS);
  // The run's full extent is preserved for interpolation.
  EXPECT_DOUBLE_EQ(s.value_at(30 * kS), 5.0);
  // A value change ends the run and grows the ring again.
  s.append(51 * kS, 7.0);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.last_value(), 7.0);
}

TEST(Series, StaleAppendsIgnoredEqualStampsOverwrite) {
  obs::Series s(8);
  s.append(10, 1.0);
  s.append(5, 9.0);  // stale (a resync beacon replay) — ignored
  ASSERT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.last_value(), 1.0);
  s.append(10, 2.0);  // duplicate stamp — idempotent overwrite
  ASSERT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.last_value(), 2.0);
}

TEST(Series, PairDecimationHalvesOldHistoryAndKeepsNewest) {
  obs::Series s(8);
  for (std::int64_t t = 1; t <= 9; ++t)
    s.append(t * kS, static_cast<double>(t * 10));  // distinct: no collapse
  // The 9th append overflows capacity 8; compaction keeps every other
  // point walking back from the newest, which always survives.
  ASSERT_EQ(s.size(), 5u);
  std::vector<std::int64_t> kept;
  for (const auto& p : s.points()) kept.push_back(p.ts / kS);
  EXPECT_EQ(kept, (std::vector<std::int64_t>{1, 3, 5, 7, 9}));
  // Cumulative counters survive decimation exactly: deltas between any
  // retained stamps are unchanged (the values are the original samples).
  EXPECT_DOUBLE_EQ(s.value_at(9 * kS) - s.value_at(3 * kS), 60.0);
  EXPECT_DOUBLE_EQ(s.last_value(), 90.0);
}

TEST(Series, ValueAtStepInterpolationAndWindowDelta) {
  obs::Series s(8);
  s.append(10 * kS, 100);
  s.append(20 * kS, 150);
  s.append(30 * kS, 180);
  // Before the first point the first value answers (understates early
  // rates instead of inventing a burst from an assumed zero).
  EXPECT_DOUBLE_EQ(s.value_at(5 * kS), 100);
  EXPECT_DOUBLE_EQ(s.value_at(10 * kS), 100);
  EXPECT_DOUBLE_EQ(s.value_at(15 * kS), 100);
  EXPECT_DOUBLE_EQ(s.value_at(25 * kS), 150);
  EXPECT_DOUBLE_EQ(s.value_at(99 * kS), 180);
  EXPECT_DOUBLE_EQ(s.delta(20 * kS, 30 * kS), 80);   // 180 - value_at(10s)
  EXPECT_DOUBLE_EQ(s.delta(5 * kS, 30 * kS), 30);    // 180 - value_at(25s)
  // points_since is strictly-after (the beacon cursor contract).
  EXPECT_EQ(s.points_since(20 * kS).size(), 1u);
  EXPECT_EQ(s.points_since(19 * kS).size(), 2u);
}

TEST(Series, ChangesInCountsTransitionsInsideWindowOnly) {
  obs::Series s(16);
  double values[] = {0, 1, 1, 0, 1, 0};
  for (std::int64_t t = 1; t <= 6; ++t) s.append(t * kS, values[t - 1]);
  // Transitions (newer stamp, changed value): 2s, 4s, 5s, 6s.
  EXPECT_EQ(s.changes_in(10 * kS, 6 * kS), 4u);
  // Window (3.5s, 6s]: transitions at 4s, 5s, 6s.
  EXPECT_EQ(s.changes_in(2'500'000'000, 6 * kS), 3u);
  EXPECT_EQ(s.changes_in(1, 6 * kS), 1u);  // only the 6s transition
}

// ---- SeriesStore: scrape, samplers, queries --------------------------------

TEST(SeriesStore, ScrapePullsCountersGaugesHistogramsAndSamplers) {
  obs::MetricsRegistry registry;
  registry.counter("c.events").inc(3);
  registry.gauge("g.load").set(1.5);
  registry.histogram("h.delivery_ms").observe(2.0);
  registry.histogram("h.delivery_ms").observe(4.0);

  obs::SeriesStore store;
  store.add_sampler([](std::int64_t now, obs::SeriesStore& s) {
    s.record("sampled.extra", now, 42);
  });
  store.scrape(1 * kS, &registry);
  EXPECT_DOUBLE_EQ(store.last("c.events"), 3);
  EXPECT_DOUBLE_EQ(store.last("g.load"), 1.5);
  EXPECT_DOUBLE_EQ(store.last("h.delivery_ms.count"), 2);  // histos ship counts
  EXPECT_DOUBLE_EQ(store.last("sampled.extra"), 42);
  EXPECT_EQ(store.last_ts("sampled.extra"), 1 * kS);

  registry.counter("c.events").inc(7);
  store.scrape(2 * kS, &registry);
  EXPECT_EQ(store.scrapes(), 2u);
  EXPECT_DOUBLE_EQ(store.last("c.events"), 10);
  EXPECT_DOUBLE_EQ(store.delta("c.events", 1 * kS, 2 * kS), 7);
  EXPECT_DOUBLE_EQ(store.rate_per_sec("c.events", 1 * kS, 2 * kS), 7);

  EXPECT_EQ(store.names("c.").size(), 1u);
  std::string text = store.format_text("c.");
  EXPECT_NE(text.find("c.events"), std::string::npos) << text;
  EXPECT_EQ(text.find("g.load"), std::string::npos) << text;
}

TEST(SeriesStore, UnknownSeriesAnswerZeroAndEmpty) {
  obs::SeriesStore store;
  EXPECT_FALSE(store.has("nope"));
  EXPECT_DOUBLE_EQ(store.last("nope"), 0);
  EXPECT_DOUBLE_EQ(store.delta("nope", kS, kS), 0);
  EXPECT_EQ(store.changes_in("nope", kS, kS), 0u);
  EXPECT_TRUE(store.points("nope").empty());
  EXPECT_NE(store.format_text().find("no series retained"), std::string::npos);
}

// ---- AlertEngine: the hysteresis state machine -----------------------------

TEST(Alert, ThresholdHysteresisPendingFiringResolvedLifecycle) {
  obs::FlightRecorder flight(64);
  obs::AlertEngine::Options opt;
  opt.scope = "hostA";
  opt.flight = &flight;
  obs::AlertEngine engine(opt);
  obs::AlertRule rule;
  rule.name = "hot";
  rule.kind = obs::AlertKind::threshold;
  rule.metric = "m";
  rule.threshold = 5;
  rule.for_ns = 2 * kS;    // must hold 2 s to fire
  rule.clear_ns = 3 * kS;  // must stay clear 3 s to resolve
  engine.add_rule(rule);

  obs::SeriesStore store;
  store.record("m", 1 * kS, 10);
  engine.evaluate(store, 1 * kS);
  ASSERT_EQ(engine.status().size(), 1u);
  EXPECT_EQ(engine.status()[0].state, obs::AlertState::pending);
  EXPECT_EQ(engine.fired_total(), 0u);

  engine.evaluate(store, 2 * kS);  // held 1 s < 2 s: still pending
  EXPECT_EQ(engine.status()[0].state, obs::AlertState::pending);
  engine.evaluate(store, 3 * kS);  // held 2 s: fires
  EXPECT_EQ(engine.status()[0].state, obs::AlertState::firing);
  EXPECT_EQ(engine.fired("hot"), 1u);
  EXPECT_EQ(engine.firing_count(), 1u);

  // Condition clears; the alert must stay firing through clear_ns.
  store.record("m", 4 * kS, 0);
  engine.evaluate(store, 4 * kS);
  engine.evaluate(store, 6 * kS);  // clear for 2 s < 3 s
  EXPECT_EQ(engine.status()[0].state, obs::AlertState::firing);
  engine.evaluate(store, 7 * kS);  // clear for 3 s: resolves
  EXPECT_EQ(engine.status()[0].state, obs::AlertState::idle);
  EXPECT_EQ(engine.resolved("hot"), 1u);
  EXPECT_EQ(engine.firing_count(), 0u);

  // A blip shorter than for_ns never fires: pending falls back to idle.
  store.record("m", 8 * kS, 10);
  engine.evaluate(store, 8 * kS);
  EXPECT_EQ(engine.status()[0].state, obs::AlertState::pending);
  store.record("m", 9 * kS, 0);
  engine.evaluate(store, 9 * kS);
  EXPECT_EQ(engine.status()[0].state, obs::AlertState::idle);
  EXPECT_EQ(engine.fired_total(), 1u);

  // Every transition landed in the flight recorder under "watchtower".
  int pending = 0, firing = 0, resolved = 0;
  for (const auto& e : flight.events("hostA")) {
    EXPECT_EQ(e.cat, obs::kWatchtowerCategory);
    if (e.what == "alert.pending") ++pending;
    if (e.what == "alert.firing") ++firing;
    if (e.what == "alert.resolved") ++resolved;
  }
  EXPECT_EQ(pending, 2);
  EXPECT_EQ(firing, 1);
  EXPECT_EQ(resolved, 1);
}

TEST(Alert, ZeroHoldFiresSameTickAndMissingSeriesNeverFires) {
  obs::FlightRecorder flight(16);
  obs::AlertEngine::Options opt;
  opt.flight = &flight;
  obs::AlertEngine engine(opt);
  obs::AlertRule instant;
  instant.name = "instant";
  instant.metric = "m";
  instant.threshold = 1;
  engine.add_rule(instant);
  obs::AlertRule ghost;
  ghost.name = "ghost";
  ghost.metric = "never.recorded";
  ghost.threshold = 0;
  engine.add_rule(ghost);

  obs::SeriesStore store;
  store.record("m", kS, 2);
  engine.evaluate(store, kS);
  // for_ns == 0: pending and firing on the same evaluation.
  EXPECT_EQ(engine.fired("instant"), 1u);
  // A series that never existed cannot page (value > 0 notwithstanding).
  EXPECT_EQ(engine.fired("ghost"), 0u);
  EXPECT_EQ(engine.firing_count(), 1u);
}

TEST(Alert, RateStalenessFlapAndRatioKindsEvaluate) {
  obs::FlightRecorder flight(64);
  obs::AlertEngine::Options opt;
  opt.flight = &flight;
  obs::AlertEngine engine(opt);
  auto rule = [](const char* name, obs::AlertKind kind, const char* metric,
                 double threshold, std::int64_t window_ns) {
    obs::AlertRule r;
    r.name = name;
    r.kind = kind;
    r.metric = metric;
    r.threshold = threshold;
    r.window_ns = window_ns;
    return r;
  };
  engine.add_rule(rule("rate", obs::AlertKind::rate, "ctr", 1.0, 10 * kS));
  engine.add_rule(rule("stale", obs::AlertKind::staleness, "beat", 3.0, 0));
  engine.add_rule(rule("flap", obs::AlertKind::flap, "epoch", 3.0, 10 * kS));
  obs::AlertRule ratio = rule("ratio", obs::AlertKind::ratio, "num", 0.25, 10 * kS);
  ratio.denominator = "den";
  engine.add_rule(ratio);

  obs::SeriesStore store;
  store.record("ctr", 0, 0);
  store.record("ctr", 10 * kS, 100);  // 10/s over the window
  store.record("beat", 10 * kS, 1);
  double flap_values[] = {0, 1, 0, 1, 0};
  for (int i = 0; i < 5; ++i) store.record("epoch", (6 + i) * kS, flap_values[i]);
  store.record("num", 0, 0);
  store.record("den", 0, 0);
  store.record("num", 10 * kS, 30);
  store.record("den", 10 * kS, 100);

  engine.evaluate(store, 10 * kS);
  EXPECT_EQ(engine.fired("rate"), 1u);   // 10/s > 1/s
  EXPECT_EQ(engine.fired("flap"), 1u);   // 4 changes > 3
  EXPECT_EQ(engine.fired("ratio"), 1u);  // 30/100 > 0.25
  EXPECT_EQ(engine.fired("stale"), 0u);  // fresh point: age 0

  // 4 s of silence on "beat": the staleness rule fires; a fresh point
  // resolves it on the next evaluation (clear_ns = 0).
  engine.evaluate(store, 14 * kS);
  EXPECT_EQ(engine.fired("stale"), 1u);
  store.record("beat", 15 * kS, 2);
  engine.evaluate(store, 15 * kS);
  EXPECT_EQ(engine.resolved("stale"), 1u);

  // Ratio guards against an idle denominator: delta(den) == 0 divides by 1,
  // not by zero — no new num activity means value 0, which resolves.
  engine.evaluate(store, 25 * kS);
  EXPECT_EQ(engine.resolved("ratio"), 1u);
}

TEST(Alert, BuiltinRulesStayIdleOnCleanStore) {
  obs::FlightRecorder flight(16);
  obs::AlertEngine::Options opt;
  opt.flight = &flight;
  obs::AlertEngine engine(opt);
  engine.add_rules(obs::AlertEngine::builtin_rules());
  EXPECT_EQ(engine.rule_count(), 4u);

  obs::SeriesStore store;
  // Flat, healthy counters scraped for a virtual minute: nothing may page.
  for (std::int64_t t = 1; t <= 60; ++t) {
    store.record("srudp.rto_events", t * kS, 2);
    store.record("srudp.retransmits", t * kS, 5);
    store.record("srudp.fragments_sent", t * kS, 1000 + 10 * static_cast<double>(t));
    store.record("files.repairs", t * kS, 1);
    store.record("world.route_epoch", t * kS, 4);
    engine.evaluate(store, t * kS);
  }
  EXPECT_EQ(engine.fired_total(), 0u);
  EXPECT_EQ(engine.firing_count(), 0u);
}

// ---- FleetWatch: collector-side staleness over shipped series --------------

TEST(FleetWatch, BeaconStaleFiresPerHostAndResolvesOnFreshPoints) {
  obs::FleetStore store;
  auto feed = [&store](const std::string& host, std::uint32_t seq, std::int64_t ts,
                       double beacons) {
    obs::TelemetryBeacon b;
    b.host = host;
    b.seq = seq;
    b.ts = ts;
    b.full = true;
    b.series = {{"telemetry.beacons_sent", {{ts, beacons}}}};
    store.apply(b, ts);
  };

  obs::FleetWatch::Options opt;
  opt.period_ns = kS;
  opt.stale_after_beacons = 3.0;
  obs::FleetWatch watch(store, opt);

  feed("a", 1, 1 * kS, 1);
  feed("b", 1, 1 * kS, 1);
  watch.evaluate(2 * kS);
  EXPECT_EQ(watch.fired_total(), 0u);

  // Host b keeps beaconing; host a goes silent.  Only a may page.
  for (std::uint32_t s = 2; s <= 8; ++s) feed("b", s, s * kS, s);
  watch.evaluate(8 * kS);  // a's series 7 s old > 3 periods
  EXPECT_EQ(watch.fired("a", "beacon_stale"), 1u);
  EXPECT_EQ(watch.fired("b", "beacon_stale"), 0u);
  EXPECT_EQ(watch.firing_count(), 1u);

  // Fresh points (the heal) resolve it.
  feed("a", 2, 9 * kS, 2);
  feed("b", 9, 9 * kS, 9);
  watch.evaluate(9 * kS);
  EXPECT_EQ(watch.resolved("a", "beacon_stale"), 1u);
  EXPECT_EQ(watch.firing_count(), 0u);
  EXPECT_NE(watch.format_text().find("beacon_stale"), std::string::npos);
}

// ---- Watchtower: the per-host daemon wiring --------------------------------

/// Strong no-op ticks from now until `until` that keep run_until() alive:
/// every watchtower and exporter timer is weak by contract (housekeeping
/// must not keep a simulation running), so an otherwise-idle soak world
/// needs a pulse.  Ticks start one step after now: the engine's clock never
/// runs backwards, so nothing may be scheduled in its past.
void keep_alive(simnet::Engine& engine, SimTime until,
                SimDuration step = duration::milliseconds(250)) {
  for (SimTime t = engine.now() + step; t <= until; t += step) engine.schedule_at(t, [] {});
}

TEST(Watchtower, ScrapesOnVirtualClockSamplesLinksAndFreezesWhileDown) {
  World world(7001);
  world.create_network("lan", simnet::ethernet100());
  world.attach(world.create_host("a"), *world.network("lan"));
  world.attach(world.create_host("b"), *world.network("lan"));
  transport::SrudpEndpoint tx(*world.host("a"), 7000);
  transport::SrudpEndpoint rx(*world.host("b"), 7000);
  rx.set_handler([](const Address&, Payload) {});

  daemon::Watchtower tower(*world.host("a"));
  tower.start();
  for (int i = 0; i < 20; ++i)
    world.engine().schedule_at(duration::milliseconds(100) * i,
                               [&tx, &rx] { tx.send(rx.address(), Bytes(4000, 0x3c)); });
  keep_alive(world.engine(), duration::seconds(10));
  world.engine().run_until(duration::seconds(10));

  EXPECT_GE(tower.scrapes(), 8u);
  // The zone-fabric sampler contributed per-NIC and route-epoch series.
  EXPECT_TRUE(tower.series().has("link.lan.a.busy_ns"));
  EXPECT_TRUE(tower.series().has("link.lan.a.queue_ns"));
  EXPECT_TRUE(tower.series().has("world.route_epoch"));
  EXPECT_GT(tower.series().last("link.lan.a.busy_ns"), 0.0);
  // The registry scrape landed transport counters too.
  EXPECT_TRUE(tower.series().has("srudp.fragments_sent"));

  // A crashed host observes nothing: series freeze (that frozen edge is
  // the fleet staleness signal), then thaw after the reboot.
  world.host("a")->set_up(false);
  std::int64_t frozen_at = tower.series().last_ts("world.route_epoch");
  keep_alive(world.engine(), duration::seconds(20));
  world.engine().run_until(duration::seconds(15));
  EXPECT_EQ(tower.series().last_ts("world.route_epoch"), frozen_at);
  world.host("a")->set_up(true);
  world.engine().run_until(duration::seconds(20));
  EXPECT_GT(tower.series().last_ts("world.route_epoch"), frozen_at);
}

TEST(Watchtower, WindowedTopoUtilizationAgesOutWhereCumulativeCannot) {
  World world(7002);
  world.create_network("lan", simnet::ethernet100());
  world.attach(world.create_host("a"), *world.network("lan"));
  world.attach(world.create_host("b"), *world.network("lan"));
  transport::SrudpEndpoint tx(*world.host("a"), 7000);
  transport::SrudpEndpoint rx(*world.host("b"), 7000);
  rx.set_handler([](const Address&, Payload) {});

  daemon::Watchtower tower(*world.host("a"));
  tower.start();
  // Busy first 5 s, then idle for 60 s.
  for (int i = 0; i < 50; ++i)
    world.engine().schedule_at(duration::milliseconds(100) * i,
                               [&tx, &rx] { tx.send(rx.address(), Bytes(60000, 0x3c)); });
  keep_alive(world.engine(), duration::seconds(65));
  world.engine().run_until(duration::seconds(65));

  // Cumulative-since-boot utilization still remembers the old burst; the
  // windowed view (fed from the series history) has aged it out.
  std::string cumulative = world.describe_topology();
  std::string windowed =
      world.describe_topology(&tower.series(), duration::seconds(10));
  auto util_of = [](const std::string& text, const std::string& node) {
    auto at = text.find("  " + node + " ");
    EXPECT_NE(at, std::string::npos) << text;
    if (at == std::string::npos) return -1.0;
    auto util = text.find("util ", at);
    EXPECT_NE(util, std::string::npos) << text;
    if (util == std::string::npos) return -1.0;
    return std::atof(text.c_str() + util + 5);
  };
  EXPECT_GT(util_of(cumulative, "a"), 0.0);
  EXPECT_DOUBLE_EQ(util_of(windowed, "a"), 0.0);
  // Windowed lines carry a "%w" marker so an operator knows which math
  // they are reading; the cumulative dump has no such mark.
  EXPECT_NE(windowed.find("%w"), std::string::npos) << windowed;
  EXPECT_EQ(cumulative.find("%w"), std::string::npos) << cumulative;
}

// ---- soak scenarios: one fault class each ----------------------------------
//
// Shared shape (mirrors the chaos fleet gauntlet): data hosts a and b on a
// "lan", a collector on private loss-free management links, a Watchtower +
// TelemetryExporter per data host (the exporter ships the tower's series),
// and the collector running a FleetWatch.  Every scenario is a pure
// function of its seed, runs entirely on the virtual clock, and asserts
// both halves of the alert lifecycle: the expected rule fires during the
// fault window AND resolves after the heal, ending with nothing firing.

std::uint64_t soak_scale() {
  const char* env = std::getenv("SNIPE_SOAK_SCALE");
  if (env != nullptr && *env != '\0') {
    std::uint64_t n = std::strtoull(env, nullptr, 0);
    return n > 0 ? n : 1;
  }
  return 1;
}

/// One "[soak] ..." accounting line per scenario: seed_sweep.sh sums the
/// virtual_s fields into the soak's total virtual hours.
void soak_report(const char* scenario, std::uint64_t seed, SimTime virtual_ns) {
  std::printf("[soak] scenario=%s seed=%llu virtual_s=%lld\n", scenario,
              static_cast<unsigned long long>(seed),
              static_cast<long long>(virtual_ns / kS));
  std::fflush(stdout);
}

struct WatchedHost {
  std::unique_ptr<transport::RpcEndpoint> rpc;
  std::unique_ptr<daemon::Watchtower> tower;
  std::unique_ptr<daemon::TelemetryExporter> exporter;
};

/// Wires a Watchtower + exporter pair on `host`.  The tower starts first
/// so a same-timestamp scrape lands before the beacon builds.
WatchedHost watch_host(simnet::Host& host, const Address& collector) {
  WatchedHost w;
  w.rpc = std::make_unique<transport::RpcEndpoint>(host, 7400);
  w.tower = std::make_unique<daemon::Watchtower>(host);
  w.tower->start();
  daemon::TelemetryConfig cfg;
  cfg.collectors = {collector};
  cfg.period = duration::seconds(1);
  w.exporter = std::make_unique<daemon::TelemetryExporter>(
      *w.rpc, cfg, nullptr, nullptr, &w.tower->series());
  w.exporter->start();
  return w;
}

/// The a/b/coll fleet world every fleet-facing scenario starts from.
struct SoakWorld {
  explicit SoakWorld(std::uint64_t seed) : world(seed) {
    world.create_network("lan", simnet::ethernet100());
    world.create_network("mgmt_a", simnet::ethernet100());
    world.create_network("mgmt_b", simnet::ethernet100());
    world.attach(world.create_host("a"), *world.network("lan"));
    world.attach(world.create_host("b"), *world.network("lan"));
    world.attach(world.create_host("coll"), *world.network("mgmt_a"));
    world.attach(*world.host("coll"), *world.network("mgmt_b"));
    world.attach(*world.host("a"), *world.network("mgmt_a"));
    world.attach(*world.host("b"), *world.network("mgmt_b"));
    coll_rpc = std::make_unique<transport::RpcEndpoint>(*world.host("coll"), 7300);
    daemon::CollectorWatchConfig watch;
    watch.enabled = true;
    collector = std::make_unique<daemon::TelemetryCollector>(
        *coll_rpc, obs::FleetStore::Options{}, watch);
    a = watch_host(*world.host("a"), coll_rpc->address());
    b = watch_host(*world.host("b"), coll_rpc->address());
  }

  World world;
  std::unique_ptr<transport::RpcEndpoint> coll_rpc;
  std::unique_ptr<daemon::TelemetryCollector> collector;
  WatchedHost a, b;
};

TEST(WatchSoak, CleanProfileRaisesNoAlerts) {
  std::uint64_t seed = chaos::chaos_seed() + 9000;
  SoakWorld w(seed);
  transport::SrudpEndpoint tx(*w.world.host("a"), 7000);
  transport::SrudpEndpoint rx(*w.world.host("b"), 7000);
  std::uint64_t delivered = 0;
  rx.set_handler([&delivered](const Address&, Payload) { ++delivered; });

  const SimTime duration_ns = duration::seconds(120) * soak_scale();
  for (SimTime t = duration::milliseconds(250); t <= duration_ns;
       t += duration::milliseconds(250))
    w.world.engine().schedule_at(t, [&tx, &rx] {
      tx.send(rx.address(), Bytes(2000, 0x42));
    });
  w.world.engine().run_until(duration_ns);

  // Non-vacuous: the plane ran, series shipped, rules evaluated.
  EXPECT_GT(delivered, 100u);
  ASSERT_EQ(w.collector->store().host_count(), 2u);
  ASSERT_NE(w.collector->watch(), nullptr);
  const obs::SeriesStore* shipped = w.collector->store().host_series("a");
  ASSERT_NE(shipped, nullptr);
  EXPECT_TRUE(shipped->has("telemetry.beacons_sent"));
  EXPECT_GE(w.a.tower->scrapes(), 100u * soak_scale());

  // The acceptance bar: zero false positives on a clean run — locally on
  // both towers and fleet-wide on the collector.
  EXPECT_EQ(w.a.tower->alerts().fired_total(), 0u);
  EXPECT_EQ(w.b.tower->alerts().fired_total(), 0u);
  EXPECT_EQ(w.collector->watch()->fired_total(), 0u);
  soak_report("clean", seed, duration_ns);
}

TEST(WatchSoak, PartitionFiresBeaconStaleAndResolvesAfterHeal) {
  std::uint64_t seed = chaos::chaos_seed() + 9100;
  SoakWorld w(seed);
  FaultPlan plan(w.world, seed + 1);
  const std::uint64_t cycles = soak_scale();
  const SimTime cycle_ns = duration::seconds(60);
  for (std::uint64_t c = 0; c < cycles; ++c) {
    SimTime base = static_cast<SimTime>(c) * cycle_ns;
    // Cut a's management link for 20 beacon periods; the data lan stays up.
    plan.partition("mgmt_a", {{"a"}, {"coll"}}, base + duration::seconds(10),
                   base + duration::seconds(30));
  }
  const SimTime duration_ns = static_cast<SimTime>(cycles) * cycle_ns;
  keep_alive(w.world.engine(), duration_ns);
  w.world.engine().run_until(duration_ns);

  ASSERT_NE(w.collector->watch(), nullptr);
  const obs::FleetWatch& watch = *w.collector->watch();
  EXPECT_GE(watch.fired("a", "beacon_stale"), cycles);
  EXPECT_GE(watch.resolved("a", "beacon_stale"), cycles);
  EXPECT_EQ(watch.fired("b", "beacon_stale"), 0u);  // b never went silent
  EXPECT_EQ(watch.firing_count(), 0u);              // healed world is quiet
  soak_report("partition", seed, duration_ns);
}

TEST(WatchSoak, CrashedExporterFiresBeaconStaleAndResolvesAfterRestart) {
  std::uint64_t seed = chaos::chaos_seed() + 9200;
  SoakWorld w(seed);
  FaultPlan plan(w.world, seed + 1);
  const std::uint64_t cycles = soak_scale();
  const SimTime cycle_ns = duration::seconds(60);
  for (std::uint64_t c = 0; c < cycles; ++c) {
    SimTime base = static_cast<SimTime>(c) * cycle_ns;
    plan.crash_host("a", base + duration::seconds(10), base + duration::seconds(30));
  }
  const SimTime duration_ns = static_cast<SimTime>(cycles) * cycle_ns;
  keep_alive(w.world.engine(), duration_ns);
  w.world.engine().run_until(duration_ns);

  const obs::FleetWatch& watch = *w.collector->watch();
  EXPECT_GE(watch.fired("a", "beacon_stale"), cycles);
  EXPECT_GE(watch.resolved("a", "beacon_stale"), cycles);
  EXPECT_EQ(watch.fired("b", "beacon_stale"), 0u);
  EXPECT_EQ(watch.firing_count(), 0u);
  // The local tower skipped scrapes while down, so its own alert engine
  // stayed quiet too (no self-paging from a crashed host).
  EXPECT_EQ(w.a.tower->alerts().fired_total(), 0u);
  soak_report("crashed_exporter", seed, duration_ns);
}

TEST(WatchSoak, RtoStormFiresDuringBlackoutAndResolvesAfterHeal) {
  std::uint64_t seed = chaos::chaos_seed() + 9300;
  SoakWorld w(seed);
  transport::SrudpEndpoint tx(*w.world.host("a"), 7000);
  transport::SrudpEndpoint rx(*w.world.host("b"), 7000);
  rx.set_handler([](const Address&, Payload) {});
  FaultPlan plan(w.world, seed + 1);
  const std::uint64_t cycles = soak_scale();
  const SimTime cycle_ns = duration::seconds(100);
  for (std::uint64_t c = 0; c < cycles; ++c) {
    SimTime base = static_cast<SimTime>(c) * cycle_ns;
    // A 30 s data-lan blackout: every in-flight message RTOs repeatedly.
    plan.partition("lan", {{"a"}, {"b"}}, base + duration::seconds(10),
                   base + duration::seconds(40));
    for (SimTime t = duration::milliseconds(200); t <= duration::seconds(45);
         t += duration::milliseconds(200))
      w.world.engine().schedule_at(base + t, [&tx, &rx] {
        tx.send(rx.address(), Bytes(1500, 0x55));
      });
  }
  const SimTime duration_ns = static_cast<SimTime>(cycles) * cycle_ns;
  keep_alive(w.world.engine(), duration_ns);
  w.world.engine().run_until(duration_ns);

  const obs::AlertEngine& alerts = w.a.tower->alerts();
  EXPECT_GE(alerts.fired("srudp_rto_storm"), cycles);
  EXPECT_GE(alerts.resolved("srudp_rto_storm"), cycles);
  EXPECT_EQ(alerts.firing_count(), 0u);
  // The fleet side never lost beacons (management links were untouched).
  EXPECT_EQ(w.collector->watch()->fired("a", "beacon_stale"), 0u);
  soak_report("rto_storm", seed, duration_ns);
}

TEST(WatchSoak, IncastCollapseFiresUnderBurstLossAndResolvesWhenLoadStops) {
  std::uint64_t seed = chaos::chaos_seed() + 9400;
  SoakWorld w(seed);
  transport::SrudpEndpoint tx_a(*w.world.host("a"), 7000);
  transport::SrudpEndpoint tx_a2(*w.world.host("a"), 7001);
  transport::SrudpEndpoint rx(*w.world.host("b"), 7000);
  rx.set_handler([](const Address&, Payload) {});
  transport::SrudpEndpoint rx2(*w.world.host("b"), 7001);
  rx2.set_handler([](const Address&, Payload) {});

  FaultPlan plan(w.world, seed + 1);
  FaultProfile profile;
  // Long, deep bad states: a heavy share of every send window burns on
  // repair while the fan-in load runs (mean loss ~30%).
  profile.burst = {/*p_enter_bad=*/0.05, /*p_exit_bad=*/0.1,
                   /*loss_good=*/0.02, /*loss_bad=*/0.9};
  plan.inject("lan", profile);

  const std::uint64_t cycles = soak_scale();
  const SimTime cycle_ns = duration::seconds(120);
  for (std::uint64_t c = 0; c < cycles; ++c) {
    SimTime base = static_cast<SimTime>(c) * cycle_ns;
    for (SimTime t = duration::seconds(10); t <= duration::seconds(40);
         t += duration::milliseconds(100)) {
      w.world.engine().schedule_at(base + t, [&tx_a, &rx] {
        tx_a.send(rx.address(), Bytes(1200, 0x66));
      });
      w.world.engine().schedule_at(base + t + duration::milliseconds(50),
                                   [&tx_a2, &rx2] {
                                     tx_a2.send(rx2.address(), Bytes(1200, 0x67));
                                   });
    }
  }
  const SimTime duration_ns = static_cast<SimTime>(cycles) * cycle_ns;
  keep_alive(w.world.engine(), duration_ns);
  w.world.engine().run_until(duration_ns);

  // The loss profile must actually have bitten for the pass to mean much.
  EXPECT_GT(w.world.network("lan")->stats().drops_fault, 0u);
  const obs::AlertEngine& alerts = w.a.tower->alerts();
  EXPECT_GE(alerts.fired("incast_collapse"), 1u);
  EXPECT_GE(alerts.resolved("incast_collapse"), 1u);
  EXPECT_EQ(alerts.firing_count(), 0u) << alerts.format_text();
  if (alerts.firing_count() > 0) {
    for (const char* name : {"srudp.retransmits", "srudp.fragments_sent"}) {
      std::printf("%s tail:", name);
      auto pts = w.a.tower->series().points(name);
      for (std::size_t i = pts.size() > 12 ? pts.size() - 12 : 0; i < pts.size(); ++i)
        std::printf(" (%llds,%g)", static_cast<long long>(pts[i].ts / kS), pts[i].value);
      std::printf("\n");
    }
  }
  soak_report("incast", seed, duration_ns);
}

TEST(WatchSoak, RouteFlapChurnFiresWhileNicFlapsAndResolvesAfter) {
  std::uint64_t seed = chaos::chaos_seed() + 9500;
  SoakWorld w(seed);
  FaultPlan plan(w.world, seed + 1);
  const std::uint64_t cycles = soak_scale();
  const SimTime cycle_ns = duration::seconds(110);
  for (std::uint64_t c = 0; c < cycles; ++c) {
    SimTime base = static_cast<SimTime>(c) * cycle_ns;
    // Five down/up pulses of the whole segment in 20 s: ten route-epoch
    // bumps, far over the flap rule's >3-changes-in-30s line.  (A host
    // NIC on a flat network deliberately does not bump the epoch — it
    // never appears inside a route's interior — so the scenario flaps
    // the link itself, the paper's "gateway reboots every few minutes".)
    for (int f = 0; f < 5; ++f) {
      SimTime at = base + duration::seconds(10) + duration::seconds(4) * f;
      plan.link_down("lan", at, at + duration::seconds(1));
    }
  }
  const SimTime duration_ns = static_cast<SimTime>(cycles) * cycle_ns;
  keep_alive(w.world.engine(), duration_ns);
  w.world.engine().run_until(duration_ns);

  const obs::AlertEngine& alerts = w.a.tower->alerts();
  EXPECT_GE(alerts.fired("route_flap_churn"), cycles);
  EXPECT_GE(alerts.resolved("route_flap_churn"), cycles);
  EXPECT_EQ(alerts.firing_count(), 0u);
  soak_report("route_flap", seed, duration_ns);
}

TEST(WatchSoak, RepairChurnFiresAfterReplicaLossAndResolvesOnConvergence) {
  std::uint64_t seed = chaos::chaos_seed() + 9600;
  World world(seed);
  world.create_network("lan", simnet::ethernet100());
  for (const char* n : {"rc", "fs1", "fs2", "fs3", "app"})
    world.attach(world.create_host(n), *world.network("lan"));
  rcds::RcServer rc(*world.host("rc"));
  std::vector<Address> replicas{rc.address()};
  files::FileServerConfig cfg;
  cfg.replication_factor = 2;
  cfg.repair_period = duration::seconds(5);
  files::FileServer fs1(*world.host("fs1"), replicas, files::FileServer::kDefaultPort, cfg);
  files::FileServer fs2(*world.host("fs2"), replicas, files::FileServer::kDefaultPort, cfg);
  files::FileServer fs3(*world.host("fs3"), replicas, files::FileServer::kDefaultPort, cfg);
  fs1.set_peers({fs2.address(), fs3.address()});
  fs2.set_peers({fs1.address(), fs3.address()});
  fs3.set_peers({fs1.address(), fs2.address()});

  transport::RpcEndpoint rpc(*world.host("app"), 9200);
  files::FileClient client(rpc, replicas);
  daemon::Watchtower tower(*world.host("app"));
  tower.start();

  const std::uint64_t cycles = soak_scale();
  const SimTime cycle_ns = duration::seconds(120);
  FaultPlan plan(world, seed + 1);
  for (std::uint64_t c = 0; c < cycles; ++c) {
    SimTime base = static_cast<SimTime>(c) * cycle_ns;
    // A fresh batch of files each cycle, then a replica host dies: the
    // repair daemon re-creates every lost copy in a burst — churn the
    // rate rule must catch — and goes quiet once converged.
    for (int f = 0; f < 12; ++f) {
      std::string lifn = "lifn://soak/c" + std::to_string(c) + "/f" + std::to_string(f);
      world.engine().schedule_at(
          base + duration::milliseconds(200) * f, [&client, &fs1, lifn, seed, f] {
            client.write(fs1.address(), lifn,
                         chaos::chaos_payload(8'000, seed, static_cast<std::uint32_t>(f)),
                         [](Result<void>) {});
          });
    }
    plan.crash_host("fs2", base + duration::seconds(10), base + duration::seconds(45));
  }
  const SimTime duration_ns = static_cast<SimTime>(cycles) * cycle_ns;
  keep_alive(world.engine(), duration_ns);
  world.engine().run_until(duration_ns);

  EXPECT_GE(fs1.stats().repairs + fs3.stats().repairs, 6u * cycles);
  const obs::AlertEngine& alerts = tower.alerts();
  EXPECT_GE(alerts.fired("file_repair_churn"), 1u);
  EXPECT_GE(alerts.resolved("file_repair_churn"), 1u);
  EXPECT_EQ(alerts.firing_count(), 0u);
  soak_report("repair_churn", seed, duration_ns);
}

}  // namespace
}  // namespace snipe
