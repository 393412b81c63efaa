// fleet_soak: a fat-tree datacenter zone plus a WAN-attached site zone,
// run on a sharded world with shard-by-zone placement.  Background SRUDP
// flows (cross-rack pairs, an incast into one host, and flows across the
// WAN in both directions) send at fixed virtual rates: an open loop in
// virtual time, so the generator is never late.  A seeded fault plan
// repeats every kCycle of virtual time: burst loss on one rack segment, a
// spine uplink flap, a WAN partition that heals, and a host crash and
// restart.  Every data host runs a telemetry exporter and a watchtower
// beaconing to its zone's collector.
//
// SRUDP loses messages on a flow that sends faster than its retransmission
// timeout over a lossy path: a message lost whole, whose one implied-loss
// resend is lost too, is never sent again while acks for newer messages
// keep re-arming the timer, and the receiver skips it after hol_skip.  The
// WAN flows therefore send slower than their timeout (kWanPeriod).
//
// Beacons travel on per-host management segments to a collector in the
// host's own zone.  Their size depends on registry values read while other
// shards run, so keeping them off the data links (and off the shard
// boundary) keeps the data plane, and with it the digest, a function of the
// seed alone.
#include <limits>
#include <utility>

#include "common.hpp"
#include "daemon/telemetry.hpp"
#include "daemon/watchtower.hpp"
#include "simnet/fault.hpp"
#include "simnet/topo.hpp"
#include "transport/rpc.hpp"
#include "transport/srudp.hpp"
#include "util/payload.hpp"

namespace perfbench {
namespace {

constexpr SimDuration kCycle = duration::seconds(20);
constexpr SimTime kFaultHorizon = duration::seconds(4000);
/// WAN flows send one message per kWanPeriod, longer than their
/// retransmission timeout (see the top of this file).
constexpr SimDuration kWanPeriod = duration::milliseconds(100);
constexpr std::uint16_t kDataPort = 7000;

/// Message size of (flow key, seq): log-uniform in 256 B..4 KiB, a pure
/// function so the receiver can check sizes without shared state.
std::uint32_t message_size(std::uint64_t key, std::uint64_t seq) {
  std::uint64_t h = (key * 0x9e3779b97f4a7c15ULL) ^ (seq + 0x632be59bd9b4e019ULL);
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 29;
  return static_cast<std::uint32_t>(256u << (h % 5)) +
         static_cast<std::uint32_t>((h >> 8) % 256);
}

struct Flow {
  int id = 0;
  std::uint64_t key = 0;  ///< seeds the flow's message sizes
  simnet::Host* src = nullptr;
  transport::SrudpEndpoint* tx = nullptr;
  simnet::Address dst;
  SimDuration period = 0;
  // Sender side: touched only by the sender's shard.
  std::uint64_t next_seq = 0;
  std::uint64_t sent_bytes = 0;
  // Receiver side: touched only by the receiver's shard.
  std::uint64_t expected = 0;  ///< next sequence number due
  std::uint64_t delivered = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t violations = 0;
  Fold fold;
  std::uint64_t folded = 0;

  void tick() {
    if (src->up()) {  // a crashed host generates nothing
      std::uint32_t size = message_size(key, next_seq);
      Bytes body(size, 0);
      const std::uint64_t seq = next_seq++;
      const auto at = static_cast<std::uint64_t>(src->engine().now());
      for (int i = 0; i < 8; ++i) {
        body[i] = static_cast<std::uint8_t>(seq >> (56 - 8 * i));
        body[8 + i] = static_cast<std::uint8_t>(at >> (56 - 8 * i));
      }
      sent_bytes += size;
      CallSpan span("srudp.send");
      tx->send(dst, Payload(std::move(body)));
    }
    src->engine().schedule(period, [this] { tick(); });
  }

  void on_delivery(const Payload& m, SimTime now) {
    PayloadCursor cursor(m);
    auto seq = cursor.u64();
    auto at = cursor.u64();
    if (!seq || !at || seq.value() < expected ||
        m.size() != message_size(key, seq.value())) {
      ++violations;  // duplicate, reordered or mangled
      return;
    }
    violations += seq.value() - expected;  // skipped messages never arrive
    expected = seq.value() + 1;
    ++delivered;
    delivered_bytes += m.size();
    auto sent_at = static_cast<SimTime>(at.value());
    fold.add(seq.value());
    fold.add(static_cast<std::uint64_t>(sent_at));
    fold.add(static_cast<std::uint64_t>(now));
    ++folded;
    Trace::get().op("srudp.msg", id, (static_cast<std::uint64_t>(id) << 40) | seq.value(),
                    sent_at, now);
  }
};

class FleetSoak final : public Workload {
 public:
  FleetSoak(std::uint64_t seed, std::size_t shards) : seed_(seed), shards_(shards) {}

  void setup() override {
    world_ = std::make_unique<simnet::World>(seed_, shards_);
    simnet::FatTreeOptions ft;
    ft.racks = 4;
    ft.hosts_per_rack = 4;
    ft.spines = 2;
    ft.host_prefix = "dc-h";
    simnet::Zone& dc = simnet::build_fat_tree(*world_, "dc", ft);
    simnet::Zone& site =
        simnet::build_lan(*world_, "site", 4, simnet::ethernet100(), nullptr, "site-h");
    simnet::Network& wan = simnet::connect_zones(dc, site, simnet::wan_t3());

    // Data endpoints on every host.  Interface failover is off: hosts also
    // sit on a management segment that leads only to their collector, and
    // the routed fabric is the data path.
    transport::SrudpConfig data_cfg;
    data_cfg.failover_threshold = std::numeric_limits<int>::max();
    for (simnet::Zone* z : {&dc, &site})
      for (simnet::Host* h : z->hosts()) {
        auto ep = std::make_unique<transport::SrudpEndpoint>(*h, kDataPort, data_cfg);
        // Shard threads only read the flow table, which is complete before
        // the first delivery.
        ep->set_handler([this, h](const simnet::Address& src, Payload m) {
          Flow* f = std::as_const(receivers_).at(h->name()).at(src.host);
          f->on_delivery(m, h->engine().now());
        });
        endpoints_[h->name()] = std::move(ep);
      }

    // Flows: cross-rack pairs, an incast into dc-h0_0, and both directions
    // across the WAN (these cross the shard boundary).
    auto dc_host = [](int r, int i) {
      return "dc-h" + std::to_string(r) + "_" + std::to_string(i);
    };
    for (int r = 0; r < 4; ++r)
      for (int i = 0; i < 4; ++i)
        add_flow(dc_host(r, i), dc_host((r + 1) % 4, i), duration::milliseconds(4));
    for (int r = 1; r < 4; ++r)
      for (int i = 1; i < 3; ++i) add_flow(dc_host(r, i), dc_host(0, 0), duration::milliseconds(4));
    for (int i = 0; i < 4; ++i) {
      add_flow("site-h" + std::to_string(i), dc_host(i, 3), kWanPeriod);
      add_flow(dc_host(i, 0), "site-h" + std::to_string(i), kWanPeriod);
    }

    // Observability: a collector per zone, a management segment per host.
    for (simnet::Zone* z : {&dc, &site}) {
      std::vector<simnet::Host*> members = z->hosts();
      simnet::Host& coll = z->create_host(z->name() + "-collector");
      auto coll_rpc = std::make_unique<transport::RpcEndpoint>(coll, 7700);
      daemon::CollectorWatchConfig watch;
      watch.enabled = true;
      collectors_.push_back(std::make_unique<daemon::TelemetryCollector>(
          *coll_rpc, obs::FleetStore::Options{}, watch));
      for (simnet::Host* h : members) {
        auto& mgmt = world_->create_network("mgmt-" + h->name(), simnet::ethernet100());
        world_->attach(*h, mgmt);
        world_->attach(coll, mgmt);
        auto rpc = std::make_unique<transport::RpcEndpoint>(*h, 7600);
        auto tower = std::make_unique<daemon::Watchtower>(*h);
        tower->start();
        daemon::TelemetryConfig cfg;
        cfg.collectors = {coll_rpc->address()};
        auto exporter = std::make_unique<daemon::TelemetryExporter>(*rpc, cfg, nullptr, nullptr,
                                                                    &tower->series());
        exporter->start();
        rpcs_.push_back(std::move(rpc));
        towers_.push_back(std::move(tower));
        exporters_.push_back(std::move(exporter));
      }
      rpcs_.push_back(std::move(coll_rpc));
    }

    // Faults, repeating every kCycle.
    plan_ = std::make_unique<simnet::FaultPlan>(*world_, seed_ * 0x9E3779B97F4A7C15ULL + 1);
    simnet::FaultProfile burst;
    burst.burst = {/*p_enter_bad=*/0.002, /*p_exit_bad=*/0.3, /*loss_good=*/0.0,
                   /*loss_bad=*/0.5};
    plan_->inject("dc/rack1", burst);
    std::vector<std::string> site_hosts;
    for (simnet::Host* h : site.hosts())
      if (h->name().rfind("site-h", 0) == 0) site_hosts.push_back(h->name());
    for (SimTime c = 0; c < kFaultHorizon; c += kCycle) {
      plan_->link_down("dc/up2_0", c + duration::seconds(3), c + duration::milliseconds(3500));
      plan_->partition(wan.name(), {site_hosts}, c + duration::seconds(8),
                       c + duration::seconds(9));
      plan_->crash_host("dc-h2_3", c + duration::seconds(14), c + duration::seconds(15));
    }

    for (auto& f : flows_) {
      Flow* fp = f.get();
      fp->src->engine().schedule_at(duration::milliseconds(100) + fp->id * 37'000,
                                    [fp] { fp->tick(); });
    }
    // Warm up: route caches fill on first sends, first full beacons at 1 s.
    world_->run_until(duration::seconds(2));
  }

  simnet::World& world() override { return *world_; }
  SimDuration step() const override { return duration::milliseconds(50); }
  double nominal_rate() const override { return 9.0; }

  OpCounts counts() const override {
    OpCounts n;
    for (const auto& f : flows_) {
      n.completed += f->delivered;
      n.failed += f->violations;
    }
    return n;
  }

  std::uint64_t final_check() override {
    std::uint64_t bad = 0;
    for (const auto& f : flows_) {
      // Bytes delivered are exactly those of the first `delivered` messages.
      std::uint64_t want = 0;
      for (std::uint64_t s = 0; s < f->delivered; ++s)
        want += message_size(f->key, s);
      if (want != f->delivered_bytes || f->expected > f->next_seq) ++bad;
    }
    // Nothing expired at a sender or was skipped at a receiver.
    for (const auto& [name, ep] : endpoints_)
      bad += ep->stats().messages_expired + ep->stats().messages_skipped;
    return bad;
  }

  std::pair<std::uint64_t, std::uint64_t> digest() const override {
    Fold all;
    std::uint64_t n = 0;
    for (const auto& f : flows_) {
      all.add(f->fold.h);
      n += f->folded;
    }
    return {all.h, n};
  }

  void raw_counters(std::map<std::string, double>& out) override {
    out["telemetry.hosts"] = static_cast<double>(exporters_.size());
  }

 private:
  void add_flow(const std::string& src, const std::string& dst, SimDuration period) {
    auto f = std::make_unique<Flow>();
    f->id = static_cast<int>(flows_.size());
    f->key = Rng(seed_).derive(flows_.size()).next_u64();
    f->src = world_->host(src);
    f->tx = endpoints_.at(src).get();
    f->dst = {dst, kDataPort};
    f->period = period;
    receivers_[dst][src] = f.get();
    flows_.push_back(std::move(f));
  }

  std::uint64_t seed_;
  std::size_t shards_;
  std::unique_ptr<simnet::World> world_;
  std::vector<std::unique_ptr<Flow>> flows_;
  std::map<std::string, std::map<std::string, Flow*>> receivers_;  ///< [dst][src]
  std::map<std::string, std::unique_ptr<transport::SrudpEndpoint>> endpoints_;
  std::vector<std::unique_ptr<transport::RpcEndpoint>> rpcs_;
  std::vector<std::unique_ptr<daemon::TelemetryCollector>> collectors_;
  std::vector<std::unique_ptr<daemon::Watchtower>> towers_;
  std::vector<std::unique_ptr<daemon::TelemetryExporter>> exporters_;
  std::unique_ptr<simnet::FaultPlan> plan_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_soak(std::uint64_t seed, std::size_t shards) {
  return std::make_unique<FleetSoak>(seed, shards);
}

}  // namespace perfbench
