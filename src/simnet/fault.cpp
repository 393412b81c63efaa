#include "simnet/fault.hpp"

#include <cassert>
#include <functional>
#include <utility>

#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "simnet/world.hpp"
#include "util/log.hpp"

namespace snipe::simnet {

FaultInjector::Lane& FaultInjector::lane(const std::string& src) {
  std::lock_guard<std::mutex> lock(lanes_mu_);
  auto it = lanes_.find(src);
  if (it == lanes_.end())
    it = lanes_.emplace(src, Lane{base_.derive(Rng::hash_name(src)), false}).first;
  return it->second;
}

bool FaultInjector::in_bad_state() const {
  std::lock_guard<std::mutex> lock(lanes_mu_);
  for (const auto& [name, ln] : lanes_)
    if (ln.bad) return true;
  return false;
}

FaultVerdict FaultInjector::judge(const std::string& lane_name, const std::string& src,
                                  const std::string& dst) {
  ++stats_.packets_judged;
  FaultVerdict v;

  // Partition first: no randomness involved, the boundary is absolute and
  // end-to-end — a routed packet crossing a partitioned gateway drops no
  // matter which hop judges it.
  if (partitioned(src, dst)) {
    ++stats_.drops_partition;
    v.drop = true;
    return v;
  }

  // The lane's burst chain advances exactly once per judged packet.  All
  // draws happen in a fixed order (state, loss, duplicate, reorder,
  // corrupt) so the random sequence — and therefore the whole run —
  // depends only on the seed and the lane's packet sequence, never on
  // which branches were taken.
  Lane& ln = lane(lane_name);
  Rng& rng = ln.rng;
  ln.bad = ln.bad ? !rng.chance(profile_.burst.p_exit_bad)
                  : rng.chance(profile_.burst.p_enter_bad);
  bool lost = rng.chance(ln.bad ? profile_.burst.loss_bad : profile_.burst.loss_good);
  bool dup = rng.chance(profile_.duplicate);
  bool reorder = rng.chance(profile_.reorder);
  SimDuration jitter1 =
      profile_.reorder_jitter > 0
          ? static_cast<SimDuration>(rng.next_below(
                static_cast<std::uint64_t>(profile_.reorder_jitter) + 1))
          : 0;
  SimDuration jitter2 =
      profile_.reorder_jitter > 0
          ? static_cast<SimDuration>(rng.next_below(
                static_cast<std::uint64_t>(profile_.reorder_jitter) + 1))
          : 0;
  bool corrupt = rng.chance(profile_.corrupt);

  if (lost) {
    ++stats_.drops_burst;
    v.drop = true;
    return v;
  }
  if (dup) {
    ++stats_.duplicated;
    v.copies = 2;
    v.dup_delay = jitter2;
  }
  if (reorder) {
    ++stats_.reordered;
    v.extra_delay = jitter1;
  }
  if (corrupt) {
    ++stats_.corrupted;
    v.corrupt = true;
  }
  return v;
}

void FaultInjector::corrupt_payload(Bytes& wire, const std::string& lane_name) {
  if (wire.empty()) return;
  Rng& rng = lane(lane_name).rng;
  std::uint32_t flips = static_cast<std::uint32_t>(
      rng.next_below(std::max<std::uint32_t>(profile_.corrupt_max_bytes, 1)) + 1);
  for (std::uint32_t i = 0; i < flips; ++i) {
    std::size_t pos = static_cast<std::size_t>(rng.next_below(wire.size()));
    std::uint8_t mask = static_cast<std::uint8_t>(rng.next_below(255) + 1);  // never 0
    wire[pos] ^= mask;
  }
}

void FaultInjector::corrupt_payload(Payload& wire, const std::string& lane_name) {
  if (wire.empty()) return;
  Rng& rng = lane(lane_name).rng;
  std::uint32_t flips = static_cast<std::uint32_t>(
      rng.next_below(std::max<std::uint32_t>(profile_.corrupt_max_bytes, 1)) + 1);
  for (std::uint32_t i = 0; i < flips; ++i) {
    std::size_t pos = static_cast<std::size_t>(rng.next_below(wire.size()));
    std::uint8_t mask = static_cast<std::uint8_t>(rng.next_below(255) + 1);  // never 0
    wire.cow_xor(pos, mask);
  }
}

void FaultInjector::set_partition(const std::vector<std::vector<std::string>>& groups) {
  group_of_.clear();
  int id = 0;
  for (const auto& group : groups) {
    for (const auto& host : group) group_of_[host] = id;
    ++id;
  }
}

bool FaultInjector::partitioned(const std::string& a, const std::string& b) const {
  if (group_of_.empty()) return false;
  // Unnamed hosts share an implicit extra group.
  auto ita = group_of_.find(a);
  auto itb = group_of_.find(b);
  int ga = ita == group_of_.end() ? -1 : ita->second;
  int gb = itb == group_of_.end() ? -1 : itb->second;
  return ga != gb;
}

FaultPlan::FaultPlan(World& world, std::uint64_t seed) : world_(world), rng_(seed) {}

FaultInjector& FaultPlan::inject(const std::string& network, const FaultProfile& profile) {
  Network* net = world_.network(network);
  assert(net != nullptr && "fault profile on unknown network");
  auto injector = std::make_shared<FaultInjector>(profile, rng_.fork());
  owned_.push_back(injector);
  net->set_fault(injector);
  return *injector;
}

FaultInjector* FaultPlan::injector(const std::string& network) {
  Network* net = world_.network(network);
  return net == nullptr ? nullptr : net->fault();
}

FaultInjector& FaultPlan::ensure_injector(const std::string& network) {
  FaultInjector* existing = injector(network);
  if (existing != nullptr) return *existing;
  return inject(network, FaultProfile{});
}

void FaultPlan::act(SimTime at, std::string name,
                    std::vector<std::pair<std::string, std::string>> args,
                    std::function<void()> fn) {
  // Plan actions run on the control engine: with one shard that is the
  // world's only engine (today's behavior exactly); with several it is the
  // coordinator-driven engine that fires between windows, when every
  // worker is parked and any host or network can be mutated safely.
  world_.control_engine().schedule_at(
      at, [name = std::move(name), args = std::move(args), fn = std::move(fn)] {
        obs::Tracer::global().instant("fault", name, args);
        // Mirror every injected fault into the flight recorder so a dump
        // taken when an invariant trips shows what the chaos plan just did.
        std::string detail;
        for (const auto& [k, v] : args) {
          if (!detail.empty()) detail += " ";
          detail += k + "=" + v;
        }
        obs::FlightRecorder::global().record({}, "fault", name, detail);
        fn();
      });
}

void FaultPlan::link_down(const std::string& network, SimTime at, SimTime up_at) {
  assert(up_at >= at);
  act(at, "link.down", {{"network", network}}, [this, network] {
    Network* net = world_.network(network);
    if (net != nullptr) net->set_up(false);
  });
  act(up_at, "link.up", {{"network", network}}, [this, network] {
    Network* net = world_.network(network);
    if (net != nullptr) net->set_up(true);
  });
}

void FaultPlan::nic_down(const std::string& host, const std::string& network, SimTime at,
                         SimTime up_at) {
  assert(up_at >= at);
  auto flip = [this, host, network](bool up) {
    Host* h = world_.host(host);
    Nic* nic = h == nullptr ? nullptr : h->nic_on(network);
    if (nic != nullptr) nic->set_up(up);
  };
  act(at, "nic.down", {{"host", host}, {"network", network}},
      [flip] { flip(false); });
  act(up_at, "nic.up", {{"host", host}, {"network", network}},
      [flip] { flip(true); });
}

void FaultPlan::crash_host(const std::string& host, SimTime at, SimTime restart_at) {
  assert(restart_at >= at);
  act(at, "host.crash", {{"host", host}}, [this, host] {
    Host* h = world_.host(host);
    if (h != nullptr) h->set_up(false);
  });
  act(restart_at, "host.restart", {{"host", host}}, [this, host] {
    Host* h = world_.host(host);
    if (h != nullptr) h->set_up(true);
  });
}

void FaultPlan::partition(const std::string& network,
                          std::vector<std::vector<std::string>> groups, SimTime at,
                          SimTime heal_at) {
  assert(heal_at >= at);
  ensure_injector(network);
  std::string group_desc;
  for (const auto& g : groups) {
    if (!group_desc.empty()) group_desc += " ";
    group_desc += "[";
    for (std::size_t i = 0; i < g.size(); ++i) group_desc += (i ? "," : "") + g[i];
    group_desc += "]";
  }
  act(at, "partition.start", {{"network", network}, {"groups", group_desc}},
      [this, network, groups = std::move(groups)] {
        FaultInjector* f = injector(network);
        if (f != nullptr) f->set_partition(groups);
        // Reachability changed: cached routes must re-resolve (transports
        // probing alternate paths should not keep riding a path whose
        // gateway now sits across the boundary).
        world_.bump_route_epoch();
      });
  act(heal_at, "partition.heal", {{"network", network}}, [this, network] {
    FaultInjector* f = injector(network);
    if (f != nullptr) f->heal_partition();
    world_.bump_route_epoch();
  });
}

}  // namespace snipe::simnet
